//! Checked disjoint-access layer for parallel writes into one buffer.
//!
//! The paper's parallel schemes (static row/column splits for the DWT,
//! schedule-driven slot assignment for the Tier-1 pool) all rest on the same
//! invariant: *every worker touches a disjoint set of element indices*.
//! [`DisjointWriter`], the workspace's one raw-write primitive, makes it
//! mechanically checked:
//!
//! * Workers **claim** the region they intend to access — a contiguous
//!   range, an explicit index set, or a strided rectangle — and receive a
//!   [`DisjointClaim`] handle for the actual accesses.
//! * In **debug builds** every claim is registered in a shared claim table;
//!   an overlapping claim panics deterministically at claim time (instead
//!   of corrupting data silently), every access is checked against the
//!   claimed region, and scope-exit helpers assert that claims exactly
//!   cover the intended domain.
//! * In **release builds** the claim table, the per-access membership
//!   checks, and the coverage helpers all compile away; a claim is a bare
//!   pointer + cheap O(1) bounds assertions, so the hot loops are exactly
//!   as fast as the unchecked pointer arithmetic they replace.
//!
//! Accessors remain `unsafe` because release builds do not check per-access
//! bounds or disjointness — but any schedule bug that could break the
//! contract is caught deterministically the first time a debug build runs.

#[cfg(debug_assertions)]
use crate::sync::{Arc, Mutex};
#[cfg(debug_assertions)]
use std::collections::HashSet;
use std::marker::PhantomData;
use std::ops::Range;

/// Shared bitmap of claimed element indices (debug builds only).
#[cfg(debug_assertions)]
struct ClaimTable {
    bits: Vec<u64>,
    claimed: usize,
}

#[cfg(debug_assertions)]
impl ClaimTable {
    // AUDIT(hot): debug-build only — the claim bitmap exists solely in
    // debug builds; release hot paths compile none of this.
    fn new(len: usize) -> Self {
        ClaimTable {
            bits: vec![0u64; len.div_ceil(64)],
            claimed: 0,
        }
    }

    // AUDIT(hot): debug-build only — overlap detection, absent in release.
    fn claim(&mut self, i: usize) {
        let (w, b) = (i / 64, i % 64);
        assert!(
            self.bits[w] & (1 << b) == 0,
            "DisjointWriter: overlapping claim — element {i} is already claimed by another worker"
        );
        self.bits[w] |= 1 << b;
        self.claimed += 1;
    }
}

/// The claimed region carried by a [`DisjointClaim`] (debug builds only).
#[cfg(debug_assertions)]
#[derive(Debug, Clone)]
enum Region {
    Range(Range<usize>),
    Indices(HashSet<usize>),
    Rect {
        xs: Range<usize>,
        ys: Range<usize>,
        stride: usize,
    },
}

#[cfg(debug_assertions)]
impl Region {
    fn owns(&self, i: usize) -> bool {
        match self {
            Region::Range(r) => r.contains(&i),
            Region::Indices(set) => set.contains(&i),
            Region::Rect { xs, ys, stride } => {
                let y = i / stride;
                let x = i % stride;
                ys.contains(&y) && xs.contains(&x)
            }
        }
    }

    /// Whether the contiguous span `[start, start + len)` lies inside the
    /// region.
    fn owns_span(&self, start: usize, len: usize) -> bool {
        if len == 0 {
            return true;
        }
        match self {
            Region::Range(r) => start >= r.start && start + len <= r.end,
            Region::Indices(set) => (start..start + len).all(|i| set.contains(&i)),
            Region::Rect { xs, ys, stride } => {
                let y = start / stride;
                let x = start % stride;
                ys.contains(&y) && x >= xs.start && x + len <= xs.end
            }
        }
    }
}

/// Entry point of the checked disjoint-access layer: wraps one mutable
/// buffer and hands out non-overlapping [`DisjointClaim`]s to workers.
///
/// See the [module docs](self) for the full model.
pub struct DisjointWriter<'a, T> {
    ptr: *mut T,
    len: usize,
    #[cfg(debug_assertions)]
    table: Arc<Mutex<ClaimTable>>,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: the writer only exposes raw access through claims, whose
// disjointness is the claiming workers' obligation (checked in debug
// builds); the PhantomData keeps the underlying buffer borrowed for 'a.
unsafe impl<T: Send> Send for DisjointWriter<'_, T> {}
// SAFETY: same argument — `&DisjointWriter` only permits claiming
// (internally synchronized) and claimed, disjoint accesses.
unsafe impl<T: Send> Sync for DisjointWriter<'_, T> {}

impl<'a, T> DisjointWriter<'a, T> {
    /// Wrap `slice` for checked disjoint parallel writes. The slice stays
    /// mutably borrowed for the writer's lifetime.
    // AUDIT(hot): setup-time — one writer per parallel region; the
    // mutex-guarded claim table is debug-build bookkeeping.
    pub fn new(slice: &'a mut [T]) -> Self {
        DisjointWriter {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            #[cfg(debug_assertions)]
            table: Arc::new(Mutex::new(ClaimTable::new(slice.len()))),
            _marker: PhantomData,
        }
    }

    /// Number of elements in the wrapped buffer.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the wrapped buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Claim the contiguous element range `range`.
    ///
    /// # Panics
    /// If the range is out of bounds; in debug builds, if any element is
    /// already claimed.
    pub fn claim_range(&self, range: Range<usize>) -> DisjointClaim<'_, T> {
        assert!(range.end <= self.len, "claim_range out of bounds"); // AUDIT(hot): O(1) per claim, not per element.
        #[cfg(debug_assertions)]
        self.register(range.clone()); // AUDIT(hot): Range copy + debug-only registration.
        DisjointClaim {
            ptr: self.ptr,
            #[cfg(debug_assertions)]
            region: Region::Range(range),
            _marker: PhantomData,
        }
    }

    /// Claim an explicit set of element indices (the shape produced by
    /// [`crate::assign`] schedules).
    ///
    /// # Panics
    /// In debug builds: if any index is out of bounds, repeated, or already
    /// claimed.
    // AUDIT(hot): the bounds asserts and the index-set collect are
    // debug-build only (cfg'd field); release claims are pointer math.
    pub fn claim_indices(&self, indices: &[usize]) -> DisjointClaim<'_, T> {
        #[cfg(debug_assertions)]
        {
            for &i in indices {
                assert!(i < self.len, "claim_indices: index {i} out of bounds");
            }
            self.register(indices.iter().copied());
        }
        #[cfg(not(debug_assertions))]
        let _ = indices;
        DisjointClaim {
            ptr: self.ptr,
            #[cfg(debug_assertions)]
            region: Region::Indices(indices.iter().copied().collect()),
            _marker: PhantomData,
        }
    }

    /// Claim the strided rectangle `{ y*stride + x | x in xs, y in ys }` —
    /// the access pattern of the DWT row/column passes over an image plane
    /// with row pitch `stride`.
    ///
    /// # Panics
    /// If the rectangle exceeds the row pitch or the buffer; in debug
    /// builds, if any element is already claimed.
    // AUDIT(hot): O(1) bounds asserts per claim, not per element; the Range
    // clones copy two integers each and feed the debug-only registration.
    pub fn claim_rect(
        &self,
        xs: Range<usize>,
        ys: Range<usize>,
        stride: usize,
    ) -> DisjointClaim<'_, T> {
        assert!(xs.end <= stride, "claim_rect: column range exceeds stride");
        if !xs.is_empty() && !ys.is_empty() {
            let last = (ys.end - 1) * stride + (xs.end - 1);
            assert!(last < self.len, "claim_rect out of bounds");
        }
        #[cfg(debug_assertions)]
        self.register(
            ys.clone()
                .flat_map(|y| xs.clone().map(move |x| y * stride + x)),
        );
        DisjointClaim {
            ptr: self.ptr,
            #[cfg(debug_assertions)]
            region: Region::Rect { xs, ys, stride },
            _marker: PhantomData,
        }
    }

    #[cfg(debug_assertions)]
    // AUDIT(hot): debug-build only — lock + bitmap update vanish in release.
    fn register(&self, indices: impl IntoIterator<Item = usize>) {
        let mut table = self.table.lock().unwrap_or_else(|e| e.into_inner());
        for i in indices {
            table.claim(i);
        }
    }

    /// Debug-build assertion that the claims issued so far cover **every**
    /// element of the buffer (full coverage at scope exit). No-op in
    /// release builds.
    // AUDIT(hot): debug-build only — coverage assertion, no-op in release.
    pub fn debug_assert_fully_claimed(&self) {
        #[cfg(debug_assertions)]
        {
            let table = self.table.lock().unwrap_or_else(|e| e.into_inner());
            assert_eq!(
                table.claimed, self.len,
                "DisjointWriter: claims cover {} of {} elements — partition is not a cover",
                table.claimed, self.len
            );
        }
    }

    /// Debug-build assertion that exactly `expected` elements have been
    /// claimed (coverage check for writers wrapping a larger buffer than
    /// the pass domain, e.g. a sub-rectangle of a padded plane). No-op in
    /// release builds.
    pub fn debug_assert_claimed(&self, expected: usize) {
        #[cfg(debug_assertions)]
        {
            let table = self.table.lock().unwrap_or_else(|e| e.into_inner());
            assert_eq!(
                table.claimed, expected,
                "DisjointWriter: claims cover {} elements, expected {expected}",
                table.claimed
            );
        }
        #[cfg(not(debug_assertions))]
        let _ = expected;
    }
}

/// A worker's claimed region of a [`DisjointWriter`] buffer.
///
/// Accessors are `read`, `write` and `slice_mut`; in debug builds every
/// access is checked against the claimed region.
pub struct DisjointClaim<'w, T> {
    ptr: *mut T,
    #[cfg(debug_assertions)]
    region: Region,
    _marker: PhantomData<&'w ()>,
}

// SAFETY: a claim only reaches elements its (disjointness-checked) region
// owns; sending it to another thread does not change the region.
unsafe impl<T: Send> Send for DisjointClaim<'_, T> {}

impl<T> DisjointClaim<'_, T> {
    /// Read element `i`.
    ///
    /// # Safety
    /// `i` must be in bounds of the wrapped buffer and inside this claim's
    /// region (checked in debug builds).
    #[inline]
    pub unsafe fn read(&self, i: usize) -> T
    where
        T: Copy,
    {
        #[cfg(debug_assertions)]
        assert!(self.region.owns(i), "read of unclaimed element {i}"); // AUDIT(hot): debug-build only.
                                                                       // SAFETY: caller guarantees `i` is in bounds; the claim's region
                                                                       // was bounds-checked at claim time.
        unsafe { *self.ptr.add(i) }
    }

    /// Write element `i`.
    ///
    /// # Safety
    /// `i` must be in bounds and inside this claim's region (checked in
    /// debug builds); the region is exclusively owned by this claim.
    #[inline]
    pub unsafe fn write(&self, i: usize, v: T) {
        #[cfg(debug_assertions)]
        assert!(self.region.owns(i), "write to unclaimed element {i}"); // AUDIT(hot): debug-build only.
                                                                        // SAFETY: caller guarantees `i` is in bounds; disjointness of
                                                                        // claims makes the store race-free.
        unsafe { *self.ptr.add(i) = v };
    }

    /// Reborrow the contiguous sub-slice `[start, start + len)`.
    ///
    /// # Safety
    /// The span must be in bounds and lie entirely inside this claim's
    /// region (checked in debug builds).
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        #[cfg(debug_assertions)]
        // AUDIT(hot): debug-build only.
        assert!(
            self.region.owns_span(start, len),
            "slice_mut of unclaimed span {start}..{}",
            start + len
        );
        // SAFETY: caller guarantees the span is in bounds; disjointness of
        // claims makes the exclusive reborrow sound.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }
}

// Gated out under loom: these tests claim from plain std threads, and
// loom's mutex (backing the debug claim table) panics outside
// `loom::model`. The claim/cover protocol is model-checked in
// `loom/tests/loom.rs`.
#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn claimed_writes_land() {
        let mut buf = vec![0u32; 16];
        {
            let w = DisjointWriter::new(&mut buf);
            let a = w.claim_range(0..8);
            let b = w.claim_range(8..16);
            for i in 0..8 {
                // SAFETY: each claim owns its range exclusively.
                unsafe {
                    a.write(i, i as u32);
                    b.write(8 + i, 100 + i as u32);
                }
            }
            w.debug_assert_fully_claimed();
        }
        assert_eq!(buf[3], 3);
        assert_eq!(buf[11], 103);
    }

    #[test]
    fn parallel_claims_from_scoped_threads() {
        let mut buf = vec![0usize; 97];
        let n = buf.len();
        {
            let w = DisjointWriter::new(&mut buf);
            let w = &w;
            std::thread::scope(|scope| {
                for chunk in crate::schedule::chunk_ranges(n, 4) {
                    scope.spawn(move || {
                        let claim = w.claim_range(chunk.clone());
                        for i in chunk {
                            // SAFETY: ranges from chunk_ranges are disjoint.
                            unsafe { claim.write(i, i * 2) };
                        }
                    });
                }
            });
            w.debug_assert_fully_claimed();
        }
        for (i, v) in buf.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "overlapping claim")]
    fn overlapping_range_claims_panic() {
        let mut buf = vec![0u8; 10];
        let w = DisjointWriter::new(&mut buf);
        let _a = w.claim_range(0..6);
        let _b = w.claim_range(5..10); // element 5 claimed twice
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "overlapping claim")]
    fn overlapping_index_claims_panic() {
        let mut buf = vec![0u8; 10];
        let w = DisjointWriter::new(&mut buf);
        let _a = w.claim_indices(&[0, 2, 4]);
        let _b = w.claim_indices(&[1, 2, 3]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "overlapping claim")]
    fn overlapping_rect_claims_panic() {
        let mut buf = vec![0u8; 64];
        let w = DisjointWriter::new(&mut buf);
        let _a = w.claim_rect(0..4, 0..8, 8);
        let _b = w.claim_rect(3..6, 0..8, 8); // column 3 claimed twice
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "unclaimed element")]
    fn write_outside_claim_panics_in_debug() {
        let mut buf = vec![0u8; 10];
        let w = DisjointWriter::new(&mut buf);
        let a = w.claim_range(0..5);
        // SAFETY: deliberately violates the claim to exercise the check.
        unsafe { a.write(7, 1) };
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "partition is not a cover")]
    fn partial_cover_fails_full_coverage_assert() {
        let mut buf = vec![0u8; 10];
        let w = DisjointWriter::new(&mut buf);
        let _a = w.claim_range(0..5);
        w.debug_assert_fully_claimed();
    }

    #[test]
    fn rect_claim_matches_strided_layout() {
        // 6 columns x 4 rows with stride 8 (2 columns of padding).
        let mut buf = vec![0u32; 32];
        {
            let w = DisjointWriter::new(&mut buf);
            let left = w.claim_rect(0..3, 0..4, 8);
            let right = w.claim_rect(3..6, 0..4, 8);
            for y in 0..4 {
                for x in 0..3 {
                    // SAFETY: each rect owns its columns exclusively.
                    unsafe {
                        left.write(y * 8 + x, 1);
                        right.write(y * 8 + 3 + x, 2);
                    }
                }
            }
            w.debug_assert_claimed(24);
        }
        for y in 0..4 {
            for x in 0..8 {
                let want = if x < 3 {
                    1
                } else if x < 6 {
                    2
                } else {
                    0
                };
                assert_eq!(buf[y * 8 + x], want, "({x},{y})");
            }
        }
    }

    #[test]
    fn slice_mut_within_rect_row() {
        let mut buf: Vec<u16> = (0..40).collect();
        let w = DisjointWriter::new(&mut buf);
        let claim = w.claim_rect(0..6, 1..3, 10);
        // SAFETY: row segment [10, 16) lies inside the claimed rect.
        let row = unsafe { claim.slice_mut(10, 6) };
        row.copy_from_slice(&[9, 9, 9, 9, 9, 9]);
        drop(claim);
        w.debug_assert_claimed(12);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "unclaimed span")]
    fn slice_mut_crossing_rect_padding_panics_in_debug() {
        let mut buf = vec![0u16; 40];
        let w = DisjointWriter::new(&mut buf);
        let claim = w.claim_rect(0..6, 1..3, 10);
        // Span [10, 18) runs past column 5 into the padding.
        // SAFETY: deliberately violates the claim to exercise the check.
        let _ = unsafe { claim.slice_mut(10, 8) };
    }

    #[test]
    fn claim_bounds_checked_in_all_builds() {
        let mut buf = vec![0u8; 10];
        let w = DisjointWriter::new(&mut buf);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = w.claim_range(5..11);
        }))
        .is_err());
    }

    #[test]
    fn empty_claims_are_fine() {
        let mut buf = vec![0u8; 4];
        let w = DisjointWriter::new(&mut buf);
        let _a = w.claim_range(0..0);
        let _b = w.claim_indices(&[]);
        let _c = w.claim_rect(0..0, 0..0, 4);
        w.debug_assert_claimed(0);
    }
}
