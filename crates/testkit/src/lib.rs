//! The workspace's one random source, its property-test runner and the
//! synthetic test imagery.
//!
//! [`Rng`] is SplitMix64 (Steele, Lea & Flood 2014): one `u64` of state,
//! every seed valid, the same stream on every platform. [`synth`] draws its
//! imagery from it and every randomized test draws its inputs from it, so
//! a failure is always reproducible from one number.
//!
//! [`cases`] runs a property `n` times, each case on an `Rng` seeded from
//! the case index. When a case panics, the panic is re-raised as
//! `case <i> seed <s>: <original message>`; `Rng::new(<s>)` then replays
//! exactly that case's draws. There is no shrinking and no environment
//! variable: a failing input worth keeping becomes a named `#[test]`.

pub mod synth;

use std::ops::{Bound, Range, RangeBounds};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// SplitMix64 generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 uniformly distributed bits.
    pub fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `range` (`a..b`, `a..=b`, or `..` for the whole
    /// type).
    ///
    /// # Panics
    /// Panics on an empty range.
    pub fn range<T: Int, R: RangeBounds<T>>(&mut self, range: R) -> T {
        let lo = match range.start_bound() {
            Bound::Included(&a) => a.to_i128(),
            Bound::Excluded(&a) => a.to_i128() + 1,
            Bound::Unbounded => T::MIN.to_i128(),
        };
        let hi = match range.end_bound() {
            Bound::Included(&b) => b.to_i128(),
            Bound::Excluded(&b) => b.to_i128() - 1,
            Bound::Unbounded => T::MAX.to_i128(),
        };
        assert!(lo <= hi, "Rng::range: empty range");
        // Multiply-shift maps 64 random bits onto `span` <= 2^64 values.
        let span = (hi - lo) as u128 + 1;
        let offset = (u128::from(self.u64()) * span) >> 64;
        T::from_i128(lo + offset as i128)
    }

    /// Uniform float in `[0, 1)` (53 random mantissa bits).
    pub fn f64(&mut self) -> f64 {
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[range.start, range.end)`.
    pub fn range_f64(&mut self, range: Range<f64>) -> f64 {
        range.start + (range.end - range.start) * self.f64()
    }

    /// Fair coin.
    pub fn bool(&mut self) -> bool {
        self.u64() >> 63 == 1
    }

    /// Overwrite `buf` with random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            chunk.copy_from_slice(&self.u64().to_le_bytes()[..chunk.len()]);
        }
    }

    /// `len` values drawn by `f`.
    pub fn vec<T>(&mut self, len: usize, mut f: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        (0..len).map(|_| f(self)).collect()
    }
}

/// Integer types [`Rng::range`] can draw.
pub trait Int: Copy {
    /// Smallest value of the type.
    const MIN: Self;
    /// Largest value of the type.
    const MAX: Self;
    /// Lossless widening.
    fn to_i128(self) -> i128;
    /// Narrowing of a value known to be in `MIN..=MAX`.
    fn from_i128(v: i128) -> Self;
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Int for $t {
            const MIN: Self = <$t>::MIN;
            const MAX: Self = <$t>::MAX;
            fn to_i128(self) -> i128 {
                self as i128
            }
            fn from_i128(v: i128) -> Self {
                v as $t
            }
        }
    )*};
}
impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Seed of case `i` of every [`cases`] run.
fn case_seed(i: u32) -> u64 {
    Rng::new(u64::from(i)).u64()
}

/// Run `property` on `n` seeded cases; a panicking case is re-raised as
/// `case <i> seed <s>: <message>` (see the crate docs).
pub fn cases(n: u32, property: impl Fn(&mut Rng)) {
    for i in 0..n {
        let seed = case_seed(i);
        let outcome = catch_unwind(AssertUnwindSafe(|| property(&mut Rng::new(seed))));
        if let Err(payload) = outcome {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied());
            match message {
                Some(m) => panic!("case {i} seed {seed:#018x}: {m}"),
                None => {
                    eprintln!("case {i} seed {seed:#018x}");
                    resume_unwind(payload)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_reference_vector() {
        // First outputs for seed 1234567 from the reference C implementation
        // (Vigna, prng.di.unimi.it/splitmix64.c).
        let mut rng = Rng::new(1234567);
        assert_eq!(rng.u64(), 6457827717110365317);
        assert_eq!(rng.u64(), 3203168211198807973);
        assert_eq!(rng.u64(), 9817491932198370423);
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (
                rng.vec(16, Rng::u64),
                rng.f64(),
                rng.bool(),
                rng.range(0..1000u32),
            )
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7).0, draw(8).0);
    }

    #[test]
    fn exclusive_range_never_yields_its_end_and_reaches_both_edges() {
        let mut rng = Rng::new(1);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let v: usize = rng.range(3..8);
            assert!((3..8).contains(&v));
            seen[v - 3] = true;
        }
        assert_eq!(seen, [true; 5]);
        assert_eq!(rng.range(9..10u8), 9);
    }

    #[test]
    fn inclusive_range_yields_its_end() {
        let mut rng = Rng::new(2);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            let v: i32 = rng.range(-2..=1);
            assert!((-2..=1).contains(&v));
            seen[(v + 2) as usize] = true;
        }
        assert_eq!(seen, [true; 4]);
        assert_eq!(rng.range(5..=5i64), 5);
    }

    #[test]
    fn full_width_ranges_cover_the_type() {
        let mut rng = Rng::new(3);
        let bytes: Vec<u8> = rng.vec(4096, |r| r.range(..));
        assert!(bytes.contains(&0) && bytes.contains(&255));
        let wide: Vec<i64> = rng.vec(64, |r| r.range(..));
        assert!(wide.iter().any(|&v| v < 0) && wide.iter().any(|&v| v > 0));
        assert!(rng
            .vec(64, |r| r.range(..=u64::MAX))
            .iter()
            .any(|&v| v > u64::MAX / 2));
        assert!((1..=255).contains(&rng.range(1u8..)));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng::new(0).range(4..4usize);
    }

    #[test]
    fn floats_stay_in_their_half_open_interval() {
        let mut rng = Rng::new(4);
        for _ in 0..1000 {
            assert!((0.0..1.0).contains(&rng.f64()));
            assert!((-60.0..60.0).contains(&rng.range_f64(-60.0..60.0)));
        }
    }

    #[test]
    fn fill_covers_lengths_that_are_not_multiples_of_eight() {
        let mut rng = Rng::new(5);
        for len in [0usize, 1, 7, 8, 9, 31] {
            let mut buf = vec![0u8; len];
            rng.fill(&mut buf);
            assert_eq!(buf.len(), len);
        }
        let mut big = vec![0u8; 1000];
        rng.fill(&mut big);
        assert!(
            big[992..].iter().any(|&b| b != 0),
            "tail chunk left unwritten"
        );
    }

    #[test]
    fn cases_runs_every_case_on_distinct_seeds() {
        let seen = std::sync::Mutex::new(Vec::new());
        cases(40, |rng| seen.lock().unwrap().push(rng.clone()));
        let mut seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 40);
        assert_eq!(seen[3], Rng::new(case_seed(3)));
        seen.dedup();
        assert_eq!(seen.len(), 40);
    }

    #[test]
    fn cases_reports_the_failing_case_seed_and_the_seed_reproduces_the_input() {
        // The property fails on the first drawn value above 900.
        let property = |rng: &mut Rng| {
            let v: u32 = rng.range(0..1000);
            assert!(v <= 900, "drew {v}");
        };
        let payload = catch_unwind(|| cases(256, property)).expect_err("some case must fail");
        let report = payload
            .downcast_ref::<String>()
            .expect("string panic")
            .clone();

        // "case <i> seed <s>: ... drew <v>"
        let words: Vec<&str> = report.split_whitespace().collect();
        assert_eq!((words[0], words[2]), ("case", "seed"), "{report}");
        let case: u32 = words[1].parse().unwrap();
        let seed_hex = words[3].trim_end_matches(':').trim_start_matches("0x");
        let seed = u64::from_str_radix(seed_hex, 16).unwrap();
        assert_eq!(seed, case_seed(case));
        let drew: u32 = words.last().unwrap().parse().unwrap();

        // Re-running the reported seed reproduces the failing input.
        assert_eq!(Rng::new(seed).range(0..1000u32), drew);
        assert!(drew > 900);
        // Every earlier case passed.
        for i in 0..case {
            assert!(Rng::new(case_seed(i)).range(0..1000u32) <= 900);
        }
    }
}
