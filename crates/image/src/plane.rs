//! Strided two-dimensional sample plane.

/// A rectangular plane of samples stored row-major with an explicit row
/// stride (`stride >= width`).
///
/// The stride exists so that the cache experiment of the paper's §3.2 can be
/// reproduced: vertical wavelet filtering over a plane whose row pitch is a
/// large power of two maps a whole column onto one cache set, and the
/// documented fix is to pad the pitch off the power of two. With `Plane`,
/// that fix is `Plane::with_stride(w, h, w + pad)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Plane<T> {
    width: usize,
    height: usize,
    stride: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Plane<T> {
    /// Dense plane (`stride == width`) filled with `T::default()`.
    pub fn new(width: usize, height: usize) -> Self {
        Self::with_stride(width, height, width)
    }

    /// Plane with an explicit row stride, filled with `T::default()`.
    ///
    /// # Panics
    /// Panics if `stride < width`.
    // AUDIT(hot): setup-time — the plane buffer is allocated once per
    // component/tile, never inside the per-sample loops.
    pub fn with_stride(width: usize, height: usize, stride: usize) -> Self {
        assert!(stride >= width, "stride {stride} < width {width}");
        Self {
            width,
            height,
            stride,
            data: vec![T::default(); stride * height],
        }
    }

    /// Build a dense plane from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), width * height, "data length mismatch");
        Self {
            width,
            height,
            stride: width,
            data,
        }
    }

    /// Fill the plane from a generator called as `f(x, y)`.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut p = Self::new(width, height);
        for y in 0..height {
            let row = p.row_mut(y);
            for (x, slot) in row.iter_mut().enumerate() {
                *slot = f(x, y);
            }
        }
        p
    }

    /// Extract the rectangle `[x0, x0+w) x [y0, y0+h)` as a dense plane.
    ///
    /// # Panics
    /// Panics if the rectangle exceeds the plane bounds.
    pub fn crop(&self, x0: usize, y0: usize, w: usize, h: usize) -> Self {
        assert!(
            x0 + w <= self.width && y0 + h <= self.height,
            "crop out of bounds"
        );
        let mut out = Self::new(w, h);
        for y in 0..h {
            out.row_mut(y)
                .copy_from_slice(&self.row(y0 + y)[x0..x0 + w]);
        }
        out
    }

    /// Write `src` into this plane with its top-left corner at `(x0, y0)`.
    ///
    /// # Panics
    /// Panics if `src` does not fit.
    // AUDIT(hot): one structural bounds assert per blit — O(blits), and a
    // caller bug, not data-dependent.
    pub fn blit(&mut self, src: &Plane<T>, x0: usize, y0: usize) {
        assert!(
            x0 + src.width <= self.width && y0 + src.height <= self.height,
            "blit out of bounds"
        );
        for y in 0..src.height {
            self.row_mut(y0 + y)[x0..x0 + src.width].copy_from_slice(src.row(y));
        }
    }
}

impl<T: Copy> Plane<T> {
    /// Plane width in samples.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Plane height in samples.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Distance in elements between vertically adjacent samples.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of samples (`width * height`), excluding stride padding.
    #[inline]
    pub fn len(&self) -> usize {
        self.width * self.height
    }

    /// True when the plane holds no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sample at `(x, y)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> T {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.stride + x]
    }

    /// Store `v` at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: T) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.stride + x] = v;
    }

    /// Row `y` including any stride padding tail is *not* exposed: the slice
    /// has exactly `width` elements.
    #[inline]
    pub fn row(&self, y: usize) -> &[T] {
        let start = y * self.stride;
        &self.data[start..start + self.width]
    }

    /// Mutable row `y` (exactly `width` elements).
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [T] {
        let start = y * self.stride;
        &mut self.data[start..start + self.width]
    }

    /// Underlying storage including stride padding.
    #[inline]
    pub fn raw(&self) -> &[T] {
        &self.data
    }

    /// Mutable underlying storage including stride padding.
    #[inline]
    pub fn raw_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Iterate over samples row-major (skipping stride padding).
    pub fn samples(&self) -> impl Iterator<Item = T> + '_ {
        (0..self.height).flat_map(move |y| self.row(y).iter().copied())
    }

    /// Element-wise map into a new dense plane.
    pub fn map<U: Copy + Default>(&self, mut f: impl FnMut(T) -> U) -> Plane<U> {
        let mut out = Plane::new(self.width, self.height);
        for y in 0..self.height {
            for (dst, src) in out.row_mut(y).iter_mut().zip(self.row(y)) {
                *dst = f(*src);
            }
        }
        out
    }

    /// Split the plane into non-overlapping horizontal bands of mutable rows.
    ///
    /// `bands` lists row counts; they must sum to `height`. Used to hand
    /// disjoint row ranges to worker threads during horizontal filtering.
    pub fn split_rows_mut(&mut self, bands: &[usize]) -> Vec<PlaneRowsMut<'_, T>> {
        assert_eq!(
            bands.iter().sum::<usize>(),
            self.height,
            "bands must cover height"
        );
        let width = self.width;
        let stride = self.stride;
        let mut out = Vec::with_capacity(bands.len());
        let mut rest: &mut [T] = &mut self.data;
        let mut y = 0;
        for &rows in bands {
            let take = rows * stride;
            let (head, tail) = rest.split_at_mut(take);
            out.push(PlaneRowsMut {
                data: head,
                width,
                stride,
                rows,
                first_row: y,
            });
            rest = tail;
            y += rows;
        }
        out
    }
}

/// A mutable horizontal band of a [`Plane`]: rows `first_row..first_row+rows`.
pub struct PlaneRowsMut<'a, T> {
    data: &'a mut [T],
    width: usize,
    stride: usize,
    rows: usize,
    first_row: usize,
}

impl<T: Copy> PlaneRowsMut<'_, T> {
    /// Number of rows in the band.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Index of the band's first row within the parent plane.
    pub fn first_row(&self) -> usize {
        self.first_row
    }

    /// Band width (same as the parent plane's).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Mutable local row `r` (`0..rows`).
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        let start = r * self.stride;
        &mut self.data[start..start + self.width]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_roundtrip() {
        let mut p = Plane::<i32>::new(4, 3);
        p.set(2, 1, 42);
        assert_eq!(p.get(2, 1), 42);
        assert_eq!(p.get(0, 0), 0);
        assert_eq!(p.len(), 12);
    }

    #[test]
    fn strided_rows_are_width_long() {
        let mut p = Plane::<i32>::with_stride(5, 2, 8);
        assert_eq!(p.stride(), 8);
        p.row_mut(1).copy_from_slice(&[1, 2, 3, 4, 5]);
        assert_eq!(p.row(1), &[1, 2, 3, 4, 5]);
        assert_eq!(p.row(0), &[0; 5]);
        assert_eq!(p.raw().len(), 16);
    }

    #[test]
    fn from_fn_coordinates() {
        let p = Plane::from_fn(3, 2, |x, y| (10 * y + x) as i32);
        assert_eq!(p.row(0), &[0, 1, 2]);
        assert_eq!(p.row(1), &[10, 11, 12]);
    }

    #[test]
    fn crop_and_blit_invert() {
        let p = Plane::from_fn(6, 5, |x, y| (y * 6 + x) as i32);
        let c = p.crop(2, 1, 3, 2);
        assert_eq!(c.row(0), &[8, 9, 10]);
        assert_eq!(c.row(1), &[14, 15, 16]);
        let mut q = Plane::<i32>::new(6, 5);
        q.blit(&c, 2, 1);
        assert_eq!(q.get(3, 2), 15);
        assert_eq!(q.get(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "crop out of bounds")]
    fn crop_oob_panics() {
        let p = Plane::<i32>::new(4, 4);
        let _ = p.crop(2, 2, 3, 1);
    }

    #[test]
    fn map_applies_elementwise() {
        let p = Plane::from_fn(2, 2, |x, y| (x + y) as i32);
        let q = p.map(|v| v * 2);
        assert_eq!(q.row(0), &[0, 2]);
        assert_eq!(q.row(1), &[2, 4]);
    }

    #[test]
    fn split_rows_mut_disjoint_bands() {
        let mut p = Plane::from_fn(3, 6, |_, _| 0i32);
        {
            let mut bands = p.split_rows_mut(&[2, 3, 1]);
            assert_eq!(bands.len(), 3);
            assert_eq!(bands[1].first_row(), 2);
            assert_eq!(bands[1].rows(), 3);
            for band in &mut bands {
                let fr = band.first_row();
                for r in 0..band.rows() {
                    band.row_mut(r).fill((fr + r) as i32);
                }
            }
        }
        for y in 0..6 {
            assert!(p.row(y).iter().all(|&v| v == y as i32));
        }
    }

    #[test]
    fn samples_iterator_skips_padding() {
        let mut p = Plane::<i32>::with_stride(2, 2, 4);
        p.set(0, 0, 1);
        p.set(1, 0, 2);
        p.set(0, 1, 3);
        p.set(1, 1, 4);
        let v: Vec<i32> = p.samples().collect();
        assert_eq!(v, vec![1, 2, 3, 4]);
    }
}
