//! Seeded input generator.
//!
//! The benchmark owns its inputs: they come from this file, never from
//! `pj2k_image::synth`, so a change to the codec's own test imagery cannot
//! move a benchmark number. The codec only ever sees the PGM/PPM files.
//!
//! An image is a sum of value-noise octaves (a 1/f-like spectrum, so the
//! wavelet transform compacts energy the way it does on photographs),
//! a few hard-edged rectangles (so there are edges and ringing), and, for
//! the textured preset, ±3 of per-sample sensor noise (so the low
//! bit-planes are incompressible, as they are in camera output). All
//! arithmetic is single-threaded integer and `f32`, so a seed gives the
//! same bytes on every run.

/// SplitMix64 (Steele, Lea, Flood 2014): 64 bits of state, full period.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 24 bits, exactly representable in `f32`.
    pub fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.unit()
    }
}

/// What kind of content to draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Octaves down to 2 px cells plus ±3 sensor noise: expensive
    /// code-blocks, every bit-plane populated.
    Textured,
    /// Octaves down to 8 px cells, no noise: cheap code-blocks, most
    /// detail coefficients quantize to zero.
    Smooth,
}

/// An 8-bit image, samples interleaved by channel (PGM/PPM order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Raster {
    pub width: usize,
    pub height: usize,
    /// 1 (gray) or 3 (RGB).
    pub channels: usize,
    pub data: Vec<u8>,
}

/// Largest value-noise cell, in pixels.
const MAX_CELL: usize = 256;

/// Add one bilinearly interpolated value-noise octave of cell size `cell`
/// and amplitude `amp` to `plane`.
fn add_octave(plane: &mut [f32], w: usize, h: usize, cell: usize, amp: f32, rng: &mut SplitMix64) {
    let gw = w / cell + 2;
    let gh = h / cell + 2;
    let grid: Vec<f32> = (0..gw * gh).map(|_| rng.range(-amp, amp)).collect();
    let inv = 1.0 / cell as f32;
    let fx: Vec<f32> = (0..w).map(|x| (x % cell) as f32 * inv).collect();
    for y in 0..h {
        let fy = (y % cell) as f32 * inv;
        let top = &grid[(y / cell) * gw..][..gw];
        let bot = &grid[(y / cell + 1) * gw..][..gw];
        let row = &mut plane[y * w..][..w];
        for (x, out) in row.iter_mut().enumerate() {
            let gx = x / cell;
            let a = top[gx] + (top[gx + 1] - top[gx]) * fx[x];
            let b = bot[gx] + (bot[gx + 1] - bot[gx]) * fx[x];
            *out += a + (b - a) * fy;
        }
    }
}

/// A `w x h` plane of octaves from [`MAX_CELL`] down to `min_cell`, each
/// 1/sqrt(2) the amplitude of the one above, the coarsest at `top_amp`.
fn octaves(w: usize, h: usize, min_cell: usize, top_amp: f32, rng: &mut SplitMix64) -> Vec<f32> {
    let mut plane = vec![0.0f32; w * h];
    let mut cell = MAX_CELL;
    let mut amp = top_amp;
    while cell >= min_cell {
        add_octave(&mut plane, w, h, cell, amp, rng);
        cell /= 2;
        amp *= std::f32::consts::FRAC_1_SQRT_2;
    }
    plane
}

/// `count` values, one from each of `count` equal slices of `[0, 1)`, in
/// shuffled order.
fn stratified(count: usize, rng: &mut SplitMix64) -> Vec<f32> {
    let mut values: Vec<f32> = (0..count)
        .map(|i| (i as f32 + rng.unit()) / count as f32)
        .collect();
    for i in (1..count).rev() {
        values.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    values
}

/// Add hard-edged rectangles: one per 256 x 256 px of image, at least 4.
///
/// Widths, heights and contrasts are stratified over their ranges, not
/// drawn independently: the total edge length and contrast, which is
/// what a fixed rate spends its bits on, then hardly depend on the seed
/// (only the placement does), which roughly halves the spread of rate
/// and PSNR between seeds that `compressed_bpp` and `psnr_db`'s bounds
/// have to cover.
fn add_rectangles(plane: &mut [f32], w: usize, h: usize, rng: &mut SplitMix64) {
    let count = (w * h / (256 * 256)).max(4);
    let (widths, heights) = (stratified(count, rng), stratified(count, rng));
    let contrasts = stratified(count, rng);
    for (i, ((fw, fh), contrast)) in widths.iter().zip(&heights).zip(&contrasts).enumerate() {
        let rw = (((0.03 + 0.17 * fw) * w as f32) as usize).max(1);
        let rh = (((0.03 + 0.17 * fh) * h as f32) as usize).max(1);
        let x0 = (rng.unit() * (w - rw.min(w - 1)) as f32) as usize;
        let y0 = (rng.unit() * (h - rh.min(h - 1)) as f32) as usize;
        // As many brighter as darker; the shuffle above makes the sign
        // independent of the contrast.
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        let delta = sign * (20.0 + 40.0 * contrast);
        for y in y0..(y0 + rh).min(h) {
            for v in &mut plane[y * w + x0..y * w + (x0 + rw).min(w)] {
                *v += delta;
            }
        }
    }
}

/// Generate a `width x height` image with 1 or 3 channels, deterministic
/// in all arguments.
///
/// # Panics
/// Panics unless `channels` is 1 or 3 and both dimensions are non-zero.
pub fn generate(width: usize, height: usize, channels: usize, preset: Preset, seed: u64) -> Raster {
    assert!(channels == 1 || channels == 3, "1 or 3 channels");
    assert!(width > 0 && height > 0, "empty image");
    let mut rng = SplitMix64::new(seed);
    let (min_cell, noise) = match preset {
        Preset::Textured => (2, 3i32),
        Preset::Smooth => (8, 0),
    };
    let mut luma = octaves(width, height, min_cell, 40.0, &mut rng);
    add_rectangles(&mut luma, width, height, &mut rng);
    // Chroma varies slowly (cells >= 32 px), as it does in photographs, so
    // the three components are strongly correlated and RCT/ICT pay off.
    let chroma: Option<(Vec<f32>, Vec<f32>)> = (channels == 3).then(|| {
        (
            octaves(width, height, 32, 30.0, &mut rng),
            octaves(width, height, 32, 30.0, &mut rng),
        )
    });
    let mut data = Vec::with_capacity(width * height * channels);
    let mut sample = |v: f32, rng: &mut SplitMix64| {
        let n = if noise > 0 {
            (rng.next_u64() % (2 * noise as u64 + 1)) as i32 - noise
        } else {
            0
        };
        data.push((v.round() as i32 + n).clamp(0, 255) as u8);
    };
    for (i, &l) in luma.iter().enumerate() {
        let l = l + 128.0;
        match &chroma {
            None => sample(l, &mut rng),
            Some((u, v)) => {
                sample(l + 1.402 * v[i], &mut rng);
                sample(l - 0.344 * u[i] - 0.714 * v[i], &mut rng);
                sample(l + 1.772 * u[i], &mut rng);
            }
        }
    }
    Raster {
        width,
        height,
        channels,
        data,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_gives_the_same_image_and_another_seed_another() {
        for (channels, preset) in [(1, Preset::Textured), (3, Preset::Smooth)] {
            let a = generate(100, 75, channels, preset, 1);
            assert_eq!(a.data.len(), 100 * 75 * channels);
            assert_eq!(a, generate(100, 75, channels, preset, 1));
            assert_ne!(a, generate(100, 75, channels, preset, 2));
        }
    }

    #[test]
    fn stratified_values_cover_every_slice_once() {
        let mut slices: Vec<usize> = stratified(16, &mut SplitMix64::new(9))
            .iter()
            .map(|v| (v * 16.0) as usize)
            .collect();
        slices.sort_unstable();
        assert_eq!(slices, (0..16).collect::<Vec<_>>());
    }
}
