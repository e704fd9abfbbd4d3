//! Deterministic synthetic test imagery.
//!
//! The paper evaluates on photographic material (Lena and a set of
//! differently sized images, 256 Kpixel up to 16384 Kpixel). That material is
//! not redistributable, so this module generates seeded synthetic images
//! with the statistics that matter for the experiments:
//!
//! * smooth, strongly correlated regions (so the wavelet transform compacts
//!   energy and R-D curves behave like natural images),
//! * hard edges (so tiling artifacts and ringing show up, Fig. 4/5),
//! * band-limited texture (so code-blocks have non-trivial bit-planes and
//!   Tier-1 cost is realistic).
//!
//! Timing experiments (Figs. 2, 3, 6–13) depend only on the pixel count, and
//! quality experiments compare codecs *on the same input*, so a deterministic
//! synthetic stand-in preserves the comparisons (DESIGN.md §2).

use crate::Rng;
use pj2k_image::{Image, Plane};

/// Image sizes used throughout the paper's figures, in Kpixel
/// (256 Kpx = 512x512 ... 16384 Kpx = 4096x4096).
pub const PAPER_SIZES_KPIXEL: [usize; 7] = [256, 576, 1024, 2304, 4096, 9216, 16384];

/// Side length of the square image with `kpixels` Kpixel
/// (e.g. 256 -> 512, 16384 -> 4096).
///
/// # Panics
/// Panics unless `kpixels * 1024` is a perfect square, which holds for all
/// of [`PAPER_SIZES_KPIXEL`].
pub fn side_for_kpixels(kpixels: usize) -> usize {
    let n = kpixels * 1024;
    let side = (n as f64).sqrt().round() as usize;
    assert_eq!(side * side, n, "{kpixels} Kpixel is not a square image");
    side
}

/// Generate a grayscale "photographic-like" image: smooth background,
/// value-noise texture, and a few hard-edged objects. Deterministic in
/// (`width`, `height`, `seed`).
pub fn natural_gray(width: usize, height: usize, seed: u64) -> Image {
    Image::gray8(natural_plane(width, height, &mut Rng::new(seed)))
}

/// Generate an RGB image with correlated components (luma structure shared,
/// chroma varying slowly), as natural photographs have.
pub fn natural_rgb(width: usize, height: usize, seed: u64) -> Image {
    let mut rng = Rng::new(seed);
    let luma = natural_plane(width, height, &mut rng);
    let chroma_u = value_noise(width, height, 6, &mut rng);
    let chroma_v = value_noise(width, height, 6, &mut rng);
    let make = |scale_u: f64, scale_v: f64| {
        let mut p = Plane::<i32>::new(width, height);
        for y in 0..height {
            for x in 0..width {
                let l = luma.get(x, y) as f64;
                let u = chroma_u.get(x, y) as f64 - 128.0;
                let v = chroma_v.get(x, y) as f64 - 128.0;
                let s = l + scale_u * u + scale_v * v;
                p.set(x, y, s.round().clamp(0.0, 255.0) as i32);
            }
        }
        p
    };
    Image::rgb8(make(0.3, 0.5), make(-0.2, 0.1), make(0.6, -0.4))
}

fn natural_plane(width: usize, height: usize, rng: &mut Rng) -> Plane<i32> {
    assert!(width > 0 && height > 0, "empty image");
    // Smooth base: a handful of low-frequency cosine sheets.
    let n_waves = 4;
    let waves: Vec<(f64, f64, f64, f64)> = (0..n_waves)
        .map(|_| {
            (
                rng.range_f64(0.5..2.5) * std::f64::consts::TAU / width.max(1) as f64,
                rng.range_f64(0.5..2.5) * std::f64::consts::TAU / height.max(1) as f64,
                rng.range_f64(0.0..std::f64::consts::TAU),
                rng.range_f64(12.0..30.0),
            )
        })
        .collect();
    let texture = value_noise(width, height, 5, rng);
    let fine = value_noise(width, height, 3, rng);
    // Hard-edged objects (ellipses) to provide edges for the R-D experiments.
    let n_objects = 6;
    #[allow(clippy::type_complexity)]
    let objects: Vec<(f64, f64, f64, f64, f64)> = (0..n_objects)
        .map(|_| {
            (
                rng.range_f64(0.0..width as f64),
                rng.range_f64(0.0..height as f64),
                rng.range_f64(0.05..0.25) * width as f64,
                rng.range_f64(0.05..0.25) * height as f64,
                rng.range_f64(-60.0..60.0),
            )
        })
        .collect();

    let mut p = Plane::<i32>::new(width, height);
    for y in 0..height {
        for x in 0..width {
            let (xf, yf) = (x as f64, y as f64);
            let mut v = 128.0;
            for &(fx, fy, ph, amp) in &waves {
                v += amp * (fx * xf + fy * yf + ph).cos();
            }
            v += 0.35 * (texture.get(x, y) as f64 - 128.0);
            v += 0.12 * (fine.get(x, y) as f64 - 128.0);
            for &(cx, cy, rx, ry, delta) in &objects {
                let dx = (xf - cx) / rx;
                let dy = (yf - cy) / ry;
                if dx * dx + dy * dy < 1.0 {
                    v += delta;
                }
            }
            p.set(x, y, v.round().clamp(0.0, 255.0) as i32);
        }
    }
    p
}

/// Multi-octave value noise in `0..=255`: random lattice values, bilinear
/// interpolation, halving cell size per octave.
fn value_noise(width: usize, height: usize, base_log2_cell: u32, rng: &mut Rng) -> Plane<i32> {
    let mut acc = vec![0.0f64; width * height];
    let mut amp = 1.0;
    let mut total_amp = 0.0;
    for octave in 0..3u32 {
        let cell = 1usize << base_log2_cell.saturating_sub(octave).max(1);
        let gw = width / cell + 2;
        let gh = height / cell + 2;
        let grid: Vec<f64> = (0..gw * gh).map(|_| rng.f64()).collect();
        for y in 0..height {
            let gy = y / cell;
            let fy = (y % cell) as f64 / cell as f64;
            for x in 0..width {
                let gx = x / cell;
                let fx = (x % cell) as f64 / cell as f64;
                let v00 = grid[gy * gw + gx];
                let v10 = grid[gy * gw + gx + 1];
                let v01 = grid[(gy + 1) * gw + gx];
                let v11 = grid[(gy + 1) * gw + gx + 1];
                let v = v00 * (1.0 - fx) * (1.0 - fy)
                    + v10 * fx * (1.0 - fy)
                    + v01 * (1.0 - fx) * fy
                    + v11 * fx * fy;
                acc[y * width + x] += amp * v;
            }
        }
        total_amp += amp;
        amp *= 0.5;
    }
    let mut p = Plane::<i32>::new(width, height);
    for y in 0..height {
        for x in 0..width {
            let v = acc[y * width + x] / total_amp;
            p.set(x, y, (v * 255.0).round() as i32);
        }
    }
    p
}

/// Simple horizontal gradient image (deterministic, no RNG) for smoke tests.
pub fn gradient(width: usize, height: usize) -> Image {
    Image::gray8(Plane::from_fn(width, height, |x, _| {
        ((x * 255) / width.max(1)) as i32
    }))
}

/// Checkerboard with `cell`-sized squares — a worst case for wavelet coders,
/// useful for stressing Tier-1 bit-plane coding.
pub fn checkerboard(width: usize, height: usize, cell: usize) -> Image {
    let cell = cell.max(1);
    Image::gray8(Plane::from_fn(width, height, |x, y| {
        if ((x / cell) + (y / cell)).is_multiple_of(2) {
            230
        } else {
            25
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes_are_squares() {
        for k in PAPER_SIZES_KPIXEL {
            let side = side_for_kpixels(k);
            assert_eq!(side * side, k * 1024);
        }
        assert_eq!(side_for_kpixels(256), 512);
        assert_eq!(side_for_kpixels(16384), 4096);
    }

    #[test]
    fn natural_is_deterministic() {
        let a = natural_gray(64, 48, 7);
        let b = natural_gray(64, 48, 7);
        assert_eq!(a, b);
        let c = natural_gray(64, 48, 8);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn natural_range_and_variation() {
        let img = natural_gray(128, 128, 3);
        let p = img.component(0);
        let mut min = i32::MAX;
        let mut max = i32::MIN;
        for v in p.samples() {
            min = min.min(v);
            max = max.max(v);
        }
        assert!(min >= 0 && max <= 255);
        assert!(
            max - min > 50,
            "image should have contrast, got {min}..{max}"
        );
    }

    #[test]
    fn natural_is_locally_correlated() {
        // Natural-like images have small average horizontal differences
        // compared to their global dynamic range.
        let img = natural_gray(256, 256, 1);
        let p = img.component(0);
        let mut diff_sum = 0i64;
        let mut n = 0i64;
        for y in 0..p.height() {
            let row = p.row(y);
            for x in 1..p.width() {
                diff_sum += i64::from((row[x] - row[x - 1]).abs());
                n += 1;
            }
        }
        let mean_diff = diff_sum as f64 / n as f64;
        assert!(
            mean_diff < 20.0,
            "mean |dx| {mean_diff} too large for natural-like"
        );
    }

    #[test]
    fn rgb_components_share_structure() {
        let img = natural_rgb(64, 64, 5);
        assert_eq!(img.num_components(), 3);
        // All components in range.
        for c in 0..3 {
            for v in img.component(c).samples() {
                assert!((0..=255).contains(&v));
            }
        }
    }

    #[test]
    fn checkerboard_alternates() {
        let img = checkerboard(8, 8, 2);
        let p = img.component(0);
        assert_eq!(p.get(0, 0), 230);
        assert_eq!(p.get(2, 0), 25);
        assert_eq!(p.get(2, 2), 230);
    }

    #[test]
    fn gradient_monotone() {
        let img = gradient(100, 2);
        let row = img.component(0).row(0);
        for pair in row.windows(2) {
            assert!(pair[1] >= pair[0]);
        }
    }
}
