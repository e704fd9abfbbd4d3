//! Property tests for the image substrate.

use pj2k_image::transform::{
    dc_level_shift_forward, dc_level_shift_inverse, ict_forward, ict_inverse, rct_forward,
    rct_inverse,
};
use pj2k_image::{pnm, tile, Image, Plane};
use pj2k_testkit::{cases, Rng};
use std::io::Cursor;

fn noise_plane(rng: &mut Rng, w: usize, h: usize) -> Plane<i32> {
    Plane::from_fn(w, h, |_, _| rng.range(0..256))
}

fn arb_gray(rng: &mut Rng) -> Image {
    let (w, h) = (rng.range(1..40), rng.range(1..40));
    Image::gray8(noise_plane(rng, w, h))
}

fn arb_rgb(rng: &mut Rng) -> Image {
    let (w, h) = (rng.range(1..24), rng.range(1..24));
    Image::rgb8(
        noise_plane(rng, w, h),
        noise_plane(rng, w, h),
        noise_plane(rng, w, h),
    )
}

const CASES: u32 = 64;

#[test]
fn pnm_roundtrip_gray() {
    cases(CASES, |rng| {
        let img = arb_gray(rng);
        let mut buf = Vec::new();
        pnm::write(&mut buf, &img).unwrap();
        let back = pnm::read(&mut Cursor::new(buf)).unwrap();
        assert_eq!(back, img);
    });
}

#[test]
fn pnm_roundtrip_rgb() {
    cases(CASES, |rng| {
        let img = arb_rgb(rng);
        let mut buf = Vec::new();
        pnm::write(&mut buf, &img).unwrap();
        let back = pnm::read(&mut Cursor::new(buf)).unwrap();
        assert_eq!(back, img);
    });
}

/// The reversible color transform is exactly invertible on the full
/// post-DC-shift range.
#[test]
fn rct_roundtrip() {
    cases(CASES, |rng| {
        let img = arb_rgb(rng);
        let mut work = img.clone();
        dc_level_shift_forward(&mut work);
        let planes = work.into_components();
        let (mut r, mut g, mut b) = (planes[0].clone(), planes[1].clone(), planes[2].clone());
        let (r0, g0, b0) = (r.clone(), g.clone(), b.clone());
        rct_forward(&mut r, &mut g, &mut b);
        rct_inverse(&mut r, &mut g, &mut b);
        assert_eq!(r, r0);
        assert_eq!(g, g0);
        assert_eq!(b, b0);
    });
}

/// The irreversible color transform round-trips within float noise.
#[test]
fn ict_roundtrip() {
    cases(CASES, |rng| {
        let img = arb_rgb(rng);
        let planes = img.components();
        let mut r = planes[0].map(|v| v as f32);
        let mut g = planes[1].map(|v| v as f32);
        let mut b = planes[2].map(|v| v as f32);
        let (r0, g0, b0) = (r.clone(), g.clone(), b.clone());
        ict_forward(&mut r, &mut g, &mut b);
        ict_inverse(&mut r, &mut g, &mut b);
        for y in 0..img.height() {
            for x in 0..img.width() {
                assert!((r.get(x, y) - r0.get(x, y)).abs() < 1e-2);
                assert!((g.get(x, y) - g0.get(x, y)).abs() < 1e-2);
                assert!((b.get(x, y) - b0.get(x, y)).abs() < 1e-2);
            }
        }
    });
}

#[test]
fn dc_shift_roundtrip() {
    cases(CASES, |rng| {
        let img = arb_gray(rng);
        let mut work = img.clone();
        dc_level_shift_forward(&mut work);
        dc_level_shift_inverse(&mut work);
        assert_eq!(work, img);
    });
}

/// Any tile grid splits and reassembles losslessly.
#[test]
fn tiling_roundtrip() {
    cases(CASES, |rng| {
        let img = arb_gray(rng);
        let tw = rng.range(1usize..48);
        let th = rng.range(1usize..48);
        let grid = tile::TileGrid::new(img.width(), img.height(), tw, th);
        let tiles = tile::split(&img, &grid);
        assert_eq!(tiles.len(), grid.len());
        let back = tile::assemble(&tiles, &grid, 8, false);
        assert_eq!(back, img);
    });
}

/// Crop then blit restores the region.
#[test]
fn plane_geometry_ops() {
    cases(CASES, |rng| {
        let img = arb_gray(rng);
        let p = img.component(0);
        let (w, h) = (p.width(), p.height());
        let crop = p.crop(w / 4, h / 4, w - w / 2, h - h / 2);
        let mut canvas = Plane::<i32>::new(w, h);
        canvas.blit(&crop, w / 4, h / 4);
        for y in h / 4..h / 4 + crop.height() {
            for x in w / 4..w / 4 + crop.width() {
                assert_eq!(canvas.get(x, y), p.get(x, y));
            }
        }
    });
}

/// PNM reader is total on arbitrary bytes (errors, never panics).
#[test]
fn pnm_reader_is_total() {
    cases(CASES, |rng| {
        let mut bytes = vec![0u8; rng.range(0..300)];
        rng.fill(&mut bytes);
        let _ = pnm::read(&mut Cursor::new(bytes));
    });
}
