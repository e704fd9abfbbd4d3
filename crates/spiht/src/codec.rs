//! The SPIHT coding engine: sorting and refinement passes over LIP/LIS/LSP.

use crate::bitio::{BudgetBitWriter, ExactBitReader};
use crate::tree::{children, DescendantMax};
use pj2k_dwt::{forward_53, inverse_53, VerticalStrategy};
use pj2k_image::transform::{dc_level_shift_forward, dc_level_shift_inverse};
use pj2k_image::{Image, Plane};
use pj2k_parutil::Exec;

/// SPIHT codec failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpihtError(pub String);

impl std::fmt::Display for SpihtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spiht error: {}", self.0)
    }
}

impl std::error::Error for SpihtError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SetKind {
    /// All descendants.
    A,
    /// Descendants excluding children.
    B,
}

/// Encode a grayscale, square, power-of-two image at `bpp` bits per pixel.
///
/// # Errors
/// Rejects non-square, non-dyadic, or multi-component images.
pub fn encode(img: &Image, levels: u8, bpp: f64) -> Result<Vec<u8>, SpihtError> {
    let n = img.width();
    if img.num_components() != 1 {
        return Err(SpihtError("SPIHT comparator is grayscale-only".into()));
    }
    if img.height() != n || !n.is_power_of_two() || n < 4 {
        return Err(SpihtError(format!(
            "image must be square power-of-two, got {}x{}",
            n,
            img.height()
        )));
    }
    let levels = levels.clamp(1, (n.trailing_zeros() as u8).saturating_sub(1));
    let s = n >> levels;
    debug_assert!(s >= 2);

    // Wavelet transform (shared 5/3).
    let mut work = img.clone();
    dc_level_shift_forward(&mut work);
    let mut plane = work.component(0).clone();
    forward_53(
        &mut plane,
        levels,
        VerticalStrategy::DEFAULT_STRIP,
        &Exec::SEQ,
    );

    let mag: Vec<u32> = (0..n * n)
        .map(|i| plane.get(i % n, i / n).unsigned_abs())
        .collect();
    let neg: Vec<bool> = (0..n * n).map(|i| plane.get(i % n, i / n) < 0).collect();
    let dm = DescendantMax::build(&mag, n, s);
    let max_mag = *mag.iter().max().unwrap();
    let n_start: i32 = if max_mag == 0 {
        -1
    } else {
        (31 - max_mag.leading_zeros()) as i32
    };

    let budget_bits = (bpp * (n * n) as f64).max(0.0) as u64;
    let mut w = BudgetBitWriter::new(budget_bits);

    // State lists.
    let mut lip: Vec<(usize, usize)> = Vec::new();
    let mut lis: Vec<(usize, usize, SetKind)> = Vec::new();
    let mut lsp: Vec<(usize, usize)> = Vec::new();
    for y in 0..s {
        for x in 0..s {
            lip.push((x, y));
            if children(x, y, n, s).is_some() {
                lis.push((x, y, SetKind::A));
            }
        }
    }

    let sig = |m: u32, plane: i32| -> u8 { u8::from(plane >= 0 && m >> plane != 0) };

    let mut plane_n = n_start;
    'outer: while plane_n >= 0 {
        let t = plane_n;
        let lsp_before = lsp.len();
        // --- sorting pass: LIP --------------------------------------------
        let mut new_lip = Vec::with_capacity(lip.len());
        for &(x, y) in &lip {
            let m = mag[y * n + x];
            let b = sig(m, t);
            if !w.put(b) {
                break 'outer;
            }
            if b == 1 {
                if !w.put(u8::from(neg[y * n + x])) {
                    break 'outer;
                }
                lsp.push((x, y));
            } else {
                new_lip.push((x, y));
            }
        }
        lip = new_lip;
        // --- sorting pass: LIS --------------------------------------------
        // Entries appended during the pass are processed within the same
        // pass; retained entries move to `next_lis` (O(1) "removal").
        let mut next_lis: Vec<(usize, usize, SetKind)> = Vec::with_capacity(lis.len());
        let mut i = 0;
        while i < lis.len() {
            let (x, y, kind) = lis[i];
            i += 1;
            match kind {
                SetKind::A => {
                    let b = sig(dm.d(x, y), t);
                    if !w.put(b) {
                        break 'outer; // budget exhausted: encoder state is final
                    }
                    if b == 1 {
                        let kids = children(x, y, n, s).expect("type-A entries have children");
                        let mut aborted = false;
                        for (cx, cy) in kids {
                            let cm = mag[cy * n + cx];
                            let cb = sig(cm, t);
                            if !w.put(cb) {
                                aborted = true;
                                break;
                            }
                            if cb == 1 {
                                if !w.put(u8::from(neg[cy * n + cx])) {
                                    aborted = true;
                                    break;
                                }
                                lsp.push((cx, cy));
                            } else {
                                lip.push((cx, cy));
                            }
                        }
                        if aborted {
                            break 'outer;
                        }
                        // L(x, y) nonempty iff grandchildren exist.
                        if kids
                            .iter()
                            .any(|&(cx, cy)| children(cx, cy, n, s).is_some())
                        {
                            lis.push((x, y, SetKind::B));
                        }
                    } else {
                        next_lis.push((x, y, kind));
                    }
                }
                SetKind::B => {
                    let b = sig(dm.l(x, y), t);
                    if !w.put(b) {
                        break 'outer; // budget exhausted: encoder state is final
                    }
                    if b == 1 {
                        for (cx, cy) in children(x, y, n, s).expect("type-B has children") {
                            lis.push((cx, cy, SetKind::A));
                        }
                    } else {
                        next_lis.push((x, y, kind));
                    }
                }
            }
        }
        lis = next_lis;
        // --- refinement pass -----------------------------------------------
        for &(x, y) in &lsp[..lsp_before] {
            let bit = ((mag[y * n + x] >> t) & 1) as u8;
            if !w.put(bit) {
                break 'outer;
            }
        }
        plane_n -= 1;
    }

    let bit_len = w.bit_len();
    let payload = w.finish();
    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(b"SPHT");
    out.extend_from_slice(&(n as u32).to_be_bytes());
    out.push(levels);
    out.push(n_start.max(0) as u8);
    out.push(u8::from(n_start >= 0));
    out.extend_from_slice(&bit_len.to_be_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Decode a SPIHT stream (possibly truncated at any byte).
///
/// # Errors
/// Returns [`SpihtError`] on malformed headers.
pub fn decode(data: &[u8]) -> Result<Image, SpihtError> {
    if data.len() < 19 || &data[..4] != b"SPHT" {
        return Err(SpihtError("bad header".into()));
    }
    let n = u32::from_be_bytes(data[4..8].try_into().unwrap()) as usize;
    let levels = data[8];
    let n_start = i32::from(data[9]);
    let nonzero = data[10] != 0;
    let bit_len = u64::from_be_bytes(data[11..19].try_into().unwrap());
    if !n.is_power_of_two() || !(4..=16384).contains(&n) || levels == 0 || n >> levels < 2 {
        return Err(SpihtError("bad geometry".into()));
    }
    let s = n >> levels;
    let mut r = ExactBitReader::new(&data[19..], bit_len);

    let mut mag = vec![0u32; n * n];
    let mut neg = vec![false; n * n];
    // Plane of each coefficient's most recent decoded bit (for the
    // per-coefficient midpoint reconstruction below).
    let mut known = vec![0u8; n * n];
    let mut lip: Vec<(usize, usize)> = Vec::new();
    let mut lis: Vec<(usize, usize, SetKind)> = Vec::new();
    let mut lsp: Vec<(usize, usize)> = Vec::new();
    for y in 0..s {
        for x in 0..s {
            lip.push((x, y));
            if children(x, y, n, s).is_some() {
                lis.push((x, y, SetKind::A));
            }
        }
    }

    let mut plane_n = if nonzero { n_start } else { -1 };
    'outer: while plane_n >= 0 {
        let t = plane_n as u32;
        let lsp_before = lsp.len();
        let mut new_lip = Vec::with_capacity(lip.len());
        for &(x, y) in &lip {
            let b = match r.get() {
                Some(b) => b,
                None => break 'outer, // decoding stops for good; LIP state is moot
            };
            if b == 1 {
                let sgn = match r.get() {
                    Some(s) => s,
                    None => break 'outer,
                };
                mag[y * n + x] = 1 << t;
                known[y * n + x] = t as u8;
                neg[y * n + x] = sgn == 1;
                lsp.push((x, y));
            } else {
                new_lip.push((x, y));
            }
        }
        lip = new_lip;
        let mut next_lis: Vec<(usize, usize, SetKind)> = Vec::with_capacity(lis.len());
        let mut i = 0;
        let mut exhausted = false;
        while i < lis.len() {
            let (x, y, kind) = lis[i];
            i += 1;
            match kind {
                SetKind::A => {
                    let b = match r.get() {
                        Some(b) => b,
                        None => {
                            exhausted = true;
                            break;
                        }
                    };
                    if b == 1 {
                        let kids = children(x, y, n, s).expect("type-A entries have children");
                        let mut aborted = false;
                        for (cx, cy) in kids {
                            let cb = match r.get() {
                                Some(b) => b,
                                None => {
                                    aborted = true;
                                    break;
                                }
                            };
                            if cb == 1 {
                                let sgn = match r.get() {
                                    Some(s) => s,
                                    None => {
                                        aborted = true;
                                        break;
                                    }
                                };
                                mag[cy * n + cx] = 1 << t;
                                known[cy * n + cx] = t as u8;
                                neg[cy * n + cx] = sgn == 1;
                                lsp.push((cx, cy));
                            } else {
                                lip.push((cx, cy));
                            }
                        }
                        if aborted {
                            exhausted = true;
                            break;
                        }
                        if kids
                            .iter()
                            .any(|&(cx, cy)| children(cx, cy, n, s).is_some())
                        {
                            lis.push((x, y, SetKind::B));
                        }
                    } else {
                        next_lis.push((x, y, kind));
                    }
                }
                SetKind::B => {
                    let b = match r.get() {
                        Some(b) => b,
                        None => {
                            exhausted = true;
                            break;
                        }
                    };
                    if b == 1 {
                        for (cx, cy) in children(x, y, n, s).expect("type-B has children") {
                            lis.push((cx, cy, SetKind::A));
                        }
                    } else {
                        next_lis.push((x, y, kind));
                    }
                }
            }
        }
        lis = next_lis;
        if exhausted {
            break 'outer;
        }
        for &(x, y) in &lsp[..lsp_before] {
            let bit = match r.get() {
                Some(b) => b,
                None => break 'outer,
            };
            mag[y * n + x] |= u32::from(bit) << t;
            known[y * n + x] = t as u8;
        }
        plane_n -= 1;
    }

    // Per-coefficient midpoint reconstruction: each magnitude is known down
    // to the plane of its last decoded bit.
    let mut plane = Plane::<i32>::new(n, n);
    for y in 0..n {
        for x in 0..n {
            let m = mag[y * n + x];
            if m != 0 {
                let k = known[y * n + x];
                let half = if k > 0 { 1u32 << (k - 1) } else { 0 };
                let v = (m + half) as i32;
                plane.set(x, y, if neg[y * n + x] { -v } else { v });
            }
        }
    }
    inverse_53(
        &mut plane,
        levels,
        VerticalStrategy::DEFAULT_STRIP,
        &Exec::SEQ,
    );
    let mut img = Image::gray8(plane);
    dc_level_shift_inverse(&mut img);
    img.clamp_to_depth();
    Ok(img)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pj2k_image::metrics::psnr;
    use pj2k_testkit::synth;

    #[test]
    fn high_rate_reconstruction_is_good() {
        let img = synth::natural_gray(64, 64, 3);
        let bytes = encode(&img, 4, 4.0).unwrap();
        let out = decode(&bytes).unwrap();
        let q = psnr(&img, &out);
        assert!(q > 35.0, "4 bpp psnr {q}");
    }

    #[test]
    fn rate_distortion_is_monotone() {
        let img = synth::natural_gray(128, 128, 4);
        let mut prev = 0.0;
        for bpp in [0.125, 0.5, 1.0, 2.0] {
            let bytes = encode(&img, 5, bpp).unwrap();
            assert!(
                bytes.len() <= (bpp * 128.0 * 128.0 / 8.0) as usize + 32,
                "rate overshoot at {bpp}: {}",
                bytes.len()
            );
            let out = decode(&bytes).unwrap();
            let q = psnr(&img, &out);
            assert!(q > prev, "bpp {bpp}: {q} <= {prev}");
            prev = q;
        }
        assert!(prev > 28.0, "2 bpp psnr {prev}");
    }

    #[test]
    fn lossless_when_budget_huge() {
        // 5/3 is reversible: with unlimited budget SPIHT decodes exactly.
        let img = synth::natural_gray(32, 32, 9);
        let bytes = encode(&img, 3, 64.0).unwrap();
        let out = decode(&bytes).unwrap();
        assert_eq!(pj2k_image::metrics::max_abs_error(&img, &out), 0);
    }

    #[test]
    fn flat_image_codes_in_few_bits() {
        let img = Image::gray8(Plane::from_fn(64, 64, |_, _| 77));
        let bytes = encode(&img, 4, 8.0).unwrap();
        let out = decode(&bytes).unwrap();
        assert_eq!(pj2k_image::metrics::max_abs_error(&img, &out), 0);
        assert!(bytes.len() < 1200, "{} bytes", bytes.len());
    }

    #[test]
    fn zero_image_roundtrip() {
        let img = Image::gray8(Plane::new(16, 16));
        let bytes = encode(&img, 2, 1.0).unwrap();
        let out = decode(&bytes).unwrap();
        // All-zero *after DC shift* would be gray 128; zero input has
        // magnitude 128 everywhere, so just check exactness at high rate.
        let bytes2 = encode(&img, 2, 32.0).unwrap();
        let out2 = decode(&bytes2).unwrap();
        assert_eq!(pj2k_image::metrics::max_abs_error(&img, &out2), 0);
        let _ = out;
    }

    #[test]
    fn truncation_at_any_byte_decodes() {
        let img = synth::natural_gray(32, 32, 5);
        let bytes = encode(&img, 3, 2.0).unwrap();
        for cut in (20..bytes.len()).step_by(13) {
            let mut data = bytes[..cut].to_vec();
            // keep header valid but lie about nothing: bit_len > available
            // bits is clamped by the reader.
            let out = decode(&data).unwrap();
            assert_eq!(out.width(), 32);
            data.clear();
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let rgb = synth::natural_rgb(32, 32, 1);
        assert!(encode(&rgb, 3, 1.0).is_err());
        let rect = synth::natural_gray(32, 16, 1);
        assert!(encode(&rect, 3, 1.0).is_err());
        let npo2 = synth::natural_gray(48, 48, 1);
        assert!(encode(&npo2, 3, 1.0).is_err());
        assert!(decode(b"not spiht").is_err());
    }
}
