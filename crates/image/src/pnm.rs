//! Minimal PGM (P5/P2) and PPM (P6/P3) image I/O.
//!
//! Supports 8-bit maxval (<= 255). This is the on-disk interchange format of
//! the harness: the paper's Fig. 4 visual comparison is emitted as PGM crops,
//! and users can feed their own photographic material through these readers.

#![deny(clippy::arithmetic_side_effects, clippy::indexing_slicing)]

use crate::image::Image;
use crate::plane::Plane;
use std::io::{self, BufRead, Write};

/// Largest pixel count (`width * height`) the reader will allocate planes
/// for. A header is a few dozen bytes, so without a cap a tiny malicious
/// file could claim arbitrary dimensions and drive the process out of
/// memory before the (missing) pixel data is ever read.
const MAX_PIXELS: usize = 1 << 28;

/// Read a PGM or PPM image (binary or ASCII variant) from `r`.
///
/// # Errors
/// Returns `InvalidData` on malformed headers, unsupported magic numbers,
/// implausibly large dimensions, maxval > 255, or truncated pixel data.
pub fn read(r: &mut impl BufRead) -> io::Result<Image> {
    let magic = read_token(r)?;
    let (components, binary) = match magic.as_str() {
        "P5" => (1, true),
        "P2" => (1, false),
        "P6" => (3, true),
        "P3" => (3, false),
        other => {
            return Err(invalid(format!("unsupported PNM magic {other:?}")));
        }
    };
    let width: usize = parse_token(r, "width")?;
    let height: usize = parse_token(r, "height")?;
    let maxval: usize = parse_token(r, "maxval")?;
    if width == 0 || height == 0 {
        return Err(invalid("zero image dimension".into()));
    }
    let n = width
        .checked_mul(height)
        .filter(|&n| n <= MAX_PIXELS)
        .ok_or_else(|| invalid(format!("implausible image size {width}x{height}")))?;
    if maxval == 0 || maxval > 255 {
        return Err(invalid(format!("unsupported maxval {maxval}")));
    }
    let mut planes = vec![Plane::<i32>::new(width, height); components];
    if binary {
        // components <= 3 and n <= MAX_PIXELS, so this cannot overflow.
        let mut buf = vec![0u8; n.saturating_mul(components)];
        r.read_exact(&mut buf)?;
        // The buffer holds exactly `height` rows of `width * components`
        // interleaved samples; `components` is 1 or 3 by the magic above.
        let rows = buf.chunks_exact(width.saturating_mul(components));
        match planes.as_mut_slice() {
            [gray] => {
                for (y, src) in rows.enumerate() {
                    for (d, &s) in gray.row_mut(y).iter_mut().zip(src) {
                        *d = i32::from(s);
                    }
                }
            }
            [r, g, b] => {
                for (y, src) in rows.enumerate() {
                    let dst = r.row_mut(y).iter_mut();
                    let dst = dst.zip(g.row_mut(y).iter_mut().zip(b.row_mut(y)));
                    for ((r, (g, b)), s) in dst.zip(src.chunks_exact(3)) {
                        if let &[sr, sg, sb] = s {
                            (*r, *g, *b) = (i32::from(sr), i32::from(sg), i32::from(sb));
                        }
                    }
                }
            }
            _ => {}
        }
    } else {
        for y in 0..height {
            for x in 0..width {
                for plane in planes.iter_mut() {
                    let v: i32 = parse_token(r, "pixel")?;
                    if !(0..=maxval as i32).contains(&v) {
                        return Err(invalid(format!("sample {v} out of range")));
                    }
                    plane.set(x, y, v);
                }
            }
        }
    }
    Ok(Image::new(planes, 8, false))
}

/// Write `img` as binary PGM (1 component) or PPM (3 components).
///
/// Samples are clamped to `0..=255`.
///
/// # Errors
/// Propagates I/O errors; returns `InvalidInput` for component counts other
/// than 1 or 3.
// AUDIT(panic): writer side — operates on an in-memory `Image` this process
// built, never on untrusted bytes.
#[allow(clippy::arithmetic_side_effects)]
pub fn write(w: &mut impl Write, img: &Image) -> io::Result<()> {
    let magic = match img.num_components() {
        1 => "P5",
        3 => "P6",
        n => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("cannot write {n}-component image as PNM"),
            ));
        }
    };
    writeln!(w, "{magic}")?;
    writeln!(w, "{} {}", img.width(), img.height())?;
    writeln!(w, "255")?;
    let byte = |v: &i32| (*v).clamp(0, 255) as u8;
    let row_len = img.width() * img.num_components();
    let mut buf = vec![0u8; row_len * img.height()];
    let rows = buf.chunks_exact_mut(row_len).enumerate();
    match img.components() {
        [gray] => {
            for (y, dst) in rows {
                for (d, s) in dst.iter_mut().zip(gray.row(y)) {
                    *d = byte(s);
                }
            }
        }
        [r, g, b] => {
            for (y, dst) in rows {
                let src = r.row(y).iter().zip(g.row(y).iter().zip(b.row(y)));
                for (d, (r, (g, b))) in dst.chunks_exact_mut(3).zip(src) {
                    d.copy_from_slice(&[byte(r), byte(g), byte(b)]);
                }
            }
        }
        _ => {}
    }
    w.write_all(&buf)
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Read the next whitespace-separated token, skipping `#` comments.
fn read_token(r: &mut impl BufRead) -> io::Result<String> {
    let mut tok = String::new();
    let mut in_comment = false;
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte)? {
            0 => {
                if tok.is_empty() {
                    return Err(invalid("unexpected end of PNM header".into()));
                }
                return Ok(tok);
            }
            _ => {
                // AUDIT(panic): fixed index 0 into the 1-byte read buffer.
                #[allow(clippy::indexing_slicing)]
                let ch = byte[0] as char;
                if in_comment {
                    if ch == '\n' {
                        in_comment = false;
                    }
                } else if ch == '#' && tok.is_empty() {
                    in_comment = true;
                } else if ch.is_ascii_whitespace() {
                    if !tok.is_empty() {
                        return Ok(tok);
                    }
                } else {
                    tok.push(ch);
                }
            }
        }
    }
}

fn parse_token<T: std::str::FromStr>(r: &mut impl BufRead, what: &str) -> io::Result<T> {
    let tok = read_token(r)?;
    tok.parse()
        .map_err(|_| invalid(format!("bad {what} token {tok:?}")))
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(img: &Image) -> Image {
        let mut buf = Vec::new();
        write(&mut buf, img).unwrap();
        read(&mut Cursor::new(buf)).unwrap()
    }

    #[test]
    fn pgm_roundtrip() {
        let img = Image::gray8(Plane::from_fn(5, 3, |x, y| {
            ((x * 50 + y * 17) % 256) as i32
        }));
        assert_eq!(roundtrip(&img), img);
    }

    #[test]
    fn ppm_roundtrip() {
        let img = Image::rgb8(
            Plane::from_fn(4, 2, |x, _| (x * 60) as i32),
            Plane::from_fn(4, 2, |_, y| (y * 100) as i32),
            Plane::from_fn(4, 2, |x, y| ((x + y) * 30) as i32),
        );
        assert_eq!(roundtrip(&img), img);
    }

    #[test]
    fn ascii_pgm_with_comments() {
        let text = "P2\n# a comment\n3 2\n# another\n255\n0 1 2\n10 11 12\n";
        let img = read(&mut Cursor::new(text.as_bytes())).unwrap();
        assert_eq!(img.component(0).row(0), &[0, 1, 2]);
        assert_eq!(img.component(0).row(1), &[10, 11, 12]);
    }

    #[test]
    fn ascii_ppm() {
        let text = "P3 2 1 255  1 2 3  4 5 6";
        let img = read(&mut Cursor::new(text.as_bytes())).unwrap();
        assert_eq!(img.num_components(), 3);
        assert_eq!(img.component(0).row(0), &[1, 4]);
        assert_eq!(img.component(2).row(0), &[3, 6]);
    }

    #[test]
    fn binary_ppm_deinterleaves_rows() {
        let bytes = b"P6 2 2 255\n\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c";
        let img = read(&mut Cursor::new(bytes.as_slice())).unwrap();
        assert_eq!(img.component(0).row(0), &[1, 4]);
        assert_eq!(img.component(1).row(1), &[8, 11]);
        assert_eq!(img.component(2).row(1), &[9, 12]);
        let mut out = Vec::new();
        write(&mut out, &img).unwrap();
        assert_eq!(
            out,
            b"P6\n2 2\n255\n\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c"
        );
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(read(&mut Cursor::new(b"P9 1 1 255 0".as_slice())).is_err());
    }

    #[test]
    fn rejects_big_maxval() {
        assert!(read(&mut Cursor::new(b"P5 1 1 65535 ".as_slice())).is_err());
    }

    #[test]
    fn rejects_truncated_binary() {
        assert!(read(&mut Cursor::new(b"P5 4 4 255 \x00\x01".as_slice())).is_err());
    }

    #[test]
    fn rejects_overflowing_dimensions() {
        // width * height would wrap usize; must be an error, not a panic
        // or a bogus allocation.
        let text = format!("P5 {} {} 255 ", usize::MAX, 3);
        assert!(read(&mut Cursor::new(text.as_bytes())).is_err());
        // Individually plausible but jointly over the pixel cap.
        assert!(read(&mut Cursor::new(b"P5 100000 100000 255 ".as_slice())).is_err());
    }

    #[test]
    fn rejects_malformed_header_tokens() {
        for bad in [
            &b"P5 -3 2 255 "[..],     // negative width
            &b"P5 abc 2 255 "[..],    // non-numeric width
            &b"P5 3 2 xyz "[..],      // non-numeric maxval
            &b"P5 3 2 0 "[..],        // zero maxval
            &b"P5 0 2 255 "[..],      // zero width
            &b"P5 3"[..],             // header ends mid-way
            &b"P2 2 1 255 1 boo"[..], // non-numeric ASCII sample
            &b"P2 2 1 255 1 700"[..], // ASCII sample out of range
            &b"P2 2 1 255 1"[..],     // truncated ASCII samples
        ] {
            assert!(read(&mut Cursor::new(bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn write_clamps_out_of_range() {
        let img = Image::gray8(Plane::from_vec(2, 1, vec![-20, 999]));
        let out = roundtrip(&img);
        assert_eq!(out.component(0).row(0), &[0, 255]);
    }
}
