//! The benchmark's own binary PGM/PPM reader and writer, FNV hash and
//! PSNR, so that output checks share no code with the program under test.

use crate::gen::Raster;
use std::io;
use std::path::Path;

/// Write `img` as binary P5 (1 channel) or P6 (3 channels), maxval 255.
pub fn write(path: &Path, img: &Raster) -> io::Result<()> {
    let magic = if img.channels == 1 { "P5" } else { "P6" };
    let mut bytes = format!("{magic}\n{} {}\n255\n", img.width, img.height).into_bytes();
    bytes.extend_from_slice(&img.data);
    std::fs::write(path, bytes)
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Parse binary P5/P6 with maxval 255: whitespace-separated header tokens,
/// `#` comments, one whitespace byte before the samples.
pub fn parse(bytes: &[u8]) -> io::Result<Raster> {
    let mut pos = 0;
    let mut token = || -> io::Result<&[u8]> {
        loop {
            while bytes.get(pos).is_some_and(u8::is_ascii_whitespace) {
                pos += 1;
            }
            if bytes.get(pos) != Some(&b'#') {
                break;
            }
            while bytes.get(pos).is_some_and(|&b| b != b'\n') {
                pos += 1;
            }
        }
        let start = pos;
        while bytes.get(pos).is_some_and(|b| !b.is_ascii_whitespace()) {
            pos += 1;
        }
        if start == pos {
            return Err(invalid("truncated PNM header"));
        }
        Ok(&bytes[start..pos])
    };
    let channels = match token()? {
        b"P5" => 1,
        b"P6" => 3,
        _ => return Err(invalid("not a binary PGM/PPM")),
    };
    let mut number = || -> io::Result<usize> {
        std::str::from_utf8(token()?)
            .ok()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| invalid("bad PNM header number"))
    };
    let (width, height, maxval) = (number()?, number()?, number()?);
    if maxval != 255 {
        return Err(invalid("maxval is not 255"));
    }
    let len = width
        .checked_mul(height)
        .and_then(|n| n.checked_mul(channels))
        .ok_or_else(|| invalid("PNM dimensions overflow"))?;
    let data = pos
        .checked_add(1)
        .and_then(|start| bytes.get(start..start.checked_add(len)?))
        .ok_or_else(|| invalid("truncated PNM samples"))?;
    Ok(Raster {
        width,
        height,
        channels,
        data: data.to_vec(),
    })
}

/// 64-bit FNV-1a.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Sum of squared sample differences; `None` when the shapes differ.
pub fn squared_error(a: &Raster, b: &Raster) -> Option<u64> {
    if (a.width, a.height, a.channels) != (b.width, b.height, b.channels) {
        return None;
    }
    Some(
        a.data
            .iter()
            .zip(&b.data)
            .map(|(&x, &y)| {
                let d = i64::from(x) - i64::from(y);
                (d * d) as u64
            })
            .sum(),
    )
}

/// PSNR in dB for 8-bit samples from a squared-error sum over `samples`
/// samples, capped at 99 when the error is zero.
pub fn psnr_db(squared_error: u64, samples: usize) -> f64 {
    if squared_error == 0 {
        return 99.0;
    }
    let mse = squared_error as f64 / samples as f64;
    (10.0 * (255.0f64 * 255.0 / mse).log10()).min(99.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_headers_with_comments_and_rejects_short_data() {
        let img = parse(b"P6 # colour\n2 1\n# maxval\n255\n\x01\x02\x03\x04\x05\x06").unwrap();
        assert_eq!((img.width, img.height, img.channels), (2, 1, 3));
        assert_eq!(img.data, [1, 2, 3, 4, 5, 6]);
        assert!(parse(b"P5\n2 2\n255\n\x01\x02\x03").is_err());
        assert!(parse(b"P5\n2 2\n65535\n\x01\x02\x03\x04").is_err());
        assert!(parse(b"P2\n1 1\n255\n1").is_err());
    }

    #[test]
    fn psnr_of_known_errors() {
        let a = parse(b"P5\n2 2\n255\n\x00\x00\x00\x00").unwrap();
        let b = parse(b"P5\n2 2\n255\n\x02\x00\x00\x00").unwrap();
        assert_eq!(squared_error(&a, &a), Some(0));
        assert_eq!(psnr_db(0, 4), 99.0);
        // MSE 1 is 20 log10(255) dB.
        assert_eq!(squared_error(&a, &b), Some(4));
        assert!((psnr_db(4, 4) - 48.1308).abs() < 1e-4);
        let wide = parse(b"P5\n4 1\n255\n\x00\x00\x00\x00").unwrap();
        assert_eq!(squared_error(&a, &wide), None);
    }
}
