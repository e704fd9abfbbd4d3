//! The four workloads: what is generated and how it is coded. Why each
//! exists is recorded in `BENCHMARK.json` and the README.

use crate::gen::Preset;

/// Rate arguments handed to `pj2k encode`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rate {
    /// `--bpp R`: irreversible 9/7, PCRD truncation to `R` bits per pixel.
    Bpp(f64),
    /// `--lossless`: reversible 5/3 (+ RCT on RGB), every pass kept.
    Lossless,
}

/// One input file.
#[derive(Debug, Clone)]
pub struct Item {
    pub stem: String,
    pub width: usize,
    pub height: usize,
    /// 1 (PGM) or 3 (PPM).
    pub channels: usize,
}

impl Item {
    pub fn pixels(&self) -> usize {
        self.width * self.height
    }

    /// File name of the input and of the decoded output.
    pub fn pnm_name(&self) -> String {
        let ext = if self.channels == 1 { "pgm" } else { "ppm" };
        format!("{}.{ext}", self.stem)
    }
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub preset: Preset,
    pub rate: Rate,
    pub items: Vec<Item>,
    /// Encode all items with one directory-mode invocation (the `serve`
    /// batch layer) instead of one invocation per item.
    pub batch: bool,
    /// Lossy output below this PSNR fails its check. Pinned a few dB under
    /// the first measured value (see README), so it catches a broken
    /// decode, not a small quality change; `psnr_db` has its own bound.
    pub psnr_floor_db: f64,
}

pub const NAMES: [&str; 4] = [
    "gray2k-lossy",
    "rgb1k-lossless",
    "gray3k-smooth",
    "batch-mixed",
];

fn single(stem: &str, side: usize, channels: usize) -> Vec<Item> {
    vec![Item {
        stem: stem.to_string(),
        width: side,
        height: side,
        channels,
    }]
}

/// The workload called `name`; `smoke` divides every side by 4 and cuts
/// the batch to 12 files, for a quick functional pass whose numbers are
/// never compared with full runs.
pub fn workload(name: &str, smoke: bool) -> Option<Workload> {
    let div = if smoke { 4 } else { 1 };
    Some(match name {
        "gray2k-lossy" => Workload {
            name: "gray2k-lossy",
            preset: Preset::Textured,
            rate: Rate::Bpp(1.0),
            items: single("gray2k", 2048 / div, 1),
            batch: false,
            psnr_floor_db: 40.0,
        },
        "rgb1k-lossless" => Workload {
            name: "rgb1k-lossless",
            preset: Preset::Textured,
            rate: Rate::Lossless,
            items: single("rgb1k", 1024 / div, 3),
            batch: false,
            psnr_floor_db: 99.0,
        },
        "gray3k-smooth" => Workload {
            name: "gray3k-smooth",
            preset: Preset::Smooth,
            rate: Rate::Bpp(0.1),
            items: single("gray3k", 3072 / div, 1),
            batch: false,
            psnr_floor_db: 45.0,
        },
        "batch-mixed" => Workload {
            name: "batch-mixed",
            preset: Preset::Textured,
            rate: Rate::Bpp(1.0),
            // Sides 256/384/512 plus 500x375; two-thirds gray, one-third RGB.
            items: (0..if smoke { 12 } else { 24 })
                .map(|i| {
                    let (width, height) = [(256, 256), (384, 384), (512, 512), (500, 375)][i % 4];
                    Item {
                        stem: format!("img{i:02}"),
                        width: width / div,
                        height: height / div,
                        channels: if i % 3 == 2 { 3 } else { 1 },
                    }
                })
                .collect(),
            batch: true,
            psnr_floor_db: 38.0,
        },
        _ => return None,
    })
}

impl Workload {
    pub fn pixels(&self) -> usize {
        self.items.iter().map(Item::pixels).sum()
    }

    pub fn lossless(&self) -> bool {
        self.rate == Rate::Lossless
    }

    /// The rate arguments of `pj2k encode`.
    pub fn rate_args(&self) -> Vec<String> {
        match self.rate {
            Rate::Bpp(r) => vec!["--bpp".to_string(), format!("{r:?}")],
            Rate::Lossless => vec!["--lossless".to_string()],
        }
    }
}

/// The parallel thread count: `min(cores, 4)`. The paper's headline is a
/// 4-CPU speedup; a row with more threads than cores is never run.
pub fn par_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}
