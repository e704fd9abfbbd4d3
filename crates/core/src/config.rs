//! Encoder configuration: wavelet, code-blocks, rate control, tiling, and
//! the two axes the paper studies — parallelization mode and
//! vertical-filtering strategy.

use pj2k_dwt::Wavelet;
pub use pj2k_dwt::{SimdMode, SimdTier};
pub use pj2k_ebcot::{Tier1Engine, Tier1Options};

/// How (and how wide) the codec runs in parallel.
///
/// `WorkerPool` covers both of the paper's implementations: the JJ2000
/// scheme (explicit threads; Tier-1 code-blocks handed out in the paper's
/// staggered round-robin) and the Jasper/OpenMP static loop split, which is the
/// contiguous-range [`Exec`](pj2k_parutil::Exec) the DWT and quantization
/// loops run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelMode {
    /// Single-threaded reference execution.
    Sequential,
    /// Explicit scoped worker threads with static schedules.
    WorkerPool {
        /// Worker thread count (>= 1).
        workers: usize,
    },
}

impl ParallelMode {
    /// Number of workers this mode uses.
    pub fn workers(&self) -> usize {
        match self {
            ParallelMode::Sequential => 1,
            ParallelMode::WorkerPool { workers } => (*workers).max(1),
        }
    }

    /// The matching static-range executor for DWT/quantization loops.
    pub(crate) fn exec(&self) -> pj2k_parutil::Exec {
        match self {
            ParallelMode::Sequential => pj2k_parutil::Exec::SEQ,
            ParallelMode::WorkerPool { workers } => pj2k_parutil::Exec::threads(*workers),
        }
    }
}

/// Vertical wavelet-filtering strategy (the paper's §3.2).
///
/// The paper's other fix, padding the width off the power of two, is a
/// plane layout (`Plane::with_stride`), not a strategy: the figure
/// binaries measure it on the DWT directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterStrategy {
    /// Original column-at-a-time filtering (cache-hostile on power-of-two
    /// pitches), the paper's baseline (`oracle` builds only).
    #[cfg(feature = "oracle")]
    Naive,
    /// Strip filtering: several adjacent columns per processor (the paper's
    /// preferred fix).
    Strip,
}

impl FilterStrategy {
    pub(crate) fn vertical(&self) -> pj2k_dwt::VerticalStrategy {
        match self {
            #[cfg(feature = "oracle")]
            FilterStrategy::Naive => pj2k_dwt::VerticalStrategy::Naive,
            FilterStrategy::Strip => pj2k_dwt::VerticalStrategy::DEFAULT_STRIP,
        }
    }
}

/// Formerly selected between barrier-separated and per-level overlapped
/// stage sequencing. **Inert**: the encoder and the decoder each run one
/// sequence (DESIGN.md §10, §15) and ignore the value — both variants give
/// the same bytes and pixels, pinned by a test. The enum and the two
/// `overlap` fields survive only because `benchmark/README.md` pins them;
/// the change to the benchmark that unpins `overlap`/`StageOverlap`
/// removes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageOverlap {
    /// Accepted and ignored.
    Barriered,
    /// Accepted and ignored.
    Pipelined,
}

/// A rectangular region of interest in image pixel coordinates.
///
/// Coded with the MAXSHIFT method (ISO 15444-1 Annex H): quantized
/// coefficients whose wavelet-domain footprint touches the region are
/// scaled up so every ROI bit-plane precedes every background bit-plane;
/// the decoder separates them by magnitude alone, so no mask is
/// transmitted. When the full shift would overflow the coder's 31
/// bit-planes, the residual shift is applied as a *downshift* of the
/// background (coarser background, still exactly decodable) — the
/// generalization is signalled in the tile header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Roi {
    /// Left pixel column.
    pub x0: usize,
    /// Top pixel row.
    pub y0: usize,
    /// Width in pixels.
    pub w: usize,
    /// Height in pixels.
    pub h: usize,
}

/// Rate control policy.
#[derive(Debug, Clone, PartialEq)]
pub enum RateControl {
    /// Include every coding pass (exact reconstruction with
    /// [`Wavelet::Reversible53`]); a single quality layer.
    Lossless,
    /// PCRD-optimized truncation to cumulative bit-per-pixel targets, one
    /// quality layer per entry (strictly increasing).
    TargetBpp(Vec<f64>),
}

/// Full encoder configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EncoderConfig {
    /// Filter bank. The paper's default is the 9/7 ("7/9-biorthogonal").
    pub wavelet: Wavelet,
    /// Decomposition levels (paper default: 5).
    pub levels: u8,
    /// Code-block width and height (paper default: 64x64, \<= 4096
    /// coefficients).
    pub code_block: (usize, usize),
    /// Rate control / layering.
    pub rate: RateControl,
    /// Base quantization step for the 9/7 path, divided by each subband's
    /// L2 synthesis gain. Ignored by the reversible path.
    pub base_step: f64,
    /// Optional tiling (tile width, tile height). `None` transforms the
    /// whole image — the paper's recommended configuration.
    pub tiles: Option<(usize, usize)>,
    /// Parallel execution mode.
    pub parallel: ParallelMode,
    /// Vertical filtering strategy. The product build has one value,
    /// [`FilterStrategy::Strip`], which runs the decoder's fused lifting
    /// kernels; `oracle` builds add `Naive`, the paper's scalar column
    /// walker. Every value gives the same codestream.
    pub filter: FilterStrategy,
    /// SIMD tier for the lifting kernels: runtime-detected best tier by
    /// default, a forced tier for ablation, or pure scalar. Every tier
    /// produces bit-identical coefficients (asserted in tests), so this
    /// knob never changes the codestream.
    pub simd: SimdMode,
    /// Inert, kept for `benchmark/`: see [`StageOverlap`]. The encoder
    /// runs DWT, quantization and Tier-1 one after the other whatever this
    /// says.
    pub overlap: StageOverlap,
    /// Tier-1 coding style: selective arithmetic bypass, off by default.
    /// Signalled in the codestream header.
    pub tier1: Tier1Options,
    /// Tier-1 coding engine. The product build has one, the packed
    /// flag-word engine; `oracle` builds add the reference engine it
    /// replaced, which produces bit-identical codestreams (asserted in
    /// tests), so this knob never changes the output.
    pub tier1_engine: Tier1Engine,
    /// Optional region of interest, prioritized with MAXSHIFT scaling.
    pub roi: Option<Roi>,
}

impl Default for EncoderConfig {
    /// The paper's coding defaults — 5-level 9/7, 64x64 code-blocks, no
    /// tiling, sequential execution, lossy at 1 bpp — on the production
    /// wavelet kernels: strip filtering with fused lifting, the transform
    /// the decoder runs. The paper's naive baseline is `filter: Naive`
    /// (`oracle` builds only).
    // AUDIT(hot): config construction — once per encoder, setup-time
    // (pulled into the decode closure only via approximate call matching).
    fn default() -> Self {
        Self {
            wavelet: Wavelet::Irreversible97,
            levels: 5,
            code_block: (64, 64),
            rate: RateControl::TargetBpp(vec![1.0]),
            base_step: 1.0 / 8.0,
            tiles: None,
            parallel: ParallelMode::Sequential,
            filter: FilterStrategy::Strip,
            simd: SimdMode::Auto,
            overlap: StageOverlap::Barriered,
            tier1: Tier1Options::default(),
            tier1_engine: Tier1Engine::Bitplane,
            roi: None,
        }
    }
}

/// Configuration validation failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid encoder configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl EncoderConfig {
    /// Validate the configuration.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] describing the first violated constraint.
    // AUDIT(hot): once per encoder construction; every format! is a cold
    // invalid-config error path.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let (cw, ch) = self.code_block;
        if !cw.is_power_of_two() || !ch.is_power_of_two() {
            return Err(ConfigError(format!(
                "code-block dimensions must be powers of two, got {cw}x{ch}"
            )));
        }
        if !(4..=1024).contains(&cw) || !(4..=1024).contains(&ch) {
            return Err(ConfigError(format!(
                "code-block side out of range: {cw}x{ch}"
            )));
        }
        if cw * ch > 4096 {
            return Err(ConfigError(format!(
                "code-block area {cw}x{ch} exceeds 4096 coefficients"
            )));
        }
        if self.levels > 12 {
            return Err(ConfigError(format!(
                "{} decomposition levels (max 12)",
                self.levels
            )));
        }
        if !(self.base_step.is_finite() && self.base_step > 0.0) {
            return Err(ConfigError(format!(
                "base_step must be positive, got {}",
                self.base_step
            )));
        }
        if let Some((tw, th)) = self.tiles {
            if tw == 0 || th == 0 {
                return Err(ConfigError("tile dimensions must be positive".into()));
            }
        }
        if let Some(roi) = self.roi {
            if roi.w == 0 || roi.h == 0 {
                return Err(ConfigError("ROI must have positive area".into()));
            }
        }
        match &self.rate {
            RateControl::Lossless => {
                if self.wavelet == Wavelet::Irreversible97 {
                    return Err(ConfigError(
                        "lossless coding requires the reversible 5/3 wavelet".into(),
                    ));
                }
            }
            RateControl::TargetBpp(rates) => {
                if rates.is_empty() {
                    return Err(ConfigError("at least one layer rate required".into()));
                }
                for w in rates.windows(2) {
                    if w[0] >= w[1] {
                        return Err(ConfigError(format!(
                            "layer rates must strictly increase: {} then {}",
                            w[0], w[1]
                        )));
                    }
                }
                if rates.iter().any(|r| !(r.is_finite() && *r > 0.0)) {
                    return Err(ConfigError("layer rates must be positive".into()));
                }
            }
        }
        Ok(())
    }

    /// Number of quality layers this configuration produces.
    pub fn num_layers(&self) -> usize {
        match &self.rate {
            RateControl::Lossless => 1,
            RateControl::TargetBpp(r) => r.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper() {
        let cfg = EncoderConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.levels, 5);
        assert_eq!(cfg.code_block, (64, 64));
        assert_eq!(cfg.wavelet, Wavelet::Irreversible97);
        assert!(cfg.tiles.is_none());
    }

    #[test]
    fn rejects_bad_code_blocks() {
        let mut cfg = EncoderConfig {
            code_block: (48, 64),
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        cfg.code_block = (128, 64); // 8192 coefficients
        assert!(cfg.validate().is_err());
        cfg.code_block = (2, 4);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_lossless_with_97() {
        let cfg = EncoderConfig {
            rate: RateControl::Lossless,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let ok = EncoderConfig {
            rate: RateControl::Lossless,
            wavelet: Wavelet::Reversible53,
            ..Default::default()
        };
        ok.validate().unwrap();
    }

    #[test]
    fn rejects_non_increasing_layer_rates() {
        let cfg = EncoderConfig {
            rate: RateControl::TargetBpp(vec![1.0, 0.5]),
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg2 = EncoderConfig {
            rate: RateControl::TargetBpp(vec![]),
            ..Default::default()
        };
        assert!(cfg2.validate().is_err());
    }

    #[test]
    fn parallel_mode_workers() {
        assert_eq!(ParallelMode::Sequential.workers(), 1);
        assert_eq!(ParallelMode::WorkerPool { workers: 4 }.workers(), 4);
        assert_eq!(ParallelMode::WorkerPool { workers: 0 }.workers(), 1);
    }
}
