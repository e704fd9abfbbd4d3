//! Stage naming and reporting shared by encoder and decoder.

/// Canonical stage names, matching the paper's Fig. 3 runtime breakdown.
pub mod stage {
    /// Reading/writing raw image pixels.
    pub const IMAGE_IO: &str = "image I/O";
    /// Buffer allocation, tiling, DC level shift and sample-type conversion
    /// (on decode: the output pass, which also rounds and clamps).
    pub const SETUP: &str = "pipeline setup";
    /// RCT/ICT color transform.
    pub const INTER_COMPONENT: &str = "inter-component transform";
    /// The wavelet transform.
    pub const INTRA_COMPONENT: &str = "intra-component transform";
    /// Scalar quantization (lossy path only).
    pub const QUANTIZATION: &str = "quantization";
    /// EBCOT Tier-1 code-block coding.
    pub const TIER1: &str = "tier-1 coding";
    /// PCRD rate allocation.
    pub const RD_ALLOCATION: &str = "R/D allocation";
    /// Packet header generation / parsing.
    pub const TIER2: &str = "tier-2 coding";
    /// Codestream marker assembly / parsing.
    pub const BITSTREAM_IO: &str = "bitstream I/O";

    /// All stages in pipeline order.
    pub const ALL: [&str; 9] = [
        IMAGE_IO,
        SETUP,
        INTER_COMPONENT,
        INTRA_COMPONENT,
        QUANTIZATION,
        TIER1,
        RD_ALLOCATION,
        TIER2,
        BITSTREAM_IO,
    ];

    /// Stages the paper identifies as parallelizable with little effort.
    pub const PARALLEL: [&str; 3] = [INTRA_COMPONENT, QUANTIZATION, TIER1];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_stages_are_a_subset() {
        for s in stage::PARALLEL {
            assert!(stage::ALL.contains(&s));
        }
    }
}
