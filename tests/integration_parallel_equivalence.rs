//! The correctness claim at the heart of a parallelization paper: every
//! parallel configuration must produce the *same* result as sequential
//! execution. For the encoder this is bit-identical codestreams (the DWT
//! splits, quantization splits, and code-block schedules may not change a
//! single bit); for the decoder, bit-identical images.

use pj2k_suite::prelude::*;
use pj2k_testkit::synth;

fn all_modes(workers: usize) -> Vec<ParallelMode> {
    vec![
        ParallelMode::Sequential,
        ParallelMode::WorkerPool { workers },
    ]
}

const FILTERS: [FilterStrategy; 2] = [FilterStrategy::Naive, FilterStrategy::Strip];

#[test]
fn encoder_is_bit_identical_across_all_configurations_97() {
    let img = synth::natural_gray(160, 128, 99);
    let mut reference: Option<Vec<u8>> = None;
    for mode in all_modes(3) {
        for filter in FILTERS {
            let cfg = EncoderConfig {
                rate: RateControl::TargetBpp(vec![0.5, 2.0]),
                parallel: mode,
                filter,
                ..EncoderConfig::default()
            };
            let (bytes, _) = Encoder::new(cfg).unwrap().encode(&img);
            match &reference {
                None => reference = Some(bytes),
                Some(r) => assert_eq!(&bytes, r, "{mode:?} {filter:?} diverged"),
            }
        }
    }
}

#[test]
fn encoder_is_bit_identical_across_all_configurations_53() {
    let img = synth::natural_rgb(96, 96, 123);
    let mut reference: Option<Vec<u8>> = None;
    for mode in all_modes(4) {
        for filter in FILTERS {
            let cfg = EncoderConfig {
                wavelet: Wavelet::Reversible53,
                rate: RateControl::Lossless,
                parallel: mode,
                filter,
                ..EncoderConfig::default()
            };
            let (bytes, _) = Encoder::new(cfg).unwrap().encode(&img);
            match &reference {
                None => reference = Some(bytes),
                Some(r) => assert_eq!(&bytes, r, "{mode:?} {filter:?} diverged"),
            }
        }
    }
}

#[test]
fn worker_counts_do_not_change_the_stream() {
    let img = synth::natural_gray(128, 96, 55);
    let mk = |workers| {
        let cfg = EncoderConfig {
            parallel: ParallelMode::WorkerPool { workers },
            ..EncoderConfig::default()
        };
        Encoder::new(cfg).unwrap().encode(&img).0
    };
    let one = mk(1);
    for workers in [2, 3, 5, 8, 16] {
        assert_eq!(mk(workers), one, "workers={workers}");
    }
}

#[test]
fn decoder_parallelism_is_transparent() {
    let img = synth::natural_gray(144, 144, 31);
    let cfg = EncoderConfig {
        rate: RateControl::TargetBpp(vec![1.5]),
        ..EncoderConfig::default()
    };
    let (bytes, _) = Encoder::new(cfg).unwrap().encode(&img);
    let (reference, _) = Decoder::default().decode(&bytes).unwrap();
    for mode in all_modes(4).into_iter().skip(1) {
        let dec = Decoder {
            parallel: mode,
            ..Decoder::default()
        };
        let (out, _) = dec.decode(&bytes).unwrap();
        assert_eq!(out, reference, "{mode:?}");
    }
}

#[test]
fn tiled_parallel_equivalence() {
    let img = synth::natural_gray(200, 150, 66);
    let mk = |mode| {
        let cfg = EncoderConfig {
            tiles: Some((64, 64)),
            parallel: mode,
            rate: RateControl::TargetBpp(vec![1.0]),
            ..EncoderConfig::default()
        };
        Encoder::new(cfg).unwrap().encode(&img).0
    };
    let seq = mk(ParallelMode::Sequential);
    assert_eq!(seq, mk(ParallelMode::WorkerPool { workers: 3 }));
    assert_eq!(seq, mk(ParallelMode::WorkerPool { workers: 2 }));
}

#[test]
fn report_block_times_are_complete_in_every_mode() {
    // The SMP projection model depends on per-block timings being recorded
    // regardless of the execution mode.
    let img = synth::natural_gray(128, 128, 47);
    for mode in all_modes(3) {
        let cfg = EncoderConfig {
            parallel: mode,
            ..EncoderConfig::default()
        };
        let (_, report) = Encoder::new(cfg).unwrap().encode(&img);
        assert_eq!(report.block_times.len(), report.num_blocks, "{mode:?}");
        assert!(report.block_times.iter().all(|&t| t >= 0.0));
        assert!(report.num_blocks > 0);
    }
}
