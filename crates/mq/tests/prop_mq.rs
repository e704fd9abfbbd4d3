//! Property tests: the MQ coder must round-trip any decision stream over
//! any context usage pattern, and its output must be marker-free.

use pj2k_mq::{CtxState, MqDecoder, MqEncoder};
use pj2k_testkit::{cases, Rng};

fn arb_stream(rng: &mut Rng) -> Vec<(usize, u8)> {
    let len = rng.range(0..4000);
    rng.vec(len, |r| (r.range(0usize..19), r.range(0u8..2)))
}

const CASES: u32 = 128;

#[test]
fn roundtrip_any_stream() {
    cases(CASES, |rng| {
        let stream = arb_stream(rng);
        let mut enc_ctx = [CtxState::default(); 19];
        let mut enc = MqEncoder::new();
        for &(c, d) in &stream {
            enc.encode(&mut enc_ctx[c], d);
        }
        let bytes = enc.flush();
        let mut dec_ctx = [CtxState::default(); 19];
        let mut dec = MqDecoder::new(&bytes);
        for (i, &(c, d)) in stream.iter().enumerate() {
            assert_eq!(dec.decode(&mut dec_ctx[c]), d, "decision {}", i);
        }
    });
}

/// Initial context index choices must not break the roundtrip.
#[test]
fn roundtrip_with_custom_initial_states() {
    cases(CASES, |rng| {
        let len = rng.range(0..1500);
        let stream = rng.vec(len, |r| (r.range(0usize..3), r.range(0u8..2)));
        let init = [(); 3].map(|()| CtxState::new(rng.range(0u8..47)));
        let mut enc_ctx = init;
        let mut enc = MqEncoder::new();
        for &(c, d) in &stream {
            enc.encode(&mut enc_ctx[c], d);
        }
        let bytes = enc.flush();
        let mut dec_ctx = init;
        let mut dec = MqDecoder::new(&bytes);
        for &(c, d) in &stream {
            assert_eq!(dec.decode(&mut dec_ctx[c]), d);
        }
    });
}

/// A terminated segment never contains a marker-range byte pair
/// (0xFF followed by > 0x8F), so segments can be concatenated in
/// packets safely.
#[test]
fn no_marker_pairs() {
    cases(CASES, |rng| {
        let stream = arb_stream(rng);
        let mut ctx = [CtxState::default(); 19];
        let mut enc = MqEncoder::new();
        for &(c, d) in &stream {
            enc.encode(&mut ctx[c], d);
        }
        let bytes = enc.flush();
        for pair in bytes.windows(2) {
            if pair[0] == 0xFF {
                assert!(pair[1] <= 0x8F, "marker {:02X}{:02X}", pair[0], pair[1]);
            }
        }
        assert_ne!(bytes.last().copied(), Some(0xFF), "no trailing 0xFF");
    });
}

/// The upper bound estimate never undershoots the flushed size.
#[test]
fn bytes_upper_bound_holds() {
    cases(CASES, |rng| {
        let stream = arb_stream(rng);
        let mut ctx = [CtxState::default(); 19];
        let mut enc = MqEncoder::new();
        for &(c, d) in &stream {
            enc.encode(&mut ctx[c], d);
        }
        let bound = enc.bytes_upper_bound();
        assert!(enc.flush().len() <= bound);
    });
}

/// Decoding with the wrong byte stream must not panic (garbage in,
/// garbage out — but total).
#[test]
fn decoder_is_total() {
    cases(CASES, |rng| {
        let mut bytes = vec![0u8; rng.range(0..200)];
        rng.fill(&mut bytes);
        let mut ctx = CtxState::default();
        let mut dec = MqDecoder::new(&bytes);
        for _ in 0..1000 {
            let d = dec.decode(&mut ctx);
            assert!(d <= 1);
        }
    });
}

/// Context adaptation compresses a biased stream below 1 bit/decision.
#[test]
fn biased_streams_compress() {
    cases(CASES, |rng| {
        let bias = rng.range(4u32..64);
        let n = 4000u32;
        let mut ctx = CtxState::default();
        let mut enc = MqEncoder::new();
        for i in 0..n {
            enc.encode(&mut ctx, u8::from(i % bias == 0));
        }
        let bytes = enc.flush();
        assert!(
            (bytes.len() as u32) * 8 < n,
            "{} bytes for {} biased decisions",
            bytes.len(),
            n
        );
    });
}
