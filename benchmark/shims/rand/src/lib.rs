//! Offline stand-in for `rand` 0.8: the surface `pj2k_image::synth` needs
//! to type-check. The benchmark generates its inputs with its own
//! SplitMix64 generator (`benchmark/src/gen.rs`) and hands the codec PNM
//! files, so `synth` is never called; if it is, it panics so that no
//! benchmark input can come from stub code.

fn reached() -> ! {
    panic!("benchmark shim reached: rand is a type-check stub")
}

pub mod rngs {
    pub struct StdRng(());
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(_seed: u64) -> Self {
        reached()
    }
}

impl SeedableRng for rngs::StdRng {}

pub trait Rng {
    fn gen_range<T>(&mut self, _range: std::ops::Range<T>) -> T {
        reached()
    }
}

impl Rng for rngs::StdRng {}
