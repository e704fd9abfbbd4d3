//! The paper's tables and figures (DESIGN.md §4) from one profile run:
//! Figs. 3–13 (but Fig. 2), the §3.2 cache diagnosis, the §3.3
//! quantization stage, the §3.4 Amdahl table and the Tier-1 schedule
//! ablation, one `<name>.txt` each, plus Fig. 4's three PGM crops.
//!
//! ```sh
//! cargo run --release -p pj2k-bench --bin figures [-- --out DIR]   # default results/
//! PJ2K_FULL=1 cargo run ...                                       # paper-size sweeps
//! ```

use pj2k_bench::figures::{run, Scale};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = match args.as_slice() {
        [] => PathBuf::from("results"),
        [flag, dir] if flag == "--out" => PathBuf::from(dir),
        _ => {
            eprintln!("usage: figures [--out DIR]");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&Scale::from_env(), &out) {
        eprintln!("figures: cannot write into {}: {e}", out.display());
        std::process::exit(1);
    }
}
