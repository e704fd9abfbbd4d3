//! `xtask bench-smoke` — run every benchmark harness in smoke mode and
//! check the JSON it emits.
//!
//! The harnesses enforce their own semantic contracts (bit identity, the
//! zero-allocation oracles, their in-run speedup floors) and write their
//! documents through one JSON writer (`pj2k_bench::report`). The schema
//! each document must meet — its id and required keys — lives here, once:
//! [`BENCHES`]. `bench-smoke` checks the smoke documents against it and
//! against the floors and ceilings; `xtask ci` checks the committed
//! full-run `BENCH_*.json` against the schema alone ([`check_committed`]).
//! Local runs and CI share the exact invocation and checks, and adding a
//! harness is a one-entry [`BENCHES`] edit rather than a YAML diff.
//!
//! Validation is intentionally dependency-free (substring keys plus
//! balanced-delimiter counts).

use std::path::{Path, PathBuf};
use std::process::Command;

/// One benchmark harness: the binary name, where its smoke output lands
/// (relative to the workspace root), its schema id and the keys the JSON
/// must contain.
struct BenchSpec {
    bin: &'static str,
    out: &'static str,
    schema: &'static str,
    /// Required keys, space-separated, without their quotes.
    keys: &'static str,
    /// Numeric regression floors: the first number following each key in
    /// the document must be strictly greater than the given value.
    floors: &'static [(&'static str, f64)],
    /// Numeric ceilings: the first number following each key must be less
    /// than or equal to the given value (inclusive, so exact-zero
    /// contracts are expressible as a 0.0 ceiling).
    ceilings: &'static [(&'static str, f64)],
}

const BENCHES: &[BenchSpec] = &[
    BenchSpec {
        bin: "bench_tier1",
        out: "target/BENCH_tier1_smoke.json",
        schema: "pj2k.bench_tier1.v4",
        keys: "smoke microbench seed_path scratch_path blocks_per_sec \
               allocs_per_block scratch_speedup allocs_avoided_per_block steady_state \
               steady_allocs_per_block engines reference bitplane bitplane_speedup \
               per_pass sig_prop mag_ref cleanup decisions components \
               mq_cost_per_decision_ns entropy_secs_est context_formation_secs_est \
               encoder staggered_secs dynamic_secs dynamic_over_staggered \
               modeled_staggered_speedup modeled_dynamic_speedup rate_aware \
               rate_aware_secs full_coding_secs rate_aware_speedup coded_pass_share \
               byte_mismatches",
        // The default bitplane engine must beat the reference engine in
        // the same run; the binary exits non-zero on <= 1.0, and this
        // floor re-checks the emitted document with headroom for a real
        // regression: full runs land ≈2.0-2.2x, smoke runs similar, so
        // dipping under 1.2 means the engine lost most of its advantage,
        // not that the runner was noisy.
        floors: &[("\"bitplane_speedup\"", 1.2)],
        // The warm Tier-1 arena must allocate exactly zero times per
        // block — the runtime half of the audit-hotpath contract. The
        // rate-aware encoder must write the bytes full coding writes
        // (exact zero; the binary also exits non-zero otherwise) and must
        // actually skip work at 1 bpp: it codes 0.818 of the nominal passes
        // of the 512x512 smoke image and 0.850 of the full run's 1024x1024
        // one. These synthetic images keep most planes at 1 bpp, so the
        // pilot's second stage codes about as deep as its first and the
        // two-stage pilot leaves both shares where they were (the
        // benchmark's inputs give it more to skip, 0.56-0.60). The ceiling
        // is the smoke share plus 0.06, a third of the passes it now skips:
        // past that the floors have stopped biting.
        ceilings: &[
            ("\"steady_allocs_per_block\"", 0.0),
            ("\"byte_mismatches\"", 0.0),
            ("\"coded_pass_share\"", 0.88),
        ],
    },
    BenchSpec {
        bin: "bench_dwt",
        out: "target/BENCH_dwt_smoke.json",
        schema: "pj2k.bench_dwt.v4",
        keys: "smoke kernels wavelet lifting vertical mpix_per_sec \
               fused_strip_speedup_97 fused_strip_speedup_53 naive_vertical_slowdown \
               simd vert_secs simd_tiers simd_best_tier simd_strip_speedup_97 \
               simd_strip_speedup_53 simd_bit_identity passes direction horiz_secs \
               steady_state allocs_marginal_per_strip",
        // The paper's cache finding on the runner's clock: at a
        // power-of-two width the naive vertical pass must be slower than
        // the strip pass (≈7x at 2048² on a 2-core AVX2 host, 7-10x in
        // smoke runs at 256²). The unit tests check the same gap in
        // simulated miss traffic, which has no clock to flake on.
        floors: &[("\"naive_vertical_slowdown\"", 1.0)],
        // Extra DWT strips must not cost extra allocations.
        ceilings: &[("\"allocs_marginal_per_strip\"", 0.0)],
    },
    BenchSpec {
        bin: "bench_decode",
        out: "target/BENCH_decode_smoke.json",
        schema: "pj2k.bench_decode.v3",
        keys: "smoke host_cores bit_identity steady_state steady_allocs_per_block \
               tier1_decode equality oracle packed blocks_per_sec ns_per_block \
               warm_allocs_per_block packed_speedup workloads pyramid skewed \
               parse_secs tier1_secs dwt_secs measured secs mpix_per_sec speedup \
               oversubscribed",
        // The packed Tier-1 decoder must beat the per-coefficient oracle
        // it replaced in the same run (the binary exits non-zero on
        // <= 1.0 and reports nothing before both reproduced every block).
        // No floor on the thread sweep: it is measured on whatever cores
        // the runner has, and rows above `host_cores` are oversubscribed.
        floors: &[("\"packed_speedup\"", 1.0)],
        // The warm Tier-1 decode scratch must allocate exactly zero times
        // per block — the decode half of the audit-hotpath contract
        // (`warm_allocs_per_block` is the same contract per engine row).
        ceilings: &[
            ("\"steady_allocs_per_block\"", 0.0),
            ("\"warm_allocs_per_block\"", 0.0),
        ],
    },
    BenchSpec {
        bin: "bench_serve",
        out: "target/BENCH_serve_smoke.json",
        schema: "pj2k.bench_serve.v1",
        keys: "smoke bit_identity workload images classes serial_secs parallel_secs \
               granule_secs measured batch_secs images_per_sec p50_latency_secs \
               p99_latency_secs serial_pool_secs serial_images_per_sec \
               batch_over_serial modeled batch_speedup memory per_job_bytes \
               peak_1x_bytes peak_2x_bytes flatness_ratio ceiling_bytes \
               measured_p4_batch_over_serial mixed_p4_batch_speedup",
        // At a budget of 4 the batch scheduler must beat serial whole-pool
        // encoding in the deterministic model (measured cost splits, so it
        // holds on single-core runners; the binary itself enforces 1.1).
        floors: &[("\"mixed_p4_batch_speedup\"", 1.0)],
        // Doubling offered load must not grow peak heap by more than 25% —
        // the flat-memory half of the bounded-admission contract (the
        // binary additionally checks the absolute admission ceiling).
        ceilings: &[("\"flatness_ratio\"", 1.25)],
    },
    BenchSpec {
        bin: "fig02_codec_comparison",
        out: "target/BENCH_fig02_smoke.json",
        schema: "pj2k.fig02.v1",
        keys: "smoke host_cores jpeg_secs spiht_secs j2k_secs j2k_over_jpeg \
               j2k_over_spiht",
        // Fig. 2's ordering on the runner's clock, best of 5 alternated
        // rounds: JPEG fastest, SPIHT no slower than 1.2x the paper-style
        // JPEG2000 coder. Smoke runs on a 2-core host read 16-19x and
        // 2.3-2.4x.
        floors: &[
            ("\"j2k_over_jpeg\"", 1.0),
            ("\"j2k_over_spiht\"", 1.0 / 1.2),
        ],
        ceilings: &[],
    },
];

/// Run all smoke benches rooted at `root`. Returns the process exit code.
pub fn run(root: &Path) -> i32 {
    let mut failed = false;
    for spec in BENCHES {
        println!("== bench-smoke: {} ==", spec.bin);
        let out = match smoke_out(root, spec) {
            Ok(out) => out,
            Err(err) => {
                eprintln!(
                    "bench-smoke: cannot create the directory of {}: {err}",
                    spec.out
                );
                failed = true;
                continue;
            }
        };
        let status = Command::new("cargo")
            .args(["run", "--release", "--offline", "--locked", "-q"])
            .args(["-p", "pj2k-bench", "--bin"])
            .arg(spec.bin)
            .arg("--")
            .arg("--smoke")
            .arg("--out")
            .arg(&out)
            .current_dir(root)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("bench-smoke: {} exited with {s}", spec.bin);
                failed = true;
                continue;
            }
            Err(err) => {
                eprintln!("bench-smoke: failed to launch {}: {err}", spec.bin);
                failed = true;
                continue;
            }
        }
        match std::fs::read_to_string(&out) {
            Ok(doc) => match check_doc(&doc, spec) {
                Ok(()) => println!(
                    "bench-smoke: {} ok ({} bytes, schema {})",
                    spec.bin,
                    doc.len(),
                    spec.schema
                ),
                Err(msg) => {
                    eprintln!("bench-smoke: {} emitted bad JSON: {msg}", spec.bin);
                    failed = true;
                }
            },
            Err(err) => {
                eprintln!("bench-smoke: cannot read {}: {err}", out.display());
                failed = true;
            }
        }
    }
    i32::from(failed)
}

/// The smoke document's path under `root`, its directory created: there
/// is no `target/` in a fresh checkout built with `CARGO_TARGET_DIR`
/// pointing elsewhere.
fn smoke_out(root: &Path, spec: &BenchSpec) -> std::io::Result<PathBuf> {
    let out = root.join(spec.out);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    Ok(out)
}

/// The committed full-run document of a harness: `bench_tier1` keeps
/// `BENCH_tier1.json` at the root. Fig. 2's ordering has none.
fn committed(spec: &BenchSpec) -> Option<String> {
    spec.bin
        .strip_prefix("bench_")
        .map(|name| format!("BENCH_{name}.json"))
}

/// Check every committed full-run document under `root` against its spec's
/// schema id and keys. Floors and ceilings are smoke-run checks: a full
/// run is judged by the binary that wrote it.
pub fn check_committed(root: &Path) -> Result<(), String> {
    let mut problems = Vec::new();
    for spec in BENCHES {
        let Some(file) = committed(spec) else {
            continue;
        };
        match std::fs::read_to_string(root.join(&file)) {
            Ok(doc) => {
                if let Err(msg) = check_schema(&doc, spec) {
                    problems.push(format!("{file}: {msg}"));
                }
            }
            Err(err) => problems.push(format!("cannot read {file}: {err}")),
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

/// Check one emitted smoke document against its spec: schema, then
/// floors and ceilings.
fn check_doc(doc: &str, spec: &BenchSpec) -> Result<(), String> {
    check_schema(doc, spec)?;
    for (key, floor) in spec.floors {
        match extract_number(doc, key) {
            Some(v) if v > *floor => {}
            Some(v) => return Err(format!("{key} = {v} is not above the floor {floor}")),
            None => return Err(format!("no numeric value found for {key}")),
        }
    }
    for (key, ceiling) in spec.ceilings {
        match extract_number(doc, key) {
            Some(v) if v <= *ceiling => {}
            Some(v) => return Err(format!("{key} = {v} exceeds the ceiling {ceiling}")),
            None => return Err(format!("no numeric value found for {key}")),
        }
    }
    Ok(())
}

/// Check a document's schema id, required keys and delimiter balance.
fn check_schema(doc: &str, spec: &BenchSpec) -> Result<(), String> {
    if !doc.contains(spec.schema) {
        return Err(format!("missing schema marker `{}`", spec.schema));
    }
    for key in spec.keys.split_whitespace() {
        if !doc.contains(&format!("\"{key}\"")) {
            return Err(format!("missing key \"{key}\""));
        }
    }
    if doc.matches('{').count() != doc.matches('}').count()
        || doc.matches('[').count() != doc.matches(']').count()
    {
        return Err("unbalanced JSON delimiters".to_string());
    }
    Ok(())
}

/// First number following `"key":` in the document (dependency-free JSON
/// peeking, good enough for the flat documents the harnesses emit).
fn extract_number(doc: &str, key: &str) -> Option<f64> {
    let at = doc.find(key)?;
    let rest = doc.get(at + key.len()..)?;
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest.get(..end)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A document with every required key; keys named in `ceilings` get 0
    /// (the steady-state contracts are exact-zero), everything else 1.
    fn doc_with_all_keys(spec: &BenchSpec) -> String {
        let mut doc = format!("{{\"schema\": \"{}\"", spec.schema);
        for key in spec.keys.split_whitespace() {
            let key = format!("\"{key}\"");
            let ceiled = spec.ceilings.iter().any(|(k, _)| *k == key);
            doc.push_str(&format!(", {key}: {}", if ceiled { 0 } else { 1 }));
        }
        doc.push('}');
        doc
    }

    #[test]
    fn check_doc_accepts_minimal_valid_doc() {
        let spec = &BENCHES[1];
        let doc = doc_with_all_keys(spec).replace(
            "\"naive_vertical_slowdown\": 1",
            "\"naive_vertical_slowdown\": 7.2",
        );
        assert!(check_doc(&doc, spec).is_ok());
    }

    #[test]
    fn dwt_spec_enforces_naive_slowdown_floor() {
        let spec = &BENCHES[1];
        assert_eq!(spec.bin, "bench_dwt");
        assert_eq!(spec.floors, &[("\"naive_vertical_slowdown\"", 1.0)]);
        // Strict: a naive vertical pass exactly as fast as the strip one
        // means the power-of-two width no longer costs cache misses.
        let tie = doc_with_all_keys(spec);
        assert!(check_doc(&tie, spec).is_err());
        let slower = tie.replace(
            "\"naive_vertical_slowdown\": 1",
            "\"naive_vertical_slowdown\": 1.05",
        );
        assert!(check_doc(&slower, spec).is_ok());
        let dropped = tie.replace("\"naive_vertical_slowdown\": 1", "\"other\": 1");
        assert!(check_doc(&dropped, spec).is_err());
    }

    #[test]
    fn floors_enforce_numeric_minimums() {
        let spec = &BENCHES[0];
        assert_eq!(spec.floors, &[("\"bitplane_speedup\"", 1.2)]);
        // keys list contains bitplane_speedup: 1 — under the floor, which
        // must be rejected (strictly-greater comparison).
        let at_floor = doc_with_all_keys(spec);
        assert!(check_doc(&at_floor, spec).is_err());
        let above = at_floor.replace("\"bitplane_speedup\": 1", "\"bitplane_speedup\": 2.75");
        assert!(check_doc(&above, spec).is_ok());
        assert_eq!(extract_number("{\"x\": -3.5e2,", "\"x\""), Some(-350.0));
        assert_eq!(extract_number("{\"x\": []}", "\"x\""), None);
    }

    #[test]
    fn ceilings_enforce_exact_zero_contracts() {
        let spec = &BENCHES[0];
        assert_eq!(
            spec.ceilings,
            &[
                ("\"steady_allocs_per_block\"", 0.0),
                ("\"byte_mismatches\"", 0.0),
                ("\"coded_pass_share\"", 0.88)
            ]
        );
        let good =
            doc_with_all_keys(spec).replace("\"bitplane_speedup\": 1", "\"bitplane_speedup\": 2.0");
        assert!(check_doc(&good, spec).is_ok());
        // Any steady-state allocation breaks the ceiling (inclusive
        // comparison: 0 passes, 0.5 does not).
        let leaky = good.replace(
            "\"steady_allocs_per_block\": 0",
            "\"steady_allocs_per_block\": 0.5",
        );
        assert!(check_doc(&leaky, spec).is_err());
        // So do a rate-aware encode that changed a byte, and one that
        // codes (nearly) every pass anyway.
        let changed = good.replace("\"byte_mismatches\": 0", "\"byte_mismatches\": 3");
        assert!(check_doc(&changed, spec).is_err());
        let idle = good.replace("\"coded_pass_share\": 0", "\"coded_pass_share\": 0.99");
        assert!(check_doc(&idle, spec).is_err());
        let dwt = &BENCHES[1];
        assert_eq!(dwt.ceilings, &[("\"allocs_marginal_per_strip\"", 0.0)]);
    }

    #[test]
    fn decode_spec_enforces_speedup_floor_and_alloc_ceiling() {
        let spec = &BENCHES[2];
        assert_eq!(spec.bin, "bench_decode");
        assert_eq!(spec.floors, &[("\"packed_speedup\"", 1.0)]);
        assert_eq!(
            spec.ceilings,
            &[
                ("\"steady_allocs_per_block\"", 0.0),
                ("\"warm_allocs_per_block\"", 0.0)
            ]
        );
        // The floor is strict: a packed decoder exactly matching the
        // oracle has lost its reason to exist.
        let at_floor = doc_with_all_keys(spec);
        assert!(check_doc(&at_floor, spec).is_err());
        let above = at_floor.replace("\"packed_speedup\": 1", "\"packed_speedup\": 1.6");
        assert!(check_doc(&above, spec).is_ok());
        // A warm engine row that allocates breaks the per-engine ceiling.
        let leaky = above.replace(
            "\"warm_allocs_per_block\": 0",
            "\"warm_allocs_per_block\": 0.25",
        );
        assert!(check_doc(&leaky, spec).is_err());
    }

    #[test]
    fn serve_spec_enforces_speedup_floor_and_flat_memory_ceiling() {
        let spec = &BENCHES[3];
        assert_eq!(spec.bin, "bench_serve");
        assert_eq!(spec.floors, &[("\"mixed_p4_batch_speedup\"", 1.0)]);
        assert_eq!(spec.ceilings, &[("\"flatness_ratio\"", 1.25)]);
        // The floor is strict: a batch exactly matching serial whole-pool
        // throughput (1.0) is a regression of the j/k split win.
        let at_floor = doc_with_all_keys(spec);
        assert!(check_doc(&at_floor, spec).is_err());
        let above = at_floor.replace(
            "\"mixed_p4_batch_speedup\": 1",
            "\"mixed_p4_batch_speedup\": 1.4",
        );
        assert!(check_doc(&above, spec).is_ok());
        // A 2x-oversubscribed peak 30% above the 1x run blows the
        // flat-memory ceiling.
        let bloated = above.replace("\"flatness_ratio\": 0", "\"flatness_ratio\": 1.3");
        assert!(check_doc(&bloated, spec).is_err());
    }

    #[test]
    fn fig02_spec_enforces_the_codec_ordering() {
        let spec = &BENCHES[4];
        assert_eq!(spec.bin, "fig02_codec_comparison");
        let ordered = doc_with_all_keys(spec)
            .replace("\"j2k_over_jpeg\": 1", "\"j2k_over_jpeg\": 17.2")
            .replace("\"j2k_over_spiht\": 1", "\"j2k_over_spiht\": 2.4");
        assert!(check_doc(&ordered, spec).is_ok());
        // JPEG2000 no slower than JPEG, or SPIHT more than 1.2x slower
        // than JPEG2000, breaks the figure.
        let jpeg_slow = ordered.replace("\"j2k_over_jpeg\": 17.2", "\"j2k_over_jpeg\": 0.9");
        assert!(check_doc(&jpeg_slow, spec).is_err());
        let spiht_slow = ordered.replace("\"j2k_over_spiht\": 2.4", "\"j2k_over_spiht\": 0.8");
        assert!(check_doc(&spiht_slow, spec).is_err());
    }

    /// A fresh directory under the system temp dir.
    fn temp_root(name: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("xtask-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create temp root");
        root
    }

    #[test]
    fn smoke_out_creates_the_missing_target_directory() {
        // A fresh checkout whose build goes to CARGO_TARGET_DIR elsewhere
        // has no `target/`; the harness must still find its `--out` dir.
        let root = temp_root("smoke-out");
        assert!(!root.join("target").exists());
        for spec in BENCHES {
            let out = smoke_out(&root, spec).expect("create the out dir");
            assert_eq!(out, root.join(spec.out));
            assert!(out.parent().is_some_and(Path::is_dir), "{}", spec.out);
        }
        std::fs::remove_dir_all(&root).expect("remove temp root");
    }

    #[test]
    fn committed_documents_are_checked_against_the_schema_only() {
        let root = temp_root("committed");
        let specs: Vec<_> = BENCHES.iter().filter(|s| committed(s).is_some()).collect();
        assert_eq!(specs.len(), 4, "fig02 has no committed document");
        for spec in &specs {
            // Every key, and values that would fail the smoke floors: the
            // full-run check does not apply them.
            let doc = doc_with_all_keys(spec).replace(": 1", ": 0.5");
            assert!(check_doc(&doc, spec).is_err() || spec.floors.is_empty());
            std::fs::write(root.join(committed(spec).unwrap()), doc).unwrap();
        }
        assert_eq!(check_committed(&root), Ok(()));
        // A stale document, missing one key, fails and names the file.
        let dwt = &BENCHES[1];
        let stale = doc_with_all_keys(dwt).replace("\"naive_vertical_slowdown\"", "\"other\"");
        std::fs::write(root.join("BENCH_dwt.json"), stale).unwrap();
        let err = check_committed(&root).unwrap_err();
        assert!(err.starts_with("BENCH_dwt.json: missing key"), "{err}");
        std::fs::remove_file(root.join("BENCH_tier1.json")).unwrap();
        assert!(check_committed(&root)
            .unwrap_err()
            .contains("cannot read BENCH_tier1.json"));
        std::fs::remove_dir_all(&root).expect("remove temp root");
    }

    #[test]
    fn the_committed_documents_meet_their_schema() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        assert_eq!(check_committed(&root), Ok(()));
    }

    #[test]
    fn check_doc_rejects_missing_key_and_imbalance() {
        let spec = &BENCHES[1];
        assert!(check_doc("{\"schema\": \"pj2k.bench_dwt.v4\"}", spec).is_err());
        let mut doc = String::from("{\"schema\": \"pj2k.bench_dwt.v4\"");
        for key in spec.keys.split_whitespace() {
            doc.push_str(&format!(", \"{key}\": ["));
        }
        assert!(check_doc(&doc, spec).is_err());
    }
}
