//! Emit the tracked perf trajectory `bench-results/BENCH_policy.json`.
//!
//!   cargo run --release -p limeqo-bench --bin perf -- --smoke   # CI tier-1
//!   cargo run --release -p limeqo-bench --bin perf -- --full    # 10k×49
//!
//! Measures the completion-engine hot paths (serial vs parallel ALS,
//! store demotion, density-gate scan, Eq. 6 ranking scan, one end-to-end
//! scenario), writes the flat JSON report, then re-reads it through the
//! parser and validates `limeqo_bench::perf::REQUIRED_KEYS` — exiting
//! non-zero if the file is malformed. See PERF.md for how to diff the
//! trajectory across PRs.

use limeqo_bench::perf::{emit, PerfOpts, REQUIRED_KEYS};
use limeqo_bench::report::{fmt_secs, Json};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = if args.iter().any(|a| a == "--full") {
        PerfOpts::full()
    } else if args.iter().any(|a| a == "--smoke") {
        PerfOpts::smoke()
    } else {
        eprintln!("usage: perf --smoke | --full");
        std::process::exit(2);
    };

    let path = match emit(&opts) {
        Ok(path) => path,
        Err(e) => {
            eprintln!("[perf] FAIL: {e}");
            std::process::exit(1);
        }
    };
    let doc = Json::parse(&std::fs::read_to_string(&path).expect("just written"))
        .expect("just validated");
    println!("[perf] {} (schema ok, {} required keys)", path.display(), REQUIRED_KEYS.len());
    for key in [
        "als.serial_s",
        "als.parallel_s",
        "als.speedup",
        "als.dense_ref_s",
        "als.dense_ref_speedup",
        "als.incremental_s",
        "store.demote_s",
        "store.gate_scan_s",
        "policy.rank_scan_s",
        "policy.sample_s",
        "policy.topk_s",
        "scenario.end_to_end_s",
    ] {
        if let Some(v) = doc.get(key).and_then(Json::as_num) {
            if key.ends_with("speedup") {
                println!("[perf]   {key} = {v:.2}x");
            } else {
                println!("[perf]   {key} = {}", fmt_secs(v));
            }
        }
    }
    let full = doc.get("smoke") == Some(&Json::Bool(false));
    if let (Some(cores), Some(speedup)) =
        (doc.get("cores").and_then(Json::as_num), doc.get("als.speedup").and_then(Json::as_num))
    {
        // The acceptance bar: >= 2x ALS speedup at 10k×49 on >= 4 cores.
        // On smaller machines the parallel fit cannot possibly hit 2x, so
        // the gate is SKIPPED with a visible reason — never silently
        // passed as if it had been checked (`cores` is recorded in the
        // report so the skip is auditable after the fact).
        if full {
            if cores < 4.0 {
                println!(
                    "[perf] SKIP: als.speedup >= 2x gate needs >= 4 cores, this container \
                     has {cores} (speedup measured {speedup:.2}x)"
                );
            } else if speedup < 2.0 {
                eprintln!("[perf] FAIL: {cores} cores but ALS speedup only {speedup:.2}x (< 2x)");
                std::process::exit(1);
            }
        }
    }
    // The kernel floor is serial-vs-serial, so it is armed on every --full
    // run regardless of core count: a shipped fit that loses to the dense
    // three-pass reference at 10k×49 is a regression.
    if full {
        if let Some(dense_speedup) = doc.get("als.dense_ref_speedup").and_then(Json::as_num) {
            if dense_speedup < 1.0 {
                eprintln!(
                    "[perf] FAIL: shipped ALS slower than the dense reference \
                     (als.dense_ref_speedup = {dense_speedup:.2}x < 1x)"
                );
                std::process::exit(1);
            }
        }
    }
}
