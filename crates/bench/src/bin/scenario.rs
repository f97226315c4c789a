//! Run the named scenario matrix and emit a machine-readable summary.
//!
//!   cargo run --release -p limeqo-bench --bin scenario            # all fast
//!   cargo run --release -p limeqo-bench --bin scenario -- --list
//!   cargo run --release -p limeqo-bench --bin scenario -- --filter online
//!   cargo run --release -p limeqo-bench --bin scenario -- --scale  # 100k tier
//!   cargo run --release -p limeqo-bench --bin scenario -- --dir scenarios
//!   cargo run --release -p limeqo-bench --bin scenario -- export scenarios
//!   cargo run --release -p limeqo-bench --bin scenario -- fuzz --seed 1 --count 8
//!   cargo run --release -p limeqo-bench --bin scenario -- fuzz --replay 42
//!   cargo run --release -p limeqo-bench --bin scenario -- fuzz --replay path/to/spec.json
//!
//! `--dir DIR` swaps the code registry for the file corpus in DIR
//! (`*.json` / `*.toml`, loaded with the `limeqo-sim` scenario loader). A
//! file that fails to parse or validate exits non-zero with the offending
//! path and line — the corpus is config, and config errors are user
//! errors, not panics.
//!
//! `export DIR` writes the code registry out as corpus files (a fixed
//! subset as TOML, the rest JSON, the 100k tier under `DIR/scale/`) —
//! the generator for the checked-in `scenarios/` directory.
//!
//! `fuzz` generates random-but-valid specs, runs each through the full
//! runner, and checks the calibrated invariants; failures are minimized
//! and dumped under `bench-results/fuzz-failures/` for replay.
//!
//! Prints one table row per scenario and writes
//! `bench-results/scenarios.json` (array of per-scenario objects) plus
//! `bench-results/scenarios.csv`. The golden regression suite
//! (`tests/tests/scenarios.rs`) runs the same registry through the same
//! runner and pins the metrics in `tests/golden/scenarios.golden`.

use std::path::{Path, PathBuf};

use limeqo_bench::fuzz::{check_spec, minimize, run_fuzz};
use limeqo_bench::report::{fmt_secs, write_csv, write_json, Table};
use limeqo_bench::scenario_runner::{report_json, run_scenarios};
use limeqo_sim::scenario::{registry, scale_registry};
use limeqo_sim::scenario_fuzz::generate;
use limeqo_sim::{load_corpus, load_scenario, to_json_string, to_toml_string};

/// Registry scenarios exported as TOML instead of JSON, so the corpus
/// exercises both loaders end to end.
const TOML_EXPORTS: &[&str] = &["heavy-tail", "online-zipf", "data-shift-retained"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("export") => return cmd_export(args.get(1).map(String::as_str)),
        Some("fuzz") => return cmd_fuzz(&args[1..]),
        _ => {}
    }

    let list_only = args.iter().any(|a| a == "--list");
    let scale = args.iter().any(|a| a == "--scale");
    let flag_value =
        |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned();
    let filter = flag_value("--filter").unwrap_or_default();
    let corpus_dir = flag_value("--dir");

    // --dir swaps the code registry for the file corpus; --scale swaps in
    // the 100k-query tier (minutes, not seconds). The fast code registry
    // stays the default so `scenario` remains cheap.
    let base = match &corpus_dir {
        Some(dir) => match load_corpus(Path::new(dir)) {
            Ok(corpus) => corpus.into_iter().map(|(_, spec)| spec).collect(),
            Err(e) => {
                eprintln!("scenario: {e}");
                std::process::exit(2);
            }
        },
        None if scale => scale_registry(),
        None => registry(),
    };
    let specs: Vec<_> =
        base.into_iter().filter(|s| filter.is_empty() || s.name.contains(&filter)).collect();
    if specs.is_empty() {
        eprintln!("no scenario matches filter {filter:?}");
        std::process::exit(2);
    }
    if list_only {
        let mut table = Table::new("scenario registry", &["name", "policy", "n", "summary"]);
        for s in &specs {
            table.row(&[
                s.name.to_string(),
                s.policy.name().to_string(),
                format!("{}", s.workload.n_queries()),
                s.summary.to_string(),
            ]);
        }
        table.print();
        return;
    }

    let outcomes = run_scenarios(&specs);

    let mut table = Table::new(
        "scenario matrix",
        &[
            "scenario",
            "policy",
            "n",
            "k",
            "default",
            "optimal",
            "final",
            "vs random",
            "cells",
            "censored",
            "monotone",
        ],
    );
    let mut csv = vec![vec!["scenario".to_string(), "metric".to_string(), "value".to_string()]];
    for o in &outcomes {
        let final_latency = o.online.as_ref().map(|on| on.final_latency).unwrap_or(o.final_latency);
        table.row(&[
            o.name.clone(),
            o.policy.to_string(),
            format!("{}", o.n),
            format!("{}", o.k),
            fmt_secs(o.default_total),
            fmt_secs(o.optimal_total),
            fmt_secs(final_latency),
            o.random_final_latency.map(fmt_secs).unwrap_or_else(|| "-".into()),
            format!("{:.0}", o.cells_executed),
            format!("{:.0}", o.censored_cells),
            if o.monotone_ok { "yes".into() } else { "NO".into() },
        ]);
        for (k, v) in o.metrics() {
            let (name, metric) = k.split_once('.').expect("prefixed key");
            csv.push(vec![name.to_string(), metric.to_string(), format!("{v}")]);
        }
    }
    table.print();
    let out_name = if corpus_dir.is_some() {
        "scenarios-corpus"
    } else if scale {
        "scenarios-scale"
    } else {
        "scenarios"
    };
    let json_path = write_json(out_name, &report_json(&outcomes)).expect("write scenarios json");
    let csv_path = write_csv(out_name, &csv).expect("write scenarios csv");
    println!("[scenario] wrote {} and {}", json_path.display(), csv_path.display());

    if outcomes.iter().any(|o| !o.monotone_ok) {
        eprintln!("[scenario] FAIL: a latency trajectory regressed within a segment");
        std::process::exit(1);
    }
}

/// `scenario export [DIR]`: write the code registry as corpus files.
fn cmd_export(dir: Option<&str>) {
    let dir = PathBuf::from(dir.unwrap_or("scenarios"));
    let scale_dir = dir.join("scale");
    std::fs::create_dir_all(&scale_dir).expect("create export dirs");
    let mut written = 0usize;
    for spec in registry() {
        let toml = TOML_EXPORTS.contains(&spec.name.as_str());
        let ext = if toml { "toml" } else { "json" };
        let path = dir.join(format!("{}.{ext}", spec.name));
        let body = if toml { to_toml_string(&spec) } else { to_json_string(&spec) };
        std::fs::write(&path, body).expect("write corpus file");
        written += 1;
    }
    for spec in scale_registry() {
        let path = scale_dir.join(format!("{}.json", spec.name));
        std::fs::write(&path, to_json_string(&spec)).expect("write scale corpus file");
        written += 1;
    }
    println!("[scenario] exported {written} scenarios to {}", dir.display());
}

/// `scenario fuzz [--seed S] [--count N] [--out DIR] [--replay SEED|FILE]`.
fn cmd_fuzz(args: &[String]) {
    let flag_value =
        |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned();
    if let Some(target) = flag_value("--replay") {
        return cmd_fuzz_replay(&target);
    }
    let seed: u64 = flag_value("--seed").map_or(1, |v| v.parse().expect("--seed takes a u64"));
    let count: usize =
        flag_value("--count").map_or(64, |v| v.parse().expect("--count takes a number"));
    let out = flag_value("--out").unwrap_or_else(|| "bench-results/fuzz-failures".into());
    let report = run_fuzz(seed, count, Some(Path::new(&out)));
    if report.failures.is_empty() {
        println!(
            "[scenario] fuzz: {} specs (seeds {seed}..{}) satisfied every invariant",
            report.cases,
            seed + report.cases as u64 - 1
        );
        return;
    }
    for f in &report.failures {
        eprintln!(
            "[scenario] fuzz FAIL seed {}: {}",
            f.case_seed.expect("generated case"),
            f.original_reason
        );
        if f.reason != f.original_reason {
            eprintln!("  minimized to: {}", f.reason);
        }
        if let Some(p) = &f.dump_path {
            eprintln!("  minimized spec dumped to {} (replay with fuzz --replay)", p.display());
        }
    }
    eprintln!("[scenario] fuzz: {} of {} specs failed", report.failures.len(), report.cases);
    std::process::exit(1);
}

/// Replay one case: a generator seed, or a dumped/committed spec file.
fn cmd_fuzz_replay(target: &str) {
    let (spec, label) = if let Ok(seed) = target.parse::<u64>() {
        (generate(seed), format!("seed {seed}"))
    } else {
        match load_scenario(Path::new(target)) {
            Ok(spec) => (spec, target.to_string()),
            Err(e) => {
                eprintln!("scenario: {e}");
                std::process::exit(2);
            }
        }
    };
    match check_spec(&spec) {
        Ok(()) => println!("[scenario] fuzz replay {label}: every invariant holds"),
        Err(reason) => {
            let (minimized, min_reason) = minimize(&spec);
            eprintln!("[scenario] fuzz replay {label} FAILED: {reason}");
            eprintln!("  minimized ({min_reason}):");
            eprint!("{}", to_json_string(&minimized));
            std::process::exit(1);
        }
    }
}
