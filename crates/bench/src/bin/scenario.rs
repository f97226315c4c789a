//! Run the named scenario matrix and emit a machine-readable summary.
//!
//!   cargo run --release -p limeqo-bench --bin scenario            # all fast
//!   cargo run --release -p limeqo-bench --bin scenario -- --list
//!   cargo run --release -p limeqo-bench --bin scenario -- --filter online
//!   cargo run --release -p limeqo-bench --bin scenario -- --scale  # 100k tier
//!   cargo run --release -p limeqo-bench --bin scenario -- --dir scenarios
//!   cargo run --release -p limeqo-bench --bin scenario -- fuzz --seed 1 --count 8
//!   cargo run --release -p limeqo-bench --bin scenario -- fuzz --replay 42
//!   cargo run --release -p limeqo-bench --bin scenario -- fuzz --replay path/to/spec.json
//!
//! The default matrix is `limeqo_sim::scenario::registry()`, which is the
//! top level of `scenarios/` compiled into the binary (`--scale`: the
//! files under `scenarios/scale/`). `--dir DIR` reads the corpus in DIR
//! at run time instead (`*.json`, loaded with the `limeqo-sim`
//! scenario loader), so a new or edited file runs with no recompile. A
//! file that fails to parse or validate exits 2 with the offending path
//! and line — the corpus is config, and config errors are user errors,
//! not panics. Any other argument exits 2 with the usage line.
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

use std::path::Path;

use limeqo_bench::fuzz::{check_spec, minimize, run_fuzz};
use limeqo_bench::report::{fmt_secs, write_csv, write_json, Table};
use limeqo_bench::scenario_runner::{report_json, run_scenarios};
use limeqo_sim::scenario::{registry, scale_registry};
use limeqo_sim::scenario_fuzz::generate;
use limeqo_sim::{load_corpus, load_scenario, to_json_string};

const USAGE: &str = "usage: scenario [--list] [--scale] [--filter NAME] [--dir DIR]
       scenario fuzz [--seed N] [--count N] [--out DIR] [--replay SEED|FILE]";

/// Report a command-line error with the usage line and exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("scenario: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Exit 2 with the usage line unless every argument is one of `switches`
/// or one of `valued` followed by its value.
fn check_args(args: &[String], switches: &[&str], valued: &[&str]) {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if valued.contains(&arg.as_str()) {
            if it.next().is_none() {
                usage_error(&format!("{arg} takes a value"));
            }
        } else if !switches.contains(&arg.as_str()) {
            usage_error(&format!("unrecognized argument {arg:?}"));
        }
    }
}

/// The value after `flag` on the command line, if the flag is present.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("fuzz") {
        return cmd_fuzz(&args[1..]);
    }

    check_args(&args, &["--list", "--scale"], &["--filter", "--dir"]);
    let list_only = args.iter().any(|a| a == "--list");
    let scale = args.iter().any(|a| a == "--scale");
    let filter = flag_value(&args, "--filter").unwrap_or_default();
    let corpus_dir = flag_value(&args, "--dir");

    // --dir reads a corpus directory at run time; --scale swaps in the
    // 100k-query tier (minutes, not seconds). The compiled-in fast
    // registry stays the default so `scenario` remains cheap.
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

/// `scenario fuzz [--seed S] [--count N] [--out DIR] [--replay SEED|FILE]`.
fn cmd_fuzz(args: &[String]) {
    check_args(args, &[], &["--seed", "--count", "--out", "--replay"]);
    if let Some(target) = flag_value(args, "--replay") {
        return cmd_fuzz_replay(&target);
    }
    let seed: u64 = flag_value(args, "--seed")
        .map_or(1, |v| v.parse().unwrap_or_else(|_| usage_error("--seed takes a u64")));
    let count: usize = flag_value(args, "--count")
        .map_or(64, |v| v.parse().unwrap_or_else(|_| usage_error("--count takes a number")));
    let out = flag_value(args, "--out").unwrap_or_else(|| "bench-results/fuzz-failures".into());
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
