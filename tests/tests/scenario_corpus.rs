//! The checked-in `scenarios/` corpus is the scenario registry:
//! `limeqo_sim::scenario::registry()` and `scale_registry()` compile the
//! files in through a table of `include_str!` lines. This suite pins the
//! directory and the data around it:
//!
//! 1. **Table ⇔ directory** — every loadable file in `scenarios/` and
//!    `scenarios/scale/` has a line in the registry's file table, and the
//!    table names no scenario the directory lacks (a line whose file is
//!    missing does not even compile). A file added without its line, or a
//!    line dropped, fails here instead of silently leaving the scenario
//!    out of the golden suite.
//! 2. **Serializer stability** — re-serializing each registry file
//!    reproduces its bytes, so a hand-edited file that drifts from
//!    canonical form shows up in review as a rewrite, not a silent
//!    reformat; a failure prints the canonical text to paste in.
//! 3. **The extras** — `scenarios/extra/` holds hand-written specs for
//!    the arrival knobs the registry does not exercise (bursts, bounded
//!    concurrency, open-loop rates, CSV trace replay); they must parse,
//!    validate, and name the knobs they claim to cover.
//! 4. **One format** — the loader reads `.json` only and skips anything
//!    else without a word, so every file under `scenarios/` must be a
//!    `.json` spec, a `.csv` trace, or `README.md`.
//!
//! The deliberately-broken fixtures under `scenarios/broken/` are valid,
//! loadable specs that *violate the fuzzer's calibrated invariants*; they
//! are exercised by `scenario_fuzz.rs`, not here.

use std::path::PathBuf;

use limeqo_sim::scenario::{registry, scale_registry, ArrivalModel, ScenarioSpec};
use limeqo_sim::{load_corpus, load_scenario, to_json_string};

/// Workspace-root path (the tests crate lives one level down).
fn root(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join(rel)
}

fn corpus() -> Vec<(PathBuf, ScenarioSpec)> {
    load_corpus(&root("scenarios")).expect("scenarios/ corpus loads")
}

fn sorted_names<'a>(specs: impl Iterator<Item = &'a ScenarioSpec>) -> Vec<&'a str> {
    let mut names: Vec<&str> = specs.map(|s| s.name.as_str()).collect();
    names.sort_unstable();
    names
}

/// The files loaded from `dir` at run time must be exactly the registry's
/// compiled-in table: the same names (duplicates included) and, name by
/// name, the same specs.
fn assert_table_matches_directory(
    dir: &str,
    files: &[(PathBuf, ScenarioSpec)],
    reg: &[ScenarioSpec],
) {
    assert_eq!(
        sorted_names(files.iter().map(|(_, s)| s)),
        sorted_names(reg.iter()),
        "the files in {dir} and the registry's file table must name the same scenarios \
         (add or remove the table line in crates/sim/src/scenario.rs)"
    );
    for spec in reg {
        let (path, file) = files.iter().find(|(_, s)| s.name == spec.name).expect("same names");
        assert_eq!(file, spec, "{} loads differently from its table line", path.display());
    }
}

/// Every top-level file in `scenarios/` has a line in the fast registry's
/// table, and every line a file.
#[test]
fn corpus_reexpresses_the_fast_registry_exactly() {
    assert_table_matches_directory("scenarios/", &corpus(), &registry());
}

/// Every file in `scenarios/scale/` has a line in the scale registry's
/// table, and every line a file.
#[test]
fn scale_corpus_reexpresses_the_scale_registry_exactly() {
    let files = load_corpus(&root("scenarios/scale")).expect("scenarios/scale/ corpus loads");
    assert_table_matches_directory("scenarios/scale/", &files, &scale_registry());
}

/// Every registry file, fast and scale, is in canonical serializer form.
/// A file that is not fails with its canonical text, ready to paste over
/// it.
#[test]
fn corpus_files_are_in_canonical_form() {
    let scale = load_corpus(&root("scenarios/scale")).expect("scenarios/scale/ corpus loads");
    for (path, spec) in corpus().into_iter().chain(scale) {
        let bytes = std::fs::read_to_string(&path).expect("corpus file readable");
        let canonical = to_json_string(&spec);
        assert!(
            bytes == canonical,
            "{} is not in canonical form; its canonical text is:\n{canonical}",
            path.display()
        );
    }
}

/// Every file under `scenarios/`, at any depth, is a `.json` spec, a
/// `.csv` trace or `README.md`: a spec in another format would be skipped
/// by the loader, and by the table ⇔ directory tests above with it.
#[test]
fn scenarios_holds_only_json_specs() {
    let mut dirs = vec![root("scenarios")];
    let mut stray = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("scenarios/ readable") {
            let path = entry.expect("readable dir entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if !(matches!(path.extension().and_then(|e| e.to_str()), Some("json" | "csv"))
                || path.file_name().is_some_and(|n| n == "README.md"))
            {
                stray.push(path);
            }
        }
    }
    assert!(stray.is_empty(), "only .json specs, .csv traces and README.md belong here: {stray:?}");
}

#[test]
fn extra_specs_cover_the_new_arrival_knobs() {
    let burst =
        load_scenario(&root("scenarios/extra/online-burst-queue.json")).expect("burst spec loads");
    let a = burst.arrivals.as_ref().expect("online spec has arrivals");
    assert_eq!((a.burst, a.concurrency), (4, 2), "burst spec must exercise batching + workers");
    assert!(a.rate > 0.0, "burst spec must be open-loop (rate > 0)");

    let replay = load_scenario(&root("scenarios/extra/online-replay-trace.json"))
        .expect("replay spec loads (replay_csv relative to the spec file)");
    let a = replay.arrivals.as_ref().expect("online spec has arrivals");
    let ArrivalModel::Replay { rows } = &a.model else {
        panic!("replay spec must resolve replay_csv into an inline trace")
    };
    let n = replay.workload.n_queries();
    assert!(!rows.is_empty() && rows.iter().all(|&r| r < n), "trace rows in range");
}

/// The extras run green end to end (they carry no beats-random claim,
/// but every structural invariant must hold).
#[test]
#[ignore = "runs two online scenarios end to end"]
fn extra_specs_hold_every_calibrated_invariant() {
    for file in ["extra/online-burst-queue.json", "extra/online-replay-trace.json"] {
        let spec = load_scenario(&root("scenarios").join(file)).expect("extra spec loads");
        limeqo_bench::fuzz::check_spec(&spec)
            .unwrap_or_else(|e| panic!("scenarios/{file} violated an invariant: {e}"));
    }
}
