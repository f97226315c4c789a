//! The property-based scenario fuzzer, wired into the test tiers.
//!
//! * Tier 1 keeps a tiny deterministic smoke (a prefix of the CI seed
//!   stream) plus the "broken fixtures are caught" direction: every spec
//!   under `scenarios/broken/` is a *valid, loadable* scenario that the
//!   fuzzer's calibrated invariants must reject — each one is a
//!   fuzzer-found counterexample pinned so the failure mode it documents
//!   cannot quietly disappear (if a later PR fixes the underlying
//!   behavior, the fixture moves out of `broken/`, which is exactly the
//!   review conversation we want).
//! * The `--ignored` tier runs the acceptance-sized sweep (64 generated
//!   specs, all green) and re-minimizes the fixtures end to end.

use std::path::PathBuf;

use limeqo_bench::fuzz::{check_spec, minimize, run_fuzz};
use limeqo_sim::load_scenario;

fn broken_fixtures() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../scenarios/broken");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("scenarios/broken/ exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "scenarios/broken/ must hold at least one pinned counterexample");
    files
}

#[test]
fn fuzz_smoke_prefix_is_green() {
    // Seeds 1..=4 — a prefix of the `ci.sh` smoke (seed 1, N=8), so a
    // generator or invariant regression is visible in plain `cargo test`.
    let report = run_fuzz(1, 4, None);
    assert!(
        report.failures.is_empty(),
        "fuzz smoke failed: {:?}",
        report.failures.iter().map(|f| &f.reason).collect::<Vec<_>>()
    );
}

#[test]
fn broken_fixtures_load_but_fail_the_invariants() {
    for path in broken_fixtures() {
        let spec = load_scenario(&path)
            .unwrap_or_else(|e| panic!("broken fixtures must stay loadable: {e}"));
        let err = check_spec(&spec).expect_err(&format!(
            "{} no longer violates any invariant — the behavior it pins was fixed; \
             move it out of scenarios/broken/ and into the regular corpus or a test",
            path.display()
        ));
        assert!(
            err.contains(&spec.name),
            "failure reason should name the offending scenario: {err}"
        );
    }
}

#[test]
#[ignore = "acceptance sweep: 64 end-to-end scenario runs (~30s release)"]
fn sixty_four_generated_specs_hold_every_invariant() {
    let report = run_fuzz(1, 64, None);
    assert_eq!(report.cases, 64);
    assert!(
        report.failures.is_empty(),
        "calibrated invariants failed on generated specs: {:?}",
        report.failures.iter().map(|f| (f.case_seed, &f.reason)).collect::<Vec<_>>()
    );
}

#[test]
#[ignore = "re-minimizes each broken fixture end to end"]
fn broken_fixtures_minimize_to_valid_failing_specs() {
    for path in broken_fixtures() {
        let spec = load_scenario(&path).expect("fixture loads");
        let (minimized, reason) = minimize(&spec);
        minimized.check().unwrap_or_else(|e| {
            panic!("{}: shrinker produced an invalid spec: {e}", path.display())
        });
        assert!(!reason.is_empty());
        // The shrinker never grows a spec: the minimized workload is no
        // larger than the fixture's.
        assert!(
            minimized.workload.n_queries() <= spec.workload.n_queries(),
            "{}: minimized n grew",
            path.display()
        );
    }
}
