//! The perf emitter's contract (see PERF.md): a smoke-sized run must
//! produce a document that parses, carries every required metric key, and
//! round-trips through the minimal JSON parser — the same validation the
//! `perf` binary applies to `bench-results/BENCH_policy.json` before CI
//! trusts the trajectory.

use limeqo_bench::perf::{run, validate, PerfOpts, REQUIRED_KEYS};
use limeqo_bench::report::Json;

#[test]
fn smoke_perf_report_has_required_keys_and_roundtrips() {
    let doc = run(&PerfOpts { smoke: true, threads: 1 });
    validate(&doc).expect("freshly built report must validate");
    let parsed = Json::parse(&doc.render()).expect("rendered report must parse");
    assert_eq!(parsed, doc, "render/parse round trip must be lossless");
    validate(&parsed).expect("parsed report must validate");
    for &key in REQUIRED_KEYS {
        assert!(parsed.get(key).is_some(), "{key} missing after round trip");
    }
    // Sanity on the headline numbers: positive durations, a finite
    // speedup, and the machine identity that contextualizes them.
    assert!(parsed.get("als.serial_s").and_then(Json::as_num).unwrap() > 0.0);
    assert!(parsed.get("als.speedup").and_then(Json::as_num).unwrap() > 0.0);
    assert!(parsed.get("cores").and_then(Json::as_num).unwrap() >= 1.0);
    // The instruction set the fused ALS kernels ran in: trajectories
    // compare only within one (cores, isa).
    match parsed.get("isa") {
        Some(Json::Str(isa)) => assert_eq!(isa, limeqo_linalg::block::isa()),
        other => panic!("isa must be a string, got {other:?}"),
    }
    assert_eq!(parsed.get("smoke"), Some(&Json::Bool(true)));
}
