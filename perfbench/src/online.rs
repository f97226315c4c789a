//! The `online-zipf` workload: the registry's `online-zipf` spec (simulated
//! catalog, zipf(1.1) arrivals, ρ 1.2, `refresh_every` 64, cold bonus 0.5)
//! with the query and arrival counts scaled, served through
//! [`OnlineExplorer::serve`] one arrival at a time.

use std::time::Instant;

use limeqo_core::complete::Completer;
use limeqo_core::explore::{MatOracle, Oracle};
use limeqo_core::online::{OnlineConfig, OnlineExplorer};
use limeqo_sim::scenario::{by_name, ScenarioSpec, ScenarioWorkload};
use limeqo_sim::workloads::WorkloadSpec;

use crate::decor::{TimedCompleter, TimedOracle};
use crate::episode::{Episode, SETUPS_PER_EPISODE};
use crate::reference::Refs;
use crate::report::peak_rss_mb;
use crate::stats::median;
use crate::trace::{self, span};

/// Queries in the scaled workload (the registry entry has 48).
pub const QUERIES: usize = 300;
/// Arrivals served per episode (the registry entry serves 3000).
pub const ARRIVALS: usize = 30_000;

/// The registry's `online-zipf` at [`QUERIES`] queries and [`ARRIVALS`]
/// arrivals. The workload and its arrival trace are the registry's (the
/// trace drawn with the entry's first seed): which rows are hot decides
/// how much there is to win, and a seeded trace moved the quality ratio
/// between 0.13 and 0.69 from one seed to the next. An episode's seed
/// drives the exploration stream.
pub fn spec() -> ScenarioSpec {
    let mut spec = by_name("online-zipf").expect("registry has online-zipf");
    match &mut spec.workload {
        ScenarioWorkload::Sim(w) => w.n_queries = QUERIES,
        ScenarioWorkload::Synthetic(_) => unreachable!("online-zipf is simulated"),
    }
    spec.arrivals.as_mut().expect("online spec has arrivals").count = ARRIVALS;
    spec
}

/// Run one episode: build the workload and the explorer, draw the arrival
/// trace, then serve every arrival, timing each serve. `seed` seeds the
/// explorer and its completer. The loop reference of `refs` is timed
/// after every serve that re-fit the model, and its time is not part of
/// the loop's; set-ups are timed as in `offline.rs`.
pub fn episode(spec: &ScenarioSpec, seed: u64, traced: bool, refs: Option<&Refs>) -> Episode {
    let ScenarioWorkload::Sim(wspec) = &spec.workload else {
        unreachable!("online-zipf is simulated")
    };
    let t0 = Instant::now();
    let oracle = span("setup", || build_oracle(spec, wspec));
    let timed = TimedOracle::new(&oracle, "online.oracle");
    let oracle_ref: &dyn Oracle = if traced { &timed } else { &oracle };
    let cfg = online_config(spec, seed);
    let rho = cfg.rho;
    let completer: Box<dyn Completer + Send> = if traced {
        Box::new(TimedCompleter::new(spec.policy.build_completer(seed)))
    } else {
        spec.policy.build_completer(seed)
    };
    let mut ex = span("setup", || OnlineExplorer::new(oracle_ref, completer, cfg));
    let arrivals = spec.arrivals.as_ref().expect("online spec has arrivals");
    let rows = span("sim.arrivals", || arrivals.trace(ex.wm().n_rows(), spec.seeds[0]));
    let mut setups = vec![t0.elapsed().as_secs_f64()];

    let mut ep = Episode::default();
    let t1 = Instant::now();
    span("loop", || {
        for (i, &row) in rows.iter().enumerate() {
            trace::set_group(i as u64);
            let incumbent = ex.wm().row_best(row).expect("default observed").1;
            let overhead = ex.engine().overhead();
            let t = Instant::now();
            let experienced = span("online.serve", || ex.serve(row));
            let secs = t.elapsed().as_secs_f64();
            ep.requests.push(secs);
            // The engine meters its completer on exactly the arrivals that
            // re-fit the model: those serves are the online rounds.
            if ex.engine().overhead() != overhead {
                ep.rounds.push(secs);
                if let Some(r) = refs {
                    ep.reference(span("reference", || r.looped.timed_fit()));
                }
            }
            ep.checks.check(experienced <= (rho + 1.0) * incumbent + 1e-9, || {
                format!("arrival {i} (row {row}) paid {experienced}, over (ρ+1) × {incumbent}")
            });
        }
    });
    ep.loop_s = t1.elapsed().as_secs_f64() - ep.refs.iter().sum::<f64>();

    let stats = ex.stats();
    ep.ratio = stats.total_latency / stats.default_latency;
    let mut h = crate::report::Fnv::default();
    h.eat(stats.total_latency.to_bits());
    for i in 0..ex.wm().n_rows() {
        let (col, lat) = ex.wm().row_best(i).expect("default observed");
        h.eat(col as u64);
        h.eat(lat.to_bits());
    }
    ep.fingerprint = h.finish();
    let explored = stats.explored.max(1) as f64;
    ep.layer("online.arrivals", stats.arrivals as f64, "count");
    ep.layer("online.gamble_frac", stats.explored as f64 / stats.arrivals.max(1) as f64, "frac");
    ep.layer("online.win_frac", stats.wins as f64 / explored, "frac");
    ep.layer("online.refreshes", ep.rounds.len() as f64, "count");
    // Executed gambles: completed cells beyond the free defaults plus
    // every ρ-cancellation (a re-gamble on a censored cell runs again).
    let executed = ex.wm().complete_count() - ex.wm().n_rows() + stats.cancelled;
    ep.layer("store.censored_frac", stats.cancelled as f64 / executed.max(1) as f64, "frac");
    ep.extra("probes", executed as f64, "count");
    ep.layer("store.mem_mb", ex.wm().mem_bytes() as f64 / 1e6, "MB");
    ep.rss_mb = peak_rss_mb("self").unwrap_or(f64::NAN);

    // The other set-ups, timed after serving (see offline.rs).
    drop(ex);
    let mut setup_refs = Vec::new();
    if !traced {
        while setups.len() < SETUPS_PER_EPISODE {
            setups.push({
                let t = Instant::now();
                let oracle = build_oracle(spec, wspec);
                let completer = spec.policy.build_completer(seed);
                let ex = OnlineExplorer::new(&oracle, completer, online_config(spec, seed));
                std::hint::black_box(arrivals.trace(ex.wm().n_rows(), spec.seeds[0]));
                t.elapsed().as_secs_f64()
            });
            if let Some(r) = refs {
                setup_refs.push(r.setup.timed_fit().wall_s);
            }
        }
    }
    ep.setup_s = median(&setups);
    ep.samples.push(("setup".into(), setups));
    ep.samples.push(("setup_ref".into(), setup_refs));
    ep
}

/// The simulated workload at the spec's hint shape, and its oracle.
fn build_oracle(spec: &ScenarioSpec, wspec: &WorkloadSpec) -> MatOracle {
    let mut w = span("sim.build", || {
        let mut w = wspec.build();
        let idx = spec.hint_shape.indices(w.hints.len());
        w.hints = w.hints.subset(&idx);
        w
    });
    let m = span("sim.oracle", || w.build_oracle());
    MatOracle::new(m.true_latency, Some(m.est_cost))
}

fn online_config(spec: &ScenarioSpec, seed: u64) -> OnlineConfig {
    let mut cfg = spec.policy.online_config(seed).expect("online policy spec");
    cfg.shards = spec.shards;
    cfg
}
