//! Property test: kill the durable engine at *any* event boundary — with
//! or without a torn/corrupt journal tail — and recovery must resume the
//! run bit-identically.
//!
//! The driver here is honest about what survives a crash: the continuation
//! after `DurableEngine::recover` uses only engine-visible state (the
//! re-issued outstanding probes plus what the engine reports — its clock,
//! its row count, its shift epoch, the arrivals it has served, and the
//! tick loop's "no actions left" termination), never the killed run's
//! private bookkeeping. The reference trajectory is an uninterrupted run
//! of the identically-configured engine, driven by the same code.
//!
//! Three workloads are covered: an offline engine fed ticks and probe
//! observations (with torn tails and injected storage faults), an online
//! engine fed arrivals and gamble observations (killed between an arrival
//! and its gamble's observation, among other points), and an offline
//! engine fed `AddQueries` and a retained-priors `DataShift` mid-run.

use std::path::{Path, PathBuf};

use limeqo_core::complete::AlsCompleter;
use limeqo_core::engine::data_shift_observations;
use limeqo_core::explore::ExploreConfig;
use limeqo_core::matrix::{Cell, WorkloadMatrix};
use limeqo_core::online::OnlineConfig;
use limeqo_core::policy::{CellChoice, LimeQoPolicy};
use limeqo_core::store::{DriftPolicy, ObservationStore};
use limeqo_core::{
    execute_probe, Action, DurableConfig, DurableEngine, Engine, Event, FaultAt, FaultKind,
    FaultScript, FaultStorage, FsStorage, PolicySpec,
};
use limeqo_linalg::rng::SeededRng;
use limeqo_linalg::Mat;
use proptest::prelude::*;

/// Safety net only — every offline case must exhaust the policy well
/// below this.
const MAX_TICKS: usize = 4096;

fn truth_matrix(n: usize, k: usize, seed: u64) -> Mat {
    let mut rng = SeededRng::new(seed);
    let q = rng.uniform_mat(n, 3, 0.5, 2.0);
    let h = rng.uniform_mat(k, 3, 0.2, 1.5);
    let mut lat = q.matmul_t(&h).unwrap();
    for i in 0..n {
        lat[(i, 0)] = lat[(i, 0)] * 2.0 + 0.5;
    }
    lat
}

fn observe(truth: &Mat, row: usize, col: usize, timeout: f64) -> Event {
    execute_probe(row, col, timeout, truth[(row, col)])
}

/// Where a workload's events go: the uninterrupted reference (which
/// records every event it is fed — exactly what a durable run journals)
/// or a durable engine.
trait Host {
    fn engine(&self) -> &Engine<'static>;
    fn feed(&mut self, event: Event) -> Vec<Action>;
}

struct Recorder {
    engine: Engine<'static>,
    events: Vec<Event>,
}

impl Host for Recorder {
    fn engine(&self) -> &Engine<'static> {
        &self.engine
    }

    fn feed(&mut self, event: Event) -> Vec<Action> {
        self.events.push(event.clone());
        self.engine.step(event)
    }
}

impl Host for DurableEngine<'static> {
    fn engine(&self) -> &Engine<'static> {
        DurableEngine::engine(self)
    }

    fn feed(&mut self, event: Event) -> Vec<Action> {
        self.step(event).unwrap()
    }
}

/// A workload for the kill tests. `fresh` builds the engine — reference,
/// killed and recovered engines must be configured identically, because
/// recovery rebuilds static config from code, not from the journal.
/// `drive` runs the engine to the end from *any* state, deciding what to
/// feed from engine-visible state alone, so the same function produces
/// the reference and finishes a recovered run.
trait Workload {
    fn fresh(&self) -> Engine<'static>;
    /// Execute a probe in the environment the engine is currently in.
    fn probe(&self, engine: &Engine<'_>, row: usize, col: usize, timeout: f64) -> Event;
    fn drive(&self, host: &mut impl Host);
}

fn answer(w: &impl Workload, host: &mut impl Host, actions: Vec<Action>) {
    for a in actions {
        if let Action::Probe { row, col, timeout } = a {
            let obs = w.probe(host.engine(), row, col, timeout);
            host.feed(obs);
        }
    }
}

/// Everything a finished run must reproduce bit for bit: the trace
/// (row, col, charged bits, censored), the clock, the executed-cell count
/// (snapshotted apart from the trace), the online statistics, and every
/// cell of the matrix.
#[derive(Debug, PartialEq)]
struct Outcome {
    trace: Vec<(usize, usize, u64, bool)>,
    time: u64,
    executed: usize,
    stats: [u64; 7],
    cells: Vec<(u8, u64)>,
}

fn outcome(engine: &Engine<'_>) -> Outcome {
    let s = engine.stats();
    let wm = engine.wm();
    let cells = (0..wm.n_rows())
        .flat_map(|i| {
            (0..wm.n_cols()).map(move |j| match wm.cell(i, j) {
                Cell::Unobserved => (0, 0),
                Cell::Complete(v) => (1, v.to_bits()),
                Cell::Censored(v) => (2, v.to_bits()),
            })
        })
        .collect();
    Outcome {
        trace: engine
            .trace()
            .iter()
            .map(|t| (t.row, t.col, t.charged.to_bits(), t.censored))
            .collect(),
        time: engine.time_spent().to_bits(),
        executed: engine.cells_executed(),
        stats: [
            s.arrivals as u64,
            s.explored as u64,
            s.wins as u64,
            s.cancelled as u64,
            s.total_latency.to_bits(),
            s.default_latency.to_bits(),
            s.incumbent_latency.to_bits(),
        ],
        cells,
    }
}

/// The uninterrupted run: its input events in order and its outcome.
fn reference(w: &impl Workload) -> (Vec<Event>, Outcome) {
    let mut rec = Recorder { engine: w.fresh(), events: Vec::new() };
    w.drive(&mut rec);
    let want = outcome(&rec.engine);
    (rec.events, want)
}

/// Re-execute the probes recovery reports in flight, then drive the
/// workload to its end.
fn finish(w: &impl Workload, de: &mut DurableEngine<'static>, outstanding: Vec<CellChoice>) {
    for p in outstanding {
        let obs = w.probe(de.engine(), p.row, p.col, p.timeout);
        de.step(obs).unwrap();
    }
    w.drive(de);
}

fn newest_wal(dir: &Path) -> PathBuf {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if let Some(idx) = name
            .strip_prefix("wal-")
            .and_then(|r| r.strip_suffix(".log"))
            .and_then(|n| n.parse().ok())
        {
            if best.as_ref().map_or(true, |(b, _)| idx > *b) {
                best = Some((idx, path));
            }
        }
    }
    best.expect("a wal segment always exists").1
}

/// Journal the reference's first `kill_at` events, drop the engine without
/// shutdown (the kill — every record was already flushed by `step`),
/// append `tail` past the last complete record the way an OS-level crash
/// can leave it, recover, and finish the run.
fn kill_and_finish(
    w: &impl Workload,
    events: &[Event],
    kill_at: usize,
    snapshot_every: usize,
    tail: &[u8],
    name: &str,
) -> Outcome {
    let dir = std::env::temp_dir()
        .join(format!("limeqo-crash-{}-{name}-{kill_at}-{snapshot_every}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dcfg = DurableConfig { snapshot_every, keep_snapshots: 2 };
    {
        let mut de = DurableEngine::create(&dir, w.fresh(), "crash-v1", dcfg.clone()).unwrap();
        for ev in &events[..kill_at] {
            de.step(ev.clone()).unwrap();
        }
    }
    if !tail.is_empty() {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(newest_wal(&dir)).unwrap();
        f.write_all(tail).unwrap();
    }
    let (mut de, outstanding) = DurableEngine::recover(&dir, w.fresh(), "crash-v1", dcfg).unwrap();
    finish(w, &mut de, outstanding);
    let got = outcome(de.engine());
    let _ = std::fs::remove_dir_all(&dir);
    got
}

/// Offline LimeQO, ticked until the policy has nothing left to explore.
struct OfflineRun {
    truth: Mat,
}

impl Workload for OfflineRun {
    fn fresh(&self) -> Engine<'static> {
        let (n, k) = self.truth.shape();
        let defaults: Vec<f64> = (0..n).map(|i| self.truth[(i, 0)]).collect();
        let store = ObservationStore::new(WorkloadMatrix::with_defaults(&defaults, k));
        let cfg = ExploreConfig { batch: 3, seed: 17, ..Default::default() };
        Engine::offline(store, Box::new(LimeQoPolicy::with_als(17)), None, &cfg)
    }

    fn probe(&self, _: &Engine<'_>, row: usize, col: usize, timeout: f64) -> Event {
        observe(&self.truth, row, col, timeout)
    }

    fn drive(&self, host: &mut impl Host) {
        for _ in 0..MAX_TICKS {
            let actions = host.feed(Event::Tick);
            if actions.is_empty() {
                return;
            }
            answer(self, host, actions);
        }
        panic!("offline engine did not exhaust within {MAX_TICKS} ticks");
    }
}

/// An online engine serving a fixed arrival trace, gambling often enough
/// that many arrivals leave a probe in flight. ρ = 1 cancels every gamble
/// slower than its incumbent, so censored gambles occur too.
struct OnlineRun {
    truth: Mat,
    arrivals: Vec<usize>,
    seed: u64,
}

impl OnlineRun {
    fn new(seed: u64) -> Self {
        let truth = truth_matrix(12, 6, seed);
        let mut rng = SeededRng::new(seed ^ 0xA771);
        let arrivals = (0..120).map(|_| rng.index(12)).collect();
        OnlineRun { truth, arrivals, seed }
    }
}

impl Workload for OnlineRun {
    fn fresh(&self) -> Engine<'static> {
        let (n, k) = self.truth.shape();
        let defaults: Vec<f64> = (0..n).map(|i| self.truth[(i, 0)]).collect();
        let store = ObservationStore::new(WorkloadMatrix::with_defaults(&defaults, k));
        let cfg = OnlineConfig {
            explore_prob: 0.4,
            rho: 1.0,
            refresh_every: 8,
            seed: self.seed,
            ..Default::default()
        };
        Engine::online(store, Box::new(AlsCompleter::paper_default(self.seed)), &cfg)
    }

    fn probe(&self, _: &Engine<'_>, row: usize, col: usize, timeout: f64) -> Event {
        observe(&self.truth, row, col, timeout)
    }

    /// Serve the trace from the first arrival the engine has not counted.
    fn drive(&self, host: &mut impl Host) {
        let served = host.engine().stats().arrivals;
        for &row in &self.arrivals[served..] {
            let actions = host.feed(Event::Arrival { row });
            answer(self, host, actions);
        }
    }
}

/// An offline engine that explores, takes on the last rows' queries,
/// explores, has its data shift under retained priors, and explores on the
/// drifted latencies. Every phase ends on the clock, never by exhaustion.
struct DriftRun {
    before: Mat,
    after: Mat,
    initial_rows: usize,
    phase: f64,
    seed: u64,
}

impl DriftRun {
    fn new(seed: u64) -> Self {
        let before = truth_matrix(12, 6, seed);
        let after = truth_matrix(12, 6, seed ^ 0xD1F7);
        let phase = 0.3 * (0..12).map(|i| before[(i, 0)]).sum::<f64>();
        DriftRun { before, after, initial_rows: 9, phase, seed }
    }

    fn explore_until(&self, host: &mut impl Host, budget: f64) {
        while host.engine().time_spent() < budget {
            let actions = host.feed(Event::Tick);
            assert!(!actions.is_empty(), "every phase must end on the clock, not by exhaustion");
            answer(self, host, actions);
        }
    }
}

impl Workload for DriftRun {
    fn fresh(&self) -> Engine<'static> {
        let drift =
            DriftPolicy { cold_row_bonus: 0.25, warm_start: true, ..DriftPolicy::default() };
        let spec = PolicySpec::LimeQoAls {
            rank: 3,
            drift,
            incremental: false,
            rescore_every: 0,
            incremental_als: false,
        };
        let defaults: Vec<f64> = (0..self.initial_rows).map(|i| self.before[(i, 0)]).collect();
        let store =
            ObservationStore::new(WorkloadMatrix::with_defaults(&defaults, self.before.cols()));
        let cfg =
            ExploreConfig { batch: 3, seed: self.seed, retention: drift, ..Default::default() };
        Engine::offline(store, spec.build_policy(self.seed), None, &cfg)
    }

    fn probe(&self, engine: &Engine<'_>, row: usize, col: usize, timeout: f64) -> Event {
        let truth = if engine.store().epoch() == 0 { &self.before } else { &self.after };
        observe(truth, row, col, timeout)
    }

    fn drive(&self, host: &mut impl Host) {
        self.explore_until(host, self.phase);
        if host.engine().wm().n_rows() == self.initial_rows {
            let defaults =
                (self.initial_rows..self.before.rows()).map(|i| self.before[(i, 0)]).collect();
            host.feed(Event::AddQueries { defaults });
        }
        self.explore_until(host, 2.0 * self.phase);
        if host.engine().store().epoch() == 0 {
            let wm = host.engine().wm();
            let new_rows = wm.n_rows();
            let observations = data_shift_observations(wm, new_rows, |r, c| self.after[(r, c)]);
            host.feed(Event::DataShift { new_rows, observations });
        }
        self.explore_until(host, 3.0 * self.phase);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Journal the reference's event prefix, crash (drop without shutdown,
    /// optionally mangling the journal tail), recover, re-execute the
    /// re-issued outstanding probes, and run on to exhaustion: the final
    /// trace, clock, executed-cell count and matrix must match the
    /// uninterrupted run bit for bit.
    #[test]
    fn kill_anywhere_recovery_is_bit_identical(
        seed in 0u64..64,
        kill_frac in 0.0f64..1.0,
        tail_kind in 0usize..4,
        snapshot_every in 2usize..24,
    ) {
        let w = OfflineRun { truth: truth_matrix(12, 6, seed) };
        let (events, want) = reference(&w);
        let kill_at = ((events.len() as f64) * kill_frac) as usize;
        let kill_at = kill_at.min(events.len());
        let tail: &[u8] = match tail_kind {
            0 => b"",                                  // clean boundary
            1 => b"0123abcd T",                        // torn: no newline
            2 => b"00000000 O 1 2 3ff0000000000000 0\n", // full line, bad crc
            _ => b"\xff\xfe\x00 not a record at all\n", // binary junk
        };
        let name = format!("prop-{seed}-{tail_kind}");
        prop_assert_eq!(kill_and_finish(&w, &events, kill_at, snapshot_every, tail, &name), want);
    }

}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Chaos axis: inject one scripted storage fault (by global op index ×
    /// kind) into a durable run and demand there is no third outcome —
    /// either the fault surfaces as a clean typed error whose recovery is
    /// bit-identical, or the engine degrades and preserves the fault-free
    /// in-memory trace. Never a panic, never silent divergence.
    #[test]
    fn every_injected_fault_recovers_or_degrades_cleanly(
        seed in 0u64..32,
        fault_op in 0u64..300,
        fault_kind in 0usize..5,
        degrade in 0usize..2,
        snapshot_every in 2usize..16,
    ) {
        let degrade = degrade == 1;
        let w = OfflineRun { truth: truth_matrix(12, 6, seed) };
        let (events, want) = reference(&w);
        let kind = [
            FaultKind::FailOp,
            FaultKind::ShortWrite(4),
            FaultKind::FailSync,
            FaultKind::FailRename,
            FaultKind::Enospc,
        ][fault_kind];
        let script = FaultScript::single(FaultAt::Op(fault_op), kind);

        let dir = std::env::temp_dir().join(format!(
            "limeqo-chaosprop-{}-{seed}-{fault_op}-{fault_kind}-{degrade}-{snapshot_every}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let dcfg = DurableConfig { snapshot_every, keep_snapshots: 2 };

        let storage = Box::new(FaultStorage::new(Box::new(FsStorage), script));
        let probe = storage.probe();
        let created =
            DurableEngine::create_with(storage, &dir, w.fresh(), "crash-v1", dcfg.clone());
        let mut de = match created {
            Ok(de) => de,
            Err(e) => {
                // Outcome A (at birth): a clean typed error, an injected
                // fault behind it, and a directory a plain retry can
                // reinitialize.
                prop_assert!(probe.injected_total() > 0, "spurious create error: {e}");
                let _ = std::fs::remove_dir_all(&dir);
                let de = DurableEngine::create(&dir, w.fresh(), "crash-v1", dcfg).unwrap();
                drop(de);
                let _ = std::fs::remove_dir_all(&dir);
                return;
            }
        };

        let mut failed_at: Option<usize> = None;
        for (i, ev) in events.iter().enumerate() {
            if de.poisoned() || failed_at.is_some() {
                // Outcome B: degraded-but-serving. The in-memory engine
                // keeps applying the reference events (re-submitting the
                // one step() rejected without applying), so the trace
                // stays fault-free; rearm may restore durability at any
                // snapshot boundary along the way.
                de.step_degraded(ev.clone());
                continue;
            }
            if let Err(e) = de.step(ev.clone()) {
                prop_assert!(
                    probe.injected_total() > 0,
                    "step error without an injected fault: {e}"
                );
                failed_at = Some(i);
                if degrade {
                    de.step_degraded(ev.clone());
                } else {
                    break;
                }
            }
        }

        match failed_at {
            None => {
                // The fault either never fired or was absorbed (a failed
                // auto-snapshot retries at the next boundary; a failed GC
                // removal leaves extra files). The run itself must match
                // the reference exactly.
                prop_assert_eq!(outcome(de.engine()), want);
            }
            Some(_) if degrade => {
                // Outcome B concluded: every reference event applied, in
                // order, exactly once — bit-identical memory.
                prop_assert_eq!(outcome(de.engine()), want);
                // A rearm (explicit here; automatic at boundaries) makes
                // the degraded state durable again on healed storage...
                if de.poisoned() {
                    // ...except the storage is still the faulty wrapper;
                    // rearm may hit the (single-shot) script again only if
                    // the fault never fired, which it did. So this must
                    // succeed.
                    de.rearm().unwrap();
                }
                prop_assert!(!de.poisoned());
                drop(de);
                let (mut de2, outstanding) =
                    DurableEngine::recover(&dir, w.fresh(), "crash-v1", dcfg).unwrap();
                finish(&w, &mut de2, outstanding);
                prop_assert_eq!(outcome(de2.engine()), want);
            }
            Some(_) => {
                // Outcome A: stop at the clean error, recover on healed
                // storage, re-drive to exhaustion — bit-identical.
                drop(de);
                let (mut de2, outstanding) =
                    DurableEngine::recover(&dir, w.fresh(), "crash-v1", dcfg).unwrap();
                finish(&w, &mut de2, outstanding);
                prop_assert_eq!(outcome(de2.engine()), want);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Kill points right after an arrival whose gamble is still in flight —
/// both where a snapshot holds the gamble and where recovery rebuilds it
/// by replaying the arrival — plus mid-run and the clean end, for three
/// seeds and three snapshot cadences.
#[test]
fn online_kill_anywhere_recovery_is_bit_identical() {
    for seed in 0..3u64 {
        let w = OnlineRun::new(seed);
        let (events, want) = reference(&w);
        assert!(want.stats[2] > 0 && want.stats[3] > 0, "seed {seed}: gambles both win and cancel");
        let mid_gamble: Vec<usize> = events
            .windows(2)
            .enumerate()
            .filter(|(_, pair)| matches!(pair, [Event::Arrival { .. }, Event::Observation { .. }]))
            .map(|(i, _)| i + 1)
            .collect();
        for snapshot_every in [2, 3, 7] {
            let (held, replayed): (Vec<usize>, Vec<usize>) =
                mid_gamble.iter().partition(|&&k| k % snapshot_every == 0);
            let kills = [
                held[0],
                held[held.len() - 1],
                replayed[replayed.len() / 2],
                events.len() / 2,
                events.len(),
            ];
            for kill_at in kills {
                let name = format!("online-{seed}");
                let got = kill_and_finish(&w, &events, kill_at, snapshot_every, b"", &name);
                assert_eq!(
                    got, want,
                    "seed {seed}, snapshot every {snapshot_every}, kill at {kill_at}"
                );
            }
        }
    }
}

/// Kill points mid-round, on both sides of the workload shift, right after
/// the data shift, inside the first round on the drifted data, and at the
/// clean end, for three seeds and three snapshot cadences.
#[test]
fn drift_kill_anywhere_recovery_is_bit_identical() {
    for seed in 0..3u64 {
        let w = DriftRun::new(seed);
        let (events, want) = reference(&w);
        let add = events.iter().position(|e| matches!(e, Event::AddQueries { .. })).unwrap();
        let shift = events.iter().position(|e| matches!(e, Event::DataShift { .. })).unwrap();
        assert!(add > 1 && shift > add + 1, "seed {seed}: each phase explores");
        for snapshot_every in [2, 3, 7] {
            for kill_at in [1, add, add + 1, shift + 1, shift + 2, events.len()] {
                let name = format!("drift-{seed}");
                let got = kill_and_finish(&w, &events, kill_at, snapshot_every, b"", &name);
                assert_eq!(
                    got, want,
                    "seed {seed}, snapshot every {snapshot_every}, kill at {kill_at}"
                );
            }
        }
    }
}
