//! The tick-driven exploration engine.
//!
//! Historically the crate had two run-to-completion harnesses —
//! [`crate::explore::Explorer`] (the offline Algorithm 1 loop) and
//! [`crate::online::OnlineExplorer`] (the arrival-driven gambler) — each
//! owning its loop, clock, and matrix. A long-lived optimizer service
//! cannot run to completion: query arrivals, observation reports, and
//! hint requests come in continuously and the process must be able to
//! stop and resume between any two of them.
//!
//! [`Engine`] is the shared mechanism both harnesses now wrap: a pure
//! event-step state machine with an explicit [`Engine::step`]`(Event) ->
//! Vec<Action>` API. The engine owns everything that must survive a
//! restart — the [`ObservationStore`], the policy/completer model state,
//! the RNG, the simulated clock, and the exploration trace — and *nothing*
//! that belongs to the environment (the oracle, the latency-vs-time curve,
//! time budgets). Drivers execute [`Action::Probe`] directives against
//! whatever runs queries for them (a [`crate::explore::MatOracle`] in the
//! harnesses, a real DBMS in a deployment) and feed the results back as
//! [`Event::Observation`]s built by [`execute_probe`], the one place the
//! paper's time accounting (Eq. 3 + Eq. 5) turns a latency into an
//! observation.
//!
//! Determinism contract: the engine is a deterministic function of its
//! initial state and the event sequence. Two engines built identically and
//! fed the same events produce bit-identical stores, traces, and actions —
//! the legacy `run()` loops are thin drivers that feed events in the old
//! fixed order, so the refactor moves no goldens. The same property is
//! what makes the journal in [`crate::persist`] sufficient for crash
//! recovery.

use crate::complete::Completer;
use crate::explore::{ExploreConfig, TraceEntry};
use crate::matrix::{Cell, WorkloadMatrix};
use crate::online::{OnlineConfig, OnlineStats};
use crate::policy::{CellChoice, Policy, PolicyCtx};
use crate::store::{DriftPolicy, ObservationStore};
use limeqo_linalg::rng::SeededRng;
use limeqo_linalg::Mat;

/// An input to the engine. Every event is exactly what the durability
/// journal records: replaying them against a snapshot reproduces the
/// engine bit for bit. Reads (a query's current best hint) are not events;
/// they go straight to [`Engine::wm`].
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Timer tick: ask the policy for the next offline probe batch
    /// (overhead-metered). Emits one [`Action::Probe`] per selected cell.
    Tick,
    /// A probe finished: the executed latency, or the timeout bound if the
    /// probe was cancelled (`censored`). Resolves a pending [`Action::Probe`]
    /// from either a tick (offline) or a gambling arrival (online).
    Observation {
        /// Query (row) probed.
        row: usize,
        /// Hint (column) probed.
        col: usize,
        /// Measured latency, or the timeout bound when censored.
        value: f64,
        /// Whether the probe hit its timeout.
        censored: bool,
    },
    /// A query arrived and must be served (online mode). Emits either a
    /// [`Action::Recommend`] immediately or a [`Action::Probe`] gamble whose
    /// observation produces the recommendation.
    Arrival {
        /// Query (row) that arrived.
        row: usize,
    },
    /// Workload shift (§5.3): new queries appended, each with its
    /// already-measured default-plan latency.
    AddQueries {
        /// Default-plan latency of each appended query, in order.
        defaults: Vec<f64>,
    },
    /// Data shift (§5.4): the underlying data changed. Retention (see
    /// [`DriftPolicy`]) is applied to the stale observations, then the
    /// online re-measurements are recorded in order. Build the observation
    /// list with [`data_shift_observations`].
    DataShift {
        /// Active row count after the shift (may shrink).
        new_rows: usize,
        /// Fresh `(row, col, latency)` measurements taken online against
        /// the new data, recorded after retention is applied.
        observations: Vec<(usize, usize, f64)>,
    },
    /// A probe errored or timed out at the transport level — no latency,
    /// not even a censored bound, came back. The engine schedules a
    /// bounded retry with deterministic exponential backoff (counted in
    /// ticks, see [`RetryPolicy`]); an online gamble falls back to its
    /// incumbent immediately. Journaled like any other event so recovery
    /// replays the same retry schedule bit for bit.
    ProbeFailed {
        /// Query (row) whose probe failed.
        row: usize,
        /// Hint (column) whose probe failed.
        col: usize,
    },
}

/// Execute a probe of cell (`row`, `col`) under timeout τ = `timeout`,
/// given the cell's true latency: the paper's time accounting (Eq. 3 +
/// Eq. 5) as one [`Event::Observation`]. A probe that runs past τ is
/// cancelled there, so it is charged τ and becomes a censored lower
/// bound; one that finishes within τ (including exactly at τ) is charged
/// its latency and observed complete. Every driver — the harnesses, the
/// service, the benches and the tests — builds its observations here.
///
/// A non-finite `truth` is passed through unchanged, so the engine's
/// non-finite guard turns it into a probe failure.
pub fn execute_probe(row: usize, col: usize, timeout: f64, truth: f64) -> Event {
    let censored = truth > timeout;
    let value = if censored { timeout } else { truth };
    Event::Observation { row, col, value, censored }
}

/// An output directive. The engine never talks to an oracle or a DBMS —
/// it asks its driver to, through these.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Execute query `row` with hint `col`, aborting after `timeout`
    /// seconds; report the result back as an [`Event::Observation`].
    Probe {
        /// Query (row) to execute.
        row: usize,
        /// Hint (column) to execute.
        col: usize,
        /// Abort past this many seconds (the cell becomes censored).
        timeout: f64,
    },
    /// Serve query `row` with hint `col`; `latency` is what the arrival
    /// experienced (for a cancelled gamble it includes the wasted budget).
    Recommend {
        /// Query (row) served.
        row: usize,
        /// Hint (column) served.
        col: usize,
        /// Latency the arrival experienced.
        latency: f64,
    },
}

/// An issued online gamble awaiting its observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PendingGamble {
    pub(crate) row: usize,
    pub(crate) col: usize,
    pub(crate) incumbent_col: usize,
    pub(crate) incumbent_lat: f64,
}

/// Bounded-retry policy for failed probes ([`Event::ProbeFailed`]).
///
/// Backoff is *deterministic and tick-denominated*: a probe that has
/// failed `k` times is re-issued `backoff_base << (k - 1)` ticks after the
/// failure (1, 2, 4, … ticks with the default base), never by wall clock.
/// Because the schedule is a pure function of journaled events, crash
/// recovery replays the exact same retries at the exact same ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Give up on a cell after this many failed attempts beyond the first
    /// (the cell stays unobserved; the policy may re-select it later).
    pub max_retries: usize,
    /// Base backoff in ticks; doubles per consecutive failure.
    pub backoff_base: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 3, backoff_base: 1 }
    }
}

/// A failed probe waiting out its backoff before re-issue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RetryProbe {
    pub(crate) row: usize,
    pub(crate) col: usize,
    pub(crate) timeout: f64,
    /// Re-issue at the first tick where `ticks >= due_tick`.
    pub(crate) due_tick: u64,
}

/// The event-driven exploration engine. See the module docs for the
/// mechanism/driver split; construct with [`Engine::offline`] or
/// [`Engine::online`].
pub struct Engine<'a> {
    pub(crate) store: ObservationStore,
    pub(crate) policy: Option<Box<dyn Policy + 'a>>,
    pub(crate) completer: Option<Box<dyn Completer + Send + 'a>>,
    est_cost: Option<&'a Mat>,
    pub(crate) batch: usize,
    pub(crate) retention: DriftPolicy,
    pub(crate) online_cfg: Option<OnlineConfig>,
    /// Online gamble attempts since the completion model was last re-fit.
    /// Starts saturated, so the first gamble always refreshes.
    pub(crate) since_refresh: usize,
    pub(crate) rng: SeededRng,
    /// Simulated offline exploration seconds spent (Eq. 3).
    pub(crate) time_spent: f64,
    /// Wall-clock model overhead seconds (Figs. 7/13). Informational: not
    /// part of the determinism contract and not persisted, so recovery
    /// starts it at 0.
    pub(crate) overhead: f64,
    pub(crate) cells_executed: usize,
    pub(crate) trace: Vec<TraceEntry>,
    /// Offline probes issued but not yet observed. After recovery these are
    /// re-emitted so the driver can re-execute them (at-least-once
    /// delivery; the store update is idempotent because the oracle is
    /// deterministic).
    pub(crate) pending: Vec<CellChoice>,
    pub(crate) predictions: Option<Mat>,
    pub(crate) gamble: Option<PendingGamble>,
    pub(crate) stats: OnlineStats,
    /// Static retry configuration (not persisted; part of the config tag).
    pub(crate) retry: RetryPolicy,
    /// Ticks processed — the denomination retry backoff counts in.
    pub(crate) ticks: u64,
    /// Failed probes waiting out their backoff.
    pub(crate) retry_queue: Vec<RetryProbe>,
    /// Consecutive-failure counts per cell still being retried.
    pub(crate) fail_counts: Vec<(usize, usize, u32)>,
    /// Total [`Event::ProbeFailed`]s accepted.
    pub(crate) probe_failures: usize,
    /// Probes re-issued after backoff.
    pub(crate) probe_retries: usize,
    /// Probes abandoned after exhausting `retry.max_retries`.
    pub(crate) probes_dropped: usize,
}

impl<'a> Engine<'a> {
    /// An offline engine: ticks run the policy, probes are charged to the
    /// simulated clock. Seed derivation (`seed ^ 0xEE77`) matches the
    /// legacy [`crate::explore::Explorer`] exactly.
    pub fn offline(
        store: ObservationStore,
        policy: Box<dyn Policy + 'a>,
        est_cost: Option<&'a Mat>,
        cfg: &ExploreConfig,
    ) -> Self {
        Engine {
            store,
            policy: Some(policy),
            completer: None,
            est_cost,
            batch: cfg.batch,
            retention: cfg.retention,
            online_cfg: None,
            since_refresh: usize::MAX / 2,
            rng: SeededRng::new(cfg.seed ^ 0xEE77),
            time_spent: 0.0,
            overhead: 0.0,
            cells_executed: 0,
            trace: Vec::new(),
            pending: Vec::new(),
            predictions: None,
            gamble: None,
            stats: OnlineStats::default(),
            retry: cfg.retry,
            ticks: 0,
            retry_queue: Vec::new(),
            fail_counts: Vec::new(),
            probe_failures: 0,
            probe_retries: 0,
            probes_dropped: 0,
        }
    }

    /// An online engine: arrivals are served, gambles probe unverified
    /// hints under the ρ-bounded budget. Seed derivation (`seed ^ 0x0411E`)
    /// matches the legacy [`crate::online::OnlineExplorer`] exactly.
    pub fn online(
        store: ObservationStore,
        completer: Box<dyn Completer + Send + 'a>,
        cfg: &OnlineConfig,
    ) -> Self {
        Engine {
            store,
            policy: None,
            completer: Some(completer),
            est_cost: None,
            batch: 0,
            retention: DriftPolicy::legacy(),
            since_refresh: usize::MAX / 2,
            rng: SeededRng::new(cfg.seed ^ 0x0411E),
            online_cfg: Some(cfg.clone()),
            time_spent: 0.0,
            overhead: 0.0,
            cells_executed: 0,
            trace: Vec::new(),
            pending: Vec::new(),
            predictions: None,
            gamble: None,
            stats: OnlineStats::default(),
            retry: RetryPolicy::default(),
            ticks: 0,
            retry_queue: Vec::new(),
            fail_counts: Vec::new(),
            probe_failures: 0,
            probe_retries: 0,
            probes_dropped: 0,
        }
    }

    /// Process one event, returning the directives the driver must act on.
    /// A malformed event is ignored whole: it returns no action and moves
    /// nothing. That is an arrival for a row past the matrix or without a
    /// measured default, appended queries with a default that is negative or
    /// not finite, and a data shift with an observation outside the
    /// post-shift matrix or a latency that is negative or not finite.
    pub fn step(&mut self, event: Event) -> Vec<Action> {
        if !self.accepts(&event) {
            return Vec::new();
        }
        match event {
            Event::Tick => self.on_tick(),
            Event::Observation { row, col, value, censored } => {
                self.on_observation(row, col, value, censored)
            }
            Event::Arrival { row } => self.on_arrival(row),
            Event::AddQueries { defaults } => self.on_add_queries(&defaults),
            Event::DataShift { new_rows, observations } => {
                self.on_data_shift(new_rows, &observations)
            }
            Event::ProbeFailed { row, col } => self.on_probe_failed(row, col),
        }
    }

    /// Whether `event` fits the matrix it would change (see [`Engine::step`]
    /// for what does not), checked before anything moves.
    fn accepts(&self, event: &Event) -> bool {
        let wm = self.store.matrix();
        let latency = |v: f64| v.is_finite() && v >= 0.0;
        match event {
            Event::Arrival { row } => {
                *row < wm.n_rows()
                    && matches!(wm.cell(*row, WorkloadMatrix::DEFAULT_HINT), Cell::Complete(_))
            }
            Event::AddQueries { defaults } => defaults.iter().all(|&d| latency(d)),
            Event::DataShift { new_rows, observations } => observations
                .iter()
                .all(|&(row, col, v)| row < *new_rows && col < wm.n_cols() && latency(v)),
            Event::Tick | Event::Observation { .. } | Event::ProbeFailed { .. } => true,
        }
    }

    fn on_tick(&mut self) -> Vec<Action> {
        self.ticks += 1;
        // Re-issue retries whose backoff has elapsed, in schedule order.
        // Fault-free this queue is always empty, so the legacy tick is
        // reproduced exactly (no extra RNG draws, no action reordering).
        let mut actions = Vec::new();
        let mut i = 0;
        while i < self.retry_queue.len() {
            if self.retry_queue[i].due_tick <= self.ticks {
                let r = self.retry_queue.remove(i);
                self.pending.push(CellChoice { row: r.row, col: r.col, timeout: r.timeout });
                self.probe_retries += 1;
                actions.push(Action::Probe { row: r.row, col: r.col, timeout: r.timeout });
            } else {
                i += 1;
            }
        }
        let started = std::time::Instant::now();
        let mut selection = {
            let ctx = PolicyCtx {
                wm: self.store.matrix(),
                est_cost: self.est_cost,
                store: Some(&self.store),
            };
            self.policy.as_mut().expect("Event::Tick requires an offline policy").select(
                &ctx,
                self.batch,
                &mut self.rng,
            )
        };
        self.overhead += started.elapsed().as_secs_f64();
        // A cell already in flight or awaiting retry must not be probed a
        // second time (a duplicate observation would double-charge the
        // clock). No-op fault-free: both lists are empty at tick time in
        // the synchronous drivers.
        selection.retain(|c| {
            !self.pending.iter().any(|p| p.row == c.row && p.col == c.col)
                && !self.retry_queue.iter().any(|r| r.row == c.row && r.col == c.col)
        });
        self.pending.extend_from_slice(&selection);
        actions.extend(selection.into_iter().map(|c| Action::Probe {
            row: c.row,
            col: c.col,
            timeout: c.timeout,
        }));
        actions
    }

    fn on_observation(
        &mut self,
        row: usize,
        col: usize,
        value: f64,
        censored: bool,
    ) -> Vec<Action> {
        // A non-finite or negative latency is a transport failure wearing
        // an observation's clothes — route it through the failure path
        // before it can poison the store (and the ALS factors downstream).
        if !value.is_finite() || value < 0.0 {
            return self.on_probe_failed(row, col);
        }
        if let Some(g) = self.gamble {
            if g.row == row && g.col == col {
                self.gamble = None;
                return self.resolve_gamble(g, value, censored);
            }
        }
        let Some(pos) = self.pending.iter().position(|c| c.row == row && c.col == col) else {
            // No probe is pending for this cell: a duplicate delivery, a
            // result for a probe a data shift cleared or a failure moved to
            // the retry queue, or a cell nobody probed. Ignore it, as
            // unknown failures are ignored.
            return Vec::new();
        };
        self.pending.remove(pos);
        self.clear_fail_count(row, col);
        if censored {
            self.store.record_censored(row, col, value);
        } else {
            self.store.record_complete(row, col, value);
        }
        self.time_spent += value;
        self.trace.push(TraceEntry { row, col, charged: value, censored });
        self.cells_executed += 1;
        Vec::new()
    }

    fn on_probe_failed(&mut self, row: usize, col: usize) -> Vec<Action> {
        if let Some(g) = self.gamble {
            if g.row == row && g.col == col {
                // A failed gamble reruns the incumbent: the arrival paid
                // the incumbent's latency, nothing enters the matrix.
                self.gamble = None;
                self.probe_failures += 1;
                self.stats.total_latency += g.incumbent_lat;
                return vec![Action::Recommend {
                    row: g.row,
                    col: g.incumbent_col,
                    latency: g.incumbent_lat,
                }];
            }
        }
        let Some(pos) = self.pending.iter().position(|c| c.row == row && c.col == col) else {
            // Unknown probe (stale or duplicate failure report): ignore.
            return Vec::new();
        };
        let choice = self.pending.remove(pos);
        self.probe_failures += 1;
        let failures = self.bump_fail_count(row, col);
        if (failures as usize) <= self.retry.max_retries {
            let shift = u32::min(failures - 1, 32);
            let due = self.ticks + (self.retry.backoff_base << shift);
            self.retry_queue.push(RetryProbe { row, col, timeout: choice.timeout, due_tick: due });
        } else {
            // Out of retries: abandon the cell (it stays unobserved, so
            // the policy is free to re-select it in a later round).
            self.probes_dropped += 1;
            self.clear_fail_count(row, col);
        }
        Vec::new()
    }

    fn bump_fail_count(&mut self, row: usize, col: usize) -> u32 {
        if let Some(e) = self.fail_counts.iter_mut().find(|(r, c, _)| *r == row && *c == col) {
            e.2 += 1;
            return e.2;
        }
        self.fail_counts.push((row, col, 1));
        1
    }

    fn clear_fail_count(&mut self, row: usize, col: usize) {
        self.fail_counts.retain(|&(r, c, _)| r != row || c != col);
    }

    fn resolve_gamble(&mut self, g: PendingGamble, value: f64, censored: bool) -> Vec<Action> {
        let (experienced, served_col) = if censored {
            // Cancelled at the bound; the incumbent reruns. The arrival
            // paid budget + incumbent — still within (ρ + 1)× worst case,
            // and the bound is recorded for the model.
            self.store.record_censored(g.row, g.col, value);
            self.stats.cancelled += 1;
            (value + g.incumbent_lat, g.incumbent_col)
        } else {
            self.store.record_complete(g.row, g.col, value);
            if value < g.incumbent_lat {
                self.stats.wins += 1;
            }
            (value, g.col)
        };
        self.stats.total_latency += experienced;
        vec![Action::Recommend { row: g.row, col: served_col, latency: experienced }]
    }

    fn on_arrival(&mut self, row: usize) -> Vec<Action> {
        let cfg = self.online_cfg.clone().expect("Event::Arrival requires an online engine");
        let wm = self.store.matrix();
        let (incumbent_col, incumbent_lat) = wm.row_best(row).expect("default always observed");
        // The default column is observed at construction and a gamble never
        // re-probes a completed cell, so cell (row, 0) still holds the
        // default latency the legacy explorer read from its oracle.
        let default_lat = match wm.cell(row, WorkloadMatrix::DEFAULT_HINT) {
            Cell::Complete(v) => v,
            _ => unreachable!("default column is always complete"),
        };
        self.stats.arrivals += 1;
        self.stats.default_latency += default_lat;
        self.stats.incumbent_latency += incumbent_lat;

        let explore_prob = if cfg.cold_bonus > 0.0 {
            let observed = wm.row_observed_count(row).max(1);
            (cfg.explore_prob + cfg.cold_bonus / (observed as f64).sqrt()).min(1.0)
        } else {
            cfg.explore_prob
        };
        let gamble = self.rng.chance(explore_prob);
        if !gamble {
            self.stats.total_latency += incumbent_lat;
            return vec![Action::Recommend { row, col: incumbent_col, latency: incumbent_lat }];
        }
        self.stats.explored += 1;
        let mut actions = Vec::new();
        // Re-fit when no predictions exist or the period elapsed; the
        // staleness counter advances per gamble either way.
        if self.predictions.is_none() || self.since_refresh >= cfg.refresh_every {
            self.since_refresh = 0;
            let started = std::time::Instant::now();
            self.predictions = Some(
                self.completer
                    .as_mut()
                    .expect("online engine needs a completer")
                    .complete(self.store.matrix()),
            );
            self.overhead += started.elapsed().as_secs_f64();
        }
        self.since_refresh += 1;
        let pred = self.predictions.as_ref().expect("predictions fresh");
        let wm = self.store.matrix();

        // Best predicted not-yet-verified hint for this query.
        let mut cand: Option<(usize, f64)> = None;
        for col in 0..wm.n_cols() {
            if matches!(wm.cell(row, col), Cell::Complete(_)) {
                continue;
            }
            let p = pred[(row, col)];
            if cand.map_or(true, |(_, b)| p < b) {
                cand = Some((col, p));
            }
        }
        // Serve the incumbent unless the model predicts a real win.
        let gamble_col = match cand {
            Some((col, predicted)) if predicted < incumbent_lat => col,
            _ => {
                self.stats.total_latency += incumbent_lat;
                actions.push(Action::Recommend { row, col: incumbent_col, latency: incumbent_lat });
                return actions;
            }
        };
        let budget = cfg.rho * incumbent_lat;
        self.gamble = Some(PendingGamble { row, col: gamble_col, incumbent_col, incumbent_lat });
        actions.push(Action::Probe { row, col: gamble_col, timeout: budget });
        actions
    }

    fn on_add_queries(&mut self, defaults: &[f64]) -> Vec<Action> {
        self.store.add_rows(defaults.len());
        let base = self.store.matrix().n_rows() - defaults.len();
        for (i, &d) in defaults.iter().enumerate() {
            self.store.record_complete(base + i, WorkloadMatrix::DEFAULT_HINT, d);
        }
        // Predictions cover the old rows only: the next gamble re-fits.
        self.predictions = None;
        Vec::new()
    }

    fn on_data_shift(
        &mut self,
        new_rows: usize,
        observations: &[(usize, usize, f64)],
    ) -> Vec<Action> {
        let same_rows = new_rows == self.store.matrix().n_rows();
        let retain = self.retention.retain_priors && same_rows;
        if retain {
            self.store.demote_to_priors(self.retention.prior_decay);
        } else if same_rows {
            self.store.discard_all();
        } else {
            // The new data exposes fewer rows, which priors cannot
            // describe: discard at the new shape (epoch still advances —
            // the post-shift matrix is starved either way).
            self.store.discard_resized(new_rows);
        }
        for &(row, col, value) in observations {
            self.store.record_complete(row, col, value);
        }
        // Queued probes describe the old data; in the legacy driver order
        // every batch is fully observed before a shift, so this is a no-op
        // there — it only matters for a service shifted mid-round. Retries
        // and their failure counts describe the old data too.
        self.pending.clear();
        self.retry_queue.clear();
        self.fail_counts.clear();
        self.predictions = None;
        Vec::new()
    }

    /// The observation store.
    pub fn store(&self) -> &ObservationStore {
        &self.store
    }

    /// The partially observed workload matrix.
    pub fn wm(&self) -> &WorkloadMatrix {
        self.store.matrix()
    }

    /// Simulated offline exploration seconds spent.
    pub fn time_spent(&self) -> f64 {
        self.time_spent
    }

    /// Wall-clock model overhead seconds.
    pub fn overhead(&self) -> f64 {
        self.overhead
    }

    /// Cells executed so far (complete + censored).
    pub fn cells_executed(&self) -> usize {
        self.cells_executed
    }

    /// Every offline execution in order — the run's exploration trace.
    pub fn trace(&self) -> &[TraceEntry] {
        &self.trace
    }

    /// Accumulated online statistics (zeroed for offline engines).
    pub fn stats(&self) -> &OnlineStats {
        &self.stats
    }

    /// Probes issued but not yet observed. After [`crate::persist`]
    /// recovery the driver must re-execute these (the journal may have
    /// recorded the tick but lost some of its observations).
    pub fn pending(&self) -> &[CellChoice] {
        &self.pending
    }

    /// Failed probes still waiting out their backoff. A driver whose tick
    /// produced no actions should keep ticking while this is non-zero —
    /// the retries become due within the bounded backoff horizon.
    pub fn retry_pending(&self) -> usize {
        self.retry_queue.len()
    }

    /// Total [`Event::ProbeFailed`]s accepted (gamble and offline).
    pub fn probe_failures(&self) -> usize {
        self.probe_failures
    }

    /// Probes re-issued after their backoff elapsed.
    pub fn probe_retries(&self) -> usize {
        self.probe_retries
    }

    /// Probes abandoned after exhausting [`RetryPolicy::max_retries`].
    pub fn probes_dropped(&self) -> usize {
        self.probes_dropped
    }

    /// All probes the engine is waiting on, including an online gamble in
    /// flight (its ρ-bounded timeout is recomputed from the stored
    /// incumbent). After recovery the driver re-executes these and feeds
    /// the results back as `Observation` events — at-least-once delivery
    /// is safe because the oracle is deterministic and observations are
    /// idempotent.
    pub fn outstanding_probes(&self) -> Vec<CellChoice> {
        let mut probes = self.pending.clone();
        if let (Some(g), Some(cfg)) = (&self.gamble, &self.online_cfg) {
            probes.push(CellChoice { row: g.row, col: g.col, timeout: cfg.rho * g.incumbent_lat });
        }
        probes
    }

    /// Point the engine at a new environment's cost estimates (data shift).
    pub fn set_est_cost(&mut self, est_cost: Option<&'a Mat>) {
        self.est_cost = est_cost;
    }
}

/// Build the online re-measurement list for a data shift, in the exact
/// order the legacy harness observed them: per row, the default plan, then
/// the cached best hint (if distinct).
///
/// `probe(row, col)` measures a cell against the *new* data.
pub fn data_shift_observations(
    wm: &WorkloadMatrix,
    new_rows: usize,
    probe: impl Fn(usize, usize) -> f64,
) -> Vec<(usize, usize, f64)> {
    let mut obs = Vec::new();
    for i in 0..new_rows {
        obs.push((i, WorkloadMatrix::DEFAULT_HINT, probe(i, WorkloadMatrix::DEFAULT_HINT)));
        if let Some((b, _)) = wm.row_best(i) {
            if b != WorkloadMatrix::DEFAULT_HINT {
                obs.push((i, b, probe(i, b)));
            }
        }
    }
    obs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RandomPolicy;

    fn offline_engine(retry: RetryPolicy) -> Engine<'static> {
        let store = ObservationStore::with_defaults(&[10.0, 8.0, 12.0], 4);
        let cfg = ExploreConfig { batch: 1, seed: 9, retry, ..Default::default() };
        Engine::offline(store, Box::new(RandomPolicy), None, &cfg)
    }

    fn first_probe(actions: &[Action]) -> Option<(usize, usize, f64)> {
        actions.iter().find_map(|a| match *a {
            Action::Probe { row, col, timeout } => Some((row, col, timeout)),
            _ => None,
        })
    }

    /// Everything an event can move: the store, the clock, the trace, the
    /// executed-cell count, the retry queue, the online stats, the pending
    /// probes and gamble, whether predictions are fitted, and the RNG.
    fn footprint(e: &Engine<'_>) -> String {
        let mut enc = crate::persist::Enc::new();
        e.store.save_state(&mut enc);
        let (clock, cells) = (e.time_spent, e.cells_executed);
        let (trace, retries, stats) = (&e.trace, &e.retry_queue, &e.stats);
        let (pending, gamble, fitted) = (&e.pending, &e.gamble, e.predictions.is_some());
        let rng = e.rng.state();
        let moved = format!("{pending:?} {gamble:?} {fitted} {rng:?}");
        format!("{} {clock} {cells} {trace:?} {retries:?} {stats:?} {moved}", enc.finish())
    }

    #[test]
    fn failed_probes_retry_on_the_exponential_backoff_schedule() {
        let mut e = offline_engine(RetryPolicy { max_retries: 3, backoff_base: 1 });
        let (row, col, timeout) = first_probe(&e.step(Event::Tick)).expect("batch of 1");
        // Failure #1 at tick 1: due at 1 + (1 << 0) = tick 2.
        assert!(e.step(Event::ProbeFailed { row, col }).is_empty());
        assert_eq!((e.probe_failures(), e.retry_pending()), (1, 1));
        let actions = e.step(Event::Tick); // tick 2: due
        assert_eq!(actions.first(), Some(&Action::Probe { row, col, timeout }));
        assert_eq!(e.probe_retries(), 1);
        // Failure #2 at tick 2: due at 2 + (1 << 1) = tick 4.
        e.step(Event::ProbeFailed { row, col });
        let tick3 = e.step(Event::Tick);
        assert_ne!(first_probe(&tick3).map(|(r, c, _)| (r, c)), Some((row, col)));
        assert_eq!(e.probe_retries(), 1, "backoff not elapsed at tick 3");
        let tick4 = e.step(Event::Tick);
        assert_eq!(tick4.first(), Some(&Action::Probe { row, col, timeout }));
        assert_eq!(e.probe_retries(), 2);
    }

    #[test]
    fn probes_drop_after_max_retries_and_the_cell_stays_selectable() {
        let mut e = offline_engine(RetryPolicy { max_retries: 1, backoff_base: 1 });
        let (row, col, _) = first_probe(&e.step(Event::Tick)).expect("batch of 1");
        e.step(Event::ProbeFailed { row, col });
        e.step(Event::Tick); // re-issue the single allowed retry
        assert_eq!(e.probe_retries(), 1);
        e.step(Event::ProbeFailed { row, col });
        assert_eq!(e.probes_dropped(), 1);
        assert_eq!(e.retry_pending(), 0);
        // Abandoned, not poisoned: the cell is still unobserved, so the
        // policy may pick it again from scratch in a later round.
        assert_eq!(e.wm().cell(row, col), Cell::Unobserved);
        assert!(e.fail_counts.is_empty(), "drop must clear the failure count");
    }

    #[test]
    fn non_finite_observations_take_the_failure_path() {
        let mut e = offline_engine(RetryPolicy::default());
        let (row, col, _) = first_probe(&e.step(Event::Tick)).expect("batch of 1");
        let (spent, cells) = (e.time_spent(), e.cells_executed());
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            e.step(Event::Observation { row, col, value: bad, censored: false });
        }
        // Only the first report hit a pending probe; the rest were stale
        // duplicates. Nothing was charged, recorded, or traced.
        assert_eq!(e.probe_failures(), 1);
        assert_eq!(e.retry_pending(), 1);
        assert_eq!(e.wm().cell(row, col), Cell::Unobserved);
        assert_eq!((e.time_spent(), e.cells_executed()), (spent, cells));
        assert!(e.trace().is_empty());
    }

    #[test]
    fn execute_probe_censors_strictly_past_the_timeout() {
        let obs =
            |value: f64, censored: bool| Event::Observation { row: 1, col: 2, value, censored };
        assert_eq!(execute_probe(1, 2, 4.0, 3.5), obs(3.5, false));
        // The rule is a strict `>`: finishing exactly at τ is a completion.
        assert_eq!(execute_probe(1, 2, 4.0, 4.0), obs(4.0, false));
        assert_eq!(execute_probe(1, 2, 4.0, 9.0), obs(4.0, true));

        // A NaN latency is not censored and not clamped: it reaches the
        // engine's non-finite guard, which records a probe failure.
        let mut e = offline_engine(RetryPolicy::default());
        let (row, col, timeout) = first_probe(&e.step(Event::Tick)).expect("batch of 1");
        let nan = execute_probe(row, col, timeout, f64::NAN);
        assert!(matches!(nan, Event::Observation { value, censored: false, .. } if value.is_nan()));
        e.step(nan);
        assert_eq!((e.probe_failures(), e.retry_pending()), (1, 1));
        assert_eq!(e.wm().cell(row, col), Cell::Unobserved);
        assert_eq!((e.time_spent(), e.cells_executed()), (0.0, 0));
    }

    #[test]
    fn unknown_probe_failures_are_ignored() {
        let mut e = offline_engine(RetryPolicy::default());
        e.step(Event::Tick);
        assert!(e.step(Event::ProbeFailed { row: 2, col: 3 }).is_empty());
        assert_eq!(e.probe_failures(), 0);
        assert_eq!(e.retry_pending(), 0);
    }

    #[test]
    fn a_successful_retry_clears_the_failure_count() {
        let mut e = offline_engine(RetryPolicy { max_retries: 2, backoff_base: 1 });
        let (row, col, timeout) = first_probe(&e.step(Event::Tick)).expect("batch of 1");
        e.step(Event::ProbeFailed { row, col });
        e.step(Event::Tick);
        e.step(Event::Observation { row, col, value: timeout.min(1.0), censored: false });
        assert!(e.fail_counts.is_empty());
        assert!(matches!(e.wm().cell(row, col), Cell::Complete(_)));
    }

    /// A fixed-prediction completer: makes the online gamble decision
    /// deterministic without an ALS fit.
    struct FlatCompleter(f64);
    impl Completer for FlatCompleter {
        fn complete(&mut self, wm: &WorkloadMatrix) -> Mat {
            Mat::from_fn(wm.n_rows(), wm.n_cols(), |_, _| self.0)
        }
        fn name(&self) -> &'static str {
            "flat"
        }
    }

    #[test]
    fn a_failed_gamble_serves_the_incumbent() {
        let store = ObservationStore::with_defaults(&[10.0], 3);
        let cfg = OnlineConfig { explore_prob: 1.0, ..Default::default() };
        let mut e = Engine::online(store, Box::new(FlatCompleter(1.0)), &cfg);
        let actions = e.step(Event::Arrival { row: 0 });
        let (row, col, _) = first_probe(&actions).expect("prediction 1.0 < incumbent 10.0");
        let out = e.step(Event::ProbeFailed { row, col });
        assert_eq!(
            out,
            vec![Action::Recommend { row: 0, col: WorkloadMatrix::DEFAULT_HINT, latency: 10.0 }]
        );
        assert_eq!(e.probe_failures(), 1);
        // The arrival paid the incumbent; nothing entered the matrix.
        assert_eq!(e.stats().total_latency, 10.0);
        assert_eq!(e.wm().cell(0, col), Cell::Unobserved);
        assert_eq!(e.retry_pending(), 0, "gambles fall back, they do not retry");
    }

    #[test]
    fn observations_without_a_pending_probe_are_ignored() {
        // A duplicated delivery.
        let mut e = offline_engine(RetryPolicy::default());
        let (row, col, timeout) = first_probe(&e.step(Event::Tick)).expect("batch of 1");
        e.step(execute_probe(row, col, timeout, 1.0));
        let before = footprint(&e);
        assert!(e.step(execute_probe(row, col, timeout, 1.0)).is_empty());
        assert_eq!(footprint(&e), before, "a duplicated delivery");

        // A result arriving after a data shift cleared the pending probe.
        let mut e = offline_engine(RetryPolicy::default());
        let (row, col, timeout) = first_probe(&e.step(Event::Tick)).expect("batch of 1");
        e.step(Event::DataShift { new_rows: 3, observations: Vec::new() });
        let before = footprint(&e);
        e.step(execute_probe(row, col, timeout, 1.0));
        assert_eq!(footprint(&e), before, "a result after a data shift");

        // A late result after the failure moved the probe to the retry
        // queue: only the retry's result is charged.
        let mut e = offline_engine(RetryPolicy::default());
        let (row, col, timeout) = first_probe(&e.step(Event::Tick)).expect("batch of 1");
        e.step(Event::ProbeFailed { row, col });
        let before = footprint(&e);
        e.step(execute_probe(row, col, timeout, 1.0));
        assert_eq!(footprint(&e), before, "a late result after a failure");
        assert_eq!(e.step(Event::Tick).first(), Some(&Action::Probe { row, col, timeout }));
        e.step(execute_probe(row, col, timeout, 1.0));
        assert_eq!((e.time_spent(), e.cells_executed(), e.trace().len()), (1.0, 1, 1));

        // A non-gamble observation on an online engine.
        let store = ObservationStore::with_defaults(&[10.0], 3);
        let cfg = OnlineConfig { explore_prob: 1.0, ..Default::default() };
        let mut e = Engine::online(store, Box::new(FlatCompleter(1.0)), &cfg);
        let (row, col, _) = first_probe(&e.step(Event::Arrival { row: 0 })).expect("a gamble");
        let other = if col == 1 { 2 } else { 1 };
        let before = footprint(&e);
        e.step(Event::Observation { row, col: other, value: 2.0, censored: false });
        assert_eq!(footprint(&e), before, "a non-gamble observation online");
    }

    #[test]
    fn a_gamble_on_an_appended_row_refits_first() {
        // Predictions fitted at 4 rows must not serve rows added after them,
        // even while the refresh period has not run out.
        let store = ObservationStore::with_defaults(&[10.0, 8.0, 12.0, 9.0], 4);
        let cfg = OnlineConfig { explore_prob: 1.0, ..Default::default() };
        let mut e = Engine::online(store, Box::new(FlatCompleter(1.0)), &cfg);
        let (row, col, timeout) =
            first_probe(&e.step(Event::Arrival { row: 0 })).expect("a gamble");
        e.step(execute_probe(row, col, timeout, 2.0));
        e.step(Event::AddQueries { defaults: vec![7.0, 11.0] });
        let (row, col, _) = first_probe(&e.step(Event::Arrival { row: 5 })).expect("a gamble");
        assert_eq!(row, 5);
        assert_ne!(col, WorkloadMatrix::DEFAULT_HINT);
    }

    #[test]
    fn an_arrival_past_the_matrix_or_without_a_default_is_ignored() {
        let store = ObservationStore::with_defaults(&[10.0, 8.0, 12.0, 9.0], 4);
        let cfg = OnlineConfig { explore_prob: 1.0, ..Default::default() };
        let mut e = Engine::online(store, Box::new(FlatCompleter(1.0)), &cfg);
        let before = footprint(&e);
        assert!(e.step(Event::Arrival { row: 4 }).is_empty());
        assert_eq!(footprint(&e), before, "a row past the matrix");
        // A shift that re-measured row 0's default only: rows 1-3 have no
        // incumbent to serve.
        e.step(Event::DataShift { new_rows: 4, observations: vec![(0, 0, 10.0)] });
        let before = footprint(&e);
        assert!(e.step(Event::Arrival { row: 2 }).is_empty());
        assert_eq!(footprint(&e), before, "a row without a default");
        assert!(!e.step(Event::Arrival { row: 0 }).is_empty(), "a well-formed arrival");
    }

    #[test]
    fn a_data_shift_with_a_malformed_observation_is_ignored() {
        // The shift keeps 2 of the 3 rows, so row 2 lies outside it.
        let bad = [(7, 0, 1.0), (2, 0, 1.0), (0, 4, 1.0), (0, 1, -1.0), (0, 1, f64::NAN)];
        for bad in bad.into_iter().chain([(0, 1, f64::INFINITY)]) {
            let mut e = offline_engine(RetryPolicy::default());
            e.step(Event::Tick); // a pending probe, which a shift clears
            let before = footprint(&e);
            let observations = vec![(0, 0, 10.0), bad];
            assert!(e.step(Event::DataShift { new_rows: 2, observations }).is_empty());
            assert_eq!(footprint(&e), before, "{bad:?}");
        }
    }

    #[test]
    fn appended_queries_with_a_malformed_default_are_ignored() {
        let store = ObservationStore::with_defaults(&[10.0, 8.0], 3);
        let cfg = OnlineConfig { explore_prob: 1.0, ..Default::default() };
        let mut e = Engine::online(store, Box::new(FlatCompleter(1.0)), &cfg);
        let (row, col, timeout) =
            first_probe(&e.step(Event::Arrival { row: 0 })).expect("a gamble");
        e.step(execute_probe(row, col, timeout, 2.0)); // predictions stay fitted
        for bad in [f64::NAN, -1.0, f64::INFINITY] {
            let before = footprint(&e);
            assert!(e.step(Event::AddQueries { defaults: vec![7.0, bad] }).is_empty());
            assert_eq!(footprint(&e), before, "default {bad}");
        }
        assert_eq!(e.wm().n_rows(), 2);
    }
}
