//! The always-on LimeQO optimizer service.
//!
//! `limeqo-svc` hosts the tick-driven [`limeqo_core::Engine`] behind a
//! newline-delimited JSON protocol (one request object per line on stdin,
//! one response object per line on stdout) with durable state through
//! [`limeqo_core::persist`]: every mutating request is journaled before it
//! is applied (`hint`, `status` and `trace` are plain reads of the
//! in-memory engine and journal nothing), snapshots are taken
//! periodically, and restarting the daemon on an existing state directory
//! resumes the exploration bit-identically from the kill point — including
//! re-executing probes that were in flight when the process died.
//!
//! The service explores a *simulated* workload: a deterministic synthetic
//! low-rank latency oracle derived from the `init` request's seed (the
//! repo is DBMS-agnostic; a production deployment would execute probes
//! against a real database instead). The oracle parameters are persisted
//! in `svc-config.json` inside the state directory, so recovery rebuilds
//! the exact same environment.
//!
//! # Protocol
//!
//! | request | response |
//! |---|---|
//! | `{"op":"init","n":N,"k":K,"seed":S,"batch":B[,"shards":T]}` | `{"ok":true,"op":"init"}` |
//! | `{"op":"tick"}` | `{"ok":true,"op":"tick","probes":P,"time_spent":T}` |
//! | `{"op":"hint","row":R}` | `{"ok":true,"op":"hint","col":C,"latency":L}` |
//! | `{"op":"status"}` | `{"ok":true,...,"event_index":E,"cells":C}` |
//! | `{"op":"snapshot"}` | `{"ok":true,"op":"snapshot"}` |
//! | `{"op":"trace"}` | `{"ok":true,"op":"trace","entries":[[r,c,"bits",0/1],…]}` |
//! | `{"op":"shutdown"}` | `{"ok":true,"op":"shutdown"}` and the loop ends |
//!
//! Errors come back as `{"ok":false,"error":"…"}`; the daemon keeps
//! serving. Requests are bounded at [`MAX_LINE_BYTES`] — an oversized
//! line is answered with an error and never parsed, so a runaway client
//! cannot balloon the daemon's memory. The sizes an `init` asks for are
//! bounded as well, before anything is allocated: at most [`MAX_CELLS`]
//! cells, 1..=65536 shards, and a batch no larger than the matrix (a
//! hand-edited `svc-config.json` meets the same bounds on restart).
//! `trace` reports each entry's charged seconds as the hex
//! [`f64::to_bits`] image, so two traces are equal if and only if the
//! exploration histories are bit-identical — that is what the CI crash
//! smoke diffs.
//!
//! # Degraded mode
//!
//! A persist failure (journal append, snapshot write) does not kill the
//! daemon: it drops to **degraded** mode — the in-memory engine keeps
//! advancing and `hint`/`status`/`tick` keep serving, but nothing is
//! journaled. `status` reports `"degraded":true` plus the last persist
//! error; durability re-arms automatically at the next snapshot-cadence
//! boundary (or on an explicit `snapshot` request) by writing a fresh
//! full snapshot of the current state. Because faults live entirely in
//! the persistence layer, a degraded run's exploration trace is
//! bit-identical to a fault-free one.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fs;
use std::path::{Path, PathBuf};

use limeqo_bench::Json;
use limeqo_core::explore::ExploreConfig;
use limeqo_core::matrix::WorkloadMatrix;
use limeqo_core::persist::{DurableConfig, DurableEngine, PersistError};
use limeqo_core::policy::LimeQoPolicy;
use limeqo_core::store::ObservationStore;
use limeqo_core::{execute_probe, Action, Engine, Event, FsStorage, Storage};
use limeqo_linalg::rng::SeededRng;
use limeqo_linalg::Mat;

/// Upper bound on one request line. Protocol requests are tiny (tens of
/// bytes); anything past this is a broken or hostile client, and the
/// daemon answers with an error instead of parsing it.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// An error when `line` exceeds [`MAX_LINE_BYTES`].
fn check_line(line: &str) -> Result<(), String> {
    if line.len() > MAX_LINE_BYTES {
        return Err(format!(
            "request line of {} bytes exceeds the {MAX_LINE_BYTES}-byte limit",
            line.len()
        ));
    }
    Ok(())
}

/// The `{"ok":false,"error":…}` reply line for `msg`.
pub fn error_reply(msg: String) -> String {
    Json::Obj(vec![("ok".into(), Json::Bool(false)), ("error".into(), Json::Str(msg))]).render()
}

/// Largest simulated workload the daemon accepts, in matrix cells
/// (`n·k`). One protocol line may not make the daemon allocate more.
pub use limeqo_core::MAX_CELLS;

/// The persisted service environment: shape and seeds of the simulated
/// workload plus the exploration batch size. Everything the engine's
/// static configuration derives from; stored as `svc-config.json` in the
/// state directory and required to match on recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Queries (rows) in the simulated workload.
    pub n: usize,
    /// Hints (columns) per query.
    pub k: usize,
    /// Seed for the synthetic oracle, the policy's completer, and the
    /// engine RNG.
    pub seed: u64,
    /// Probes issued per tick.
    pub batch: usize,
    /// Row-range shards of the workload matrix (1 = the unsharded engine;
    /// N = the multi-tenant tier). A pure storage knob: the exploration
    /// trace is bit-identical at every value.
    pub shards: usize,
}

impl ServiceConfig {
    /// Serialize for `svc-config.json`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("n".into(), Json::Num(self.n as f64)),
            ("k".into(), Json::Num(self.k as f64)),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("batch".into(), Json::Num(self.batch as f64)),
            ("shards".into(), Json::Num(self.shards as f64)),
        ])
    }

    /// Parse from `svc-config.json` contents.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let field = |name: &str| {
            v.get(name)
                .and_then(Json::as_num)
                .filter(|x| x.is_finite() && *x >= 0.0 && x.fract() == 0.0)
                .ok_or_else(|| format!("svc-config: missing or bad field {name:?}"))
        };
        // Pre-sharding state directories have no "shards" field; they are
        // single-shard by construction.
        let shards = match v.get("shards") {
            None => 1,
            Some(_) => field("shards")? as usize,
        };
        Ok(ServiceConfig {
            n: field("n")? as usize,
            k: field("k")? as usize,
            seed: field("seed")? as u64,
            batch: field("batch")? as usize,
            shards,
        })
    }

    /// Check the bounds every configuration must meet before anything is
    /// allocated for it: positive sizes, `shards` in 1..=65536, at most
    /// [`MAX_CELLS`] cells, and `batch` no larger than the matrix. Both
    /// [`handle_init_with`] and [`Service::open_with`] run it, so a
    /// hand-edited `svc-config.json` meets the same rules as an `init`.
    pub(crate) fn check(&self) -> Result<(), String> {
        if self.n == 0 || self.k == 0 || self.batch == 0 || self.shards == 0 {
            return Err("n, k, batch and shards must be positive".into());
        }
        if self.shards > 1 << 16 {
            return Err(format!("shards must be in 1..=65536, got {}", self.shards));
        }
        let cells = self.n.checked_mul(self.k).filter(|&c| c <= MAX_CELLS).ok_or_else(|| {
            format!("a {}x{} workload exceeds the {MAX_CELLS}-cell limit", self.n, self.k)
        })?;
        if self.batch > cells {
            return Err(format!(
                "batch {} exceeds the {}x{} matrix size",
                self.batch, self.n, self.k
            ));
        }
        Ok(())
    }

    /// The configuration fingerprint stored in every snapshot; recovery
    /// with a different configuration fails instead of silently diverging.
    pub fn tag(&self) -> String {
        format!("limeqo-svc offline {self:?}")
    }
}

/// Deterministic synthetic latency oracle: a rank-3 product with the
/// default column inflated so exploration has headroom to win (the same
/// construction the core test suites use).
pub fn synthetic_truth(cfg: &ServiceConfig) -> Result<Mat, PersistError> {
    let mut rng = SeededRng::new(cfg.seed ^ 0x51C0_FFEE);
    let q = rng.uniform_mat(cfg.n, 3, 0.5, 2.0);
    let h = rng.uniform_mat(cfg.k, 3, 0.2, 1.5);
    let mut lat = q
        .matmul_t(&h)
        .map_err(|e| PersistError::Corrupt(format!("synthetic oracle construction: {e}")))?;
    for i in 0..cfg.n {
        lat[(i, 0)] = lat[(i, 0)] * 2.0 + 0.5;
    }
    Ok(lat)
}

fn build_engine(cfg: &ServiceConfig, truth: &Mat) -> Engine<'static> {
    let defaults: Vec<f64> = (0..cfg.n).map(|i| truth[(i, WorkloadMatrix::DEFAULT_HINT)]).collect();
    let store =
        ObservationStore::new(WorkloadMatrix::with_defaults_sharded(&defaults, cfg.k, cfg.shards));
    let ecfg = ExploreConfig {
        batch: cfg.batch,
        seed: cfg.seed,
        shards: cfg.shards,
        ..Default::default()
    };
    Engine::offline(store, Box::new(LimeQoPolicy::with_als(cfg.seed)), None, &ecfg)
}

fn config_path(dir: &Path) -> PathBuf {
    dir.join("svc-config.json")
}

/// One response from [`Service::handle`].
pub enum Reply {
    /// A response line; keep serving.
    Line(String),
    /// A response line after which the daemon should flush and exit.
    Shutdown(String),
}

impl Reply {
    /// The response line regardless of variant.
    pub fn line(&self) -> &str {
        match self {
            Reply::Line(s) | Reply::Shutdown(s) => s,
        }
    }
}

/// The daemon state: the simulated oracle plus the durable engine, and an
/// optional crash trigger for the CI kill-and-recover smoke.
pub struct Service {
    cfg: ServiceConfig,
    truth: Mat,
    de: DurableEngine<'static>,
    /// Abort the process (SIGKILL-equivalent: no flush, no unwind) as soon
    /// as this many events have been journaled. Used by the crash smoke to
    /// die at a deterministic point *between* journal appends — typically
    /// mid-tick, with probes in flight.
    crash_at: Option<u64>,
}

impl Service {
    /// Initialize a fresh state directory for a `cfg` that passed
    /// [`ServiceConfig::check`]. A create-time fault is a clean typed
    /// error — degraded mode only exists for a service that was already
    /// serving.
    fn init_with(
        storage: Box<dyn Storage>,
        dir: &Path,
        cfg: ServiceConfig,
        crash_at: Option<u64>,
    ) -> Result<Self, PersistError> {
        let truth = synthetic_truth(&cfg)?;
        let engine = build_engine(&cfg, &truth);
        let de =
            DurableEngine::create_with(storage, dir, engine, &cfg.tag(), DurableConfig::default())?;
        // The environment descriptor bypasses the Storage abstraction on
        // purpose: it is written once at init, and faulting it would only
        // retest the error path above, not the serving daemon.
        fs::create_dir_all(dir)?;
        fs::write(config_path(dir), cfg.to_json().render())?;
        Ok(Service { cfg, truth, de, crash_at })
    }

    /// Resume an existing state directory: rebuild the simulated
    /// environment from `svc-config.json`, recover the engine from its
    /// newest valid snapshot + journal tail, and re-execute any probes
    /// that were in flight at the kill point.
    pub fn open(dir: &Path, crash_at: Option<u64>) -> Result<Self, PersistError> {
        Self::open_with(Box::new(FsStorage), dir, crash_at)
    }

    /// [`Service::open`] against an explicit [`Storage`] implementation.
    pub fn open_with(
        storage: Box<dyn Storage>,
        dir: &Path,
        crash_at: Option<u64>,
    ) -> Result<Self, PersistError> {
        let text = fs::read_to_string(config_path(dir))?;
        let cfg = Json::parse(&text)
            .and_then(|v| ServiceConfig::from_json(&v))
            .and_then(|cfg| cfg.check().map(|()| cfg).map_err(|msg| format!("svc-config: {msg}")))
            .map_err(PersistError::Corrupt)?;
        let truth = synthetic_truth(&cfg)?;
        let engine = build_engine(&cfg, &truth);
        let (de, outstanding) = DurableEngine::recover_with(
            storage,
            dir,
            engine,
            &cfg.tag(),
            DurableConfig::default(),
        )?;
        let mut svc = Service { cfg, truth, de, crash_at };
        // At-least-once re-execution: the journal recorded the tick but
        // died before all its observations landed. The oracle is
        // deterministic and observations idempotent, so replying again is
        // safe and resumes the interrupted round exactly.
        for p in outstanding {
            svc.observe(p.row, p.col, p.timeout);
        }
        Ok(svc)
    }

    /// Whether `dir` holds an initialized service state.
    pub fn exists(dir: &Path) -> bool {
        config_path(dir).exists()
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The wrapped engine (read-only).
    pub fn engine(&self) -> &Engine<'static> {
        self.de.engine()
    }

    /// Whether the daemon is serving degraded (a persist failure left the
    /// journal poisoned; memory advances, nothing is journaled).
    pub fn degraded(&self) -> bool {
        self.de.poisoned()
    }

    fn durable_step(&mut self, event: Event) -> Vec<Action> {
        let actions = if self.de.poisoned() {
            self.de.step_degraded(event).0
        } else {
            match self.de.step(event.clone()) {
                Ok(a) => a,
                // `step()` guarantees the event was NOT applied on Err,
                // so re-submitting the same event degraded applies it
                // exactly once — a client sees one uninterrupted stream.
                Err(_) => self.de.step_degraded(event).0,
            }
        };
        if self.crash_at.is_some_and(|n| self.de.event_index() >= n) {
            // Die like a SIGKILL: no journal flush beyond what step()
            // already wrote, no destructors, no snapshot.
            std::process::abort();
        }
        actions
    }

    fn observe(&mut self, row: usize, col: usize, timeout: f64) {
        self.durable_step(execute_probe(row, col, timeout, self.truth[(row, col)]));
    }

    /// Run one exploration round: journal the tick, execute every probe
    /// the policy issued against the simulated oracle, journal each
    /// observation. Returns the number of probes executed. A persist
    /// failure mid-round degrades the daemon instead of erroring — the
    /// round still completes in memory.
    pub fn tick(&mut self) -> usize {
        let actions = self.durable_step(Event::Tick);
        let probes: Vec<(usize, usize, f64)> = actions
            .iter()
            .filter_map(|a| match *a {
                Action::Probe { row, col, timeout } => Some((row, col, timeout)),
                _ => None,
            })
            .collect();
        for &(row, col, timeout) in &probes {
            self.observe(row, col, timeout);
        }
        probes.len()
    }

    /// Handle one protocol line. Malformed or oversized requests produce
    /// an error response, not a crash — a daemon must outlive its clients.
    pub fn handle(&mut self, line: &str) -> Reply {
        match check_line(line).and_then(|()| self.dispatch(line)) {
            Ok(reply) => reply,
            Err(msg) => Reply::Line(error_reply(msg)),
        }
    }

    fn dispatch(&mut self, line: &str) -> Result<Reply, String> {
        let req = Json::parse(line)?;
        let op = match req.get("op") {
            Some(Json::Str(s)) => s.clone(),
            _ => return Err("missing op field".into()),
        };
        let ok = |mut fields: Vec<(String, Json)>| {
            let mut all =
                vec![("ok".into(), Json::Bool(true)), ("op".into(), Json::Str(op.clone()))];
            all.append(&mut fields);
            Reply::Line(Json::Obj(all).render())
        };
        match op.as_str() {
            "init" => Err("already initialized (init is only valid on a fresh directory)".into()),
            "tick" => {
                let probes = self.tick();
                Ok(ok(vec![
                    ("probes".into(), Json::Num(probes as f64)),
                    ("time_spent".into(), Json::Num(self.engine().time_spent())),
                ]))
            }
            "hint" => {
                let row = req
                    .get("row")
                    .and_then(Json::as_num)
                    .filter(|r| r.is_finite() && *r >= 0.0 && r.fract() == 0.0)
                    .ok_or("hint: missing or bad row")? as usize;
                if row >= self.cfg.n {
                    return Err(format!("hint: row {row} out of range"));
                }
                // A plain read: nothing is journaled, so a hint serves the
                // same way whether or not the daemon is degraded.
                match self.engine().wm().row_best(row) {
                    Some((col, latency)) => Ok(ok(vec![
                        ("col".into(), Json::Num(col as f64)),
                        ("latency".into(), Json::Num(latency)),
                    ])),
                    None => Err(format!("hint: row {row} has no verified plan yet")),
                }
            }
            "status" => {
                let mut fields = vec![
                    ("event_index".into(), Json::Num(self.de.event_index() as f64)),
                    ("time_spent".into(), Json::Num(self.engine().time_spent())),
                    ("cells".into(), Json::Num(self.engine().cells_executed() as f64)),
                    ("trace_len".into(), Json::Num(self.engine().trace().len() as f64)),
                    ("degraded".into(), Json::Bool(self.de.poisoned())),
                ];
                if let Some(err) = self.de.last_persist_error() {
                    fields.push(("persist_error".into(), Json::Str(err.to_string())));
                }
                Ok(ok(fields))
            }
            "snapshot" => {
                // An explicit snapshot doubles as a manual re-arm: a
                // degraded daemon writes a fresh full snapshot of its
                // current in-memory state and restores durability.
                if self.de.poisoned() {
                    self.de.rearm().map_err(|e| e.to_string())?;
                } else {
                    self.de.snapshot().map_err(|e| e.to_string())?;
                }
                Ok(ok(vec![]))
            }
            "trace" => {
                let entries: Vec<Json> = self
                    .engine()
                    .trace()
                    .iter()
                    .map(|t| {
                        Json::Arr(vec![
                            Json::Num(t.row as f64),
                            Json::Num(t.col as f64),
                            Json::Str(format!("{:016x}", t.charged.to_bits())),
                            Json::Num(t.censored as u64 as f64),
                        ])
                    })
                    .collect();
                Ok(ok(vec![("entries".into(), Json::Arr(entries))]))
            }
            "shutdown" => {
                let mut all =
                    vec![("ok".into(), Json::Bool(true)), ("op".into(), Json::Str(op.clone()))];
                if self.de.poisoned() {
                    // Nothing to flush: the journal is poisoned and the
                    // state that matters was either re-armed already or
                    // is intentionally memory-only. Exit cleanly anyway —
                    // degraded is a serving state, not a failure.
                    all.push(("degraded".into(), Json::Bool(true)));
                } else {
                    self.de.shutdown().map_err(|e| e.to_string())?;
                }
                all.push(("event_index".into(), Json::Num(self.de.event_index() as f64)));
                Ok(Reply::Shutdown(Json::Obj(all).render()))
            }
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// Handle the `init` request on a fresh directory (the one op
/// [`Service::handle`] rejects, since it constructs the service).
pub fn handle_init(
    dir: &Path,
    line: &str,
    crash_at: Option<u64>,
) -> Result<(Service, String), String> {
    handle_init_with(Box::new(FsStorage), dir, line, crash_at)
}

/// [`handle_init`] against an explicit [`Storage`] implementation (the
/// `--fault-at` dev flag injects a [`limeqo_core::FaultStorage`] here).
pub fn handle_init_with(
    storage: Box<dyn Storage>,
    dir: &Path,
    line: &str,
    crash_at: Option<u64>,
) -> Result<(Service, String), String> {
    check_line(line)?;
    let req = Json::parse(line)?;
    match req.get("op") {
        Some(Json::Str(s)) if s == "init" => {}
        _ => return Err("first request on a fresh directory must be init".into()),
    }
    let field = |name: &str, default: Option<f64>| match req
        .get(name)
        .map(|v| v.as_num().filter(|x| x.is_finite() && *x >= 0.0 && x.fract() == 0.0))
    {
        Some(Some(v)) => Ok(v),
        Some(None) => Err(format!("init: bad field {name:?}")),
        None => default.ok_or(format!("init: missing field {name:?}")),
    };
    let cfg = ServiceConfig {
        n: field("n", None)? as usize,
        k: field("k", None)? as usize,
        seed: field("seed", Some(0.0))? as u64,
        batch: field("batch", Some(8.0))? as usize,
        shards: field("shards", Some(1.0))? as usize,
    };
    cfg.check().map_err(|msg| format!("init: {msg}"))?;
    let svc = Service::init_with(storage, dir, cfg, crash_at).map_err(|e| e.to_string())?;
    let reply =
        Json::Obj(vec![("ok".into(), Json::Bool(true)), ("op".into(), Json::Str("init".into()))])
            .render();
    Ok((svc, reply))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("limeqo-svc-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn trace_of(svc: &mut Service) -> String {
        svc.handle(r#"{"op":"trace"}"#).line().to_string()
    }

    #[test]
    fn config_roundtrips_through_json() {
        let cfg = ServiceConfig { n: 40, k: 9, seed: 7, batch: 4, shards: 3 };
        let back =
            ServiceConfig::from_json(&Json::parse(&cfg.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, cfg);
        // Pre-sharding config files (no "shards" field) stay readable as
        // single-shard deployments.
        let legacy = Json::parse(r#"{"n":40,"k":9,"seed":7,"batch":4}"#).unwrap();
        assert_eq!(ServiceConfig::from_json(&legacy).unwrap().shards, 1);
    }

    #[test]
    fn sharded_service_replays_the_unsharded_trace() {
        // The shards knob is pure scale-out: the multi-tenant daemon's
        // exploration trace is bit-identical to the unsharded one, and
        // crash recovery preserves the sharded layout.
        let dir_a = test_dir("shard-a");
        let dir_b = test_dir("shard-b");
        let (mut plain, _) =
            handle_init(&dir_a, r#"{"op":"init","n":24,"k":8,"seed":5,"batch":4}"#, None).unwrap();
        let init_sharded = r#"{"op":"init","n":24,"k":8,"seed":5,"batch":4,"shards":8}"#;
        let (mut sharded, _) = handle_init(&dir_b, init_sharded, None).unwrap();
        assert_eq!(sharded.config().shards, 8);
        for _ in 0..4 {
            plain.handle(r#"{"op":"tick"}"#);
            sharded.handle(r#"{"op":"tick"}"#);
        }
        assert_eq!(trace_of(&mut sharded), trace_of(&mut plain));
        // Kill the sharded daemon without shutdown and resume: the shard
        // count survives via svc-config.json and the trace still matches.
        drop(sharded);
        let mut sharded = Service::open(&dir_b, None).unwrap();
        assert_eq!(sharded.config().shards, 8);
        plain.handle(r#"{"op":"tick"}"#);
        sharded.handle(r#"{"op":"tick"}"#);
        assert_eq!(trace_of(&mut sharded), trace_of(&mut plain));
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn zero_shards_is_rejected_at_init() {
        let dir = test_dir("shard-zero");
        let err = handle_init(&dir, r#"{"op":"init","n":8,"k":4,"shards":0}"#, None)
            .err()
            .expect("zero shards must fail");
        assert!(err.contains("positive"), "{err}");
        assert!(!Service::exists(&dir));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_init_lines_are_rejected_before_allocating() {
        let dir = test_dir("oversized");
        for line in [
            r#"{"op":"init","n":8,"k":4,"batch":1e15}"#,
            r#"{"op":"init","n":8,"k":4,"shards":1e15}"#,
            r#"{"op":"init","n":1e15,"k":4}"#,
            r#"{"op":"init","n":4294967296,"k":4294967296}"#,
            r#"{"op":"init","n":8,"k":4,"shards":65537}"#,
            r#"{"op":"init","n":8,"k":4,"batch":33}"#,
        ] {
            let err = handle_init(&dir, line, None).err().expect("an oversized init must fail");
            // A refusal, not a persist failure: nothing was written.
            assert!(err.starts_with("init: ") && !err.contains("corrupt"), "{line} -> {err}");
            assert!(!Service::exists(&dir), "{line} must not initialize the directory");
        }
        // The bounds are inclusive.
        let cfg =
            ServiceConfig { n: MAX_CELLS / 4, k: 4, seed: 0, batch: MAX_CELLS, shards: 1 << 16 };
        assert_eq!(cfg.check(), Ok(()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_rejects_an_oversized_config_file() {
        let dir = test_dir("oversized-open");
        handle_init(&dir, r#"{"op":"init","n":8,"k":4,"seed":1,"batch":2}"#, None).unwrap();
        fs::write(config_path(&dir), r#"{"n":1e15,"k":4,"seed":1,"batch":2}"#).unwrap();
        let err = Service::open(&dir, None).err().expect("an oversized config must not open");
        assert!(err.to_string().contains("cell limit"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    fn fault_storage(script: limeqo_core::FaultScript) -> Box<dyn Storage> {
        Box::new(limeqo_core::FaultStorage::new(Box::new(FsStorage), script))
    }

    #[test]
    fn persist_fault_degrades_but_keeps_serving() {
        use limeqo_core::{FaultAt, FaultKind, FaultScript, OpClass};
        let dir_a = test_dir("degrade-ref");
        let dir_b = test_dir("degrade-faulty");
        let init = r#"{"op":"init","n":24,"k":8,"seed":5,"batch":4}"#;

        // Fault-free reference.
        let (mut reference, _) = handle_init(&dir_a, init, None).unwrap();
        for _ in 0..6 {
            reference.handle(r#"{"op":"tick"}"#);
        }
        let want = trace_of(&mut reference);

        // Fail a journal append mid-round: append #0 is the initial
        // snapshot body and #1 the first WAL header, so #10 lands inside
        // the second tick round (1 tick + 4 observation records each).
        let script = FaultScript::single(FaultAt::Class(OpClass::Append, 10), FaultKind::FailOp);
        let (mut svc, _) = handle_init_with(fault_storage(script), &dir_b, init, None).unwrap();
        for _ in 0..6 {
            let r = svc.handle(r#"{"op":"tick"}"#);
            assert!(r.line().contains("\"ok\":true"), "{}", r.line());
        }
        assert!(svc.degraded());
        let status = svc.handle(r#"{"op":"status"}"#).line().to_string();
        assert!(status.contains("\"degraded\":true"), "{status}");
        assert!(status.contains("persist_error"), "{status}");
        // Hints still serve from memory.
        let hint = svc.handle(r#"{"op":"hint","row":0}"#);
        assert!(hint.line().contains("\"col\":"), "{}", hint.line());
        // The payoff: faults live entirely in the persistence layer, so
        // the degraded daemon's exploration trace is bit-identical to the
        // fault-free run.
        assert_eq!(trace_of(&mut svc), want);
        // Degraded shutdown still exits the loop cleanly.
        match svc.handle(r#"{"op":"shutdown"}"#) {
            Reply::Shutdown(line) => assert!(line.contains("\"degraded\":true"), "{line}"),
            Reply::Line(line) => panic!("shutdown must end the loop: {line}"),
        }
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn explicit_snapshot_rearms_and_restart_resumes_the_trace() {
        use limeqo_core::{FaultAt, FaultKind, FaultScript, OpClass};
        let dir_a = test_dir("rearm-ref");
        let dir_b = test_dir("rearm-faulty");
        let init = r#"{"op":"init","n":24,"k":8,"seed":5,"batch":4}"#;

        let (mut reference, _) = handle_init(&dir_a, init, None).unwrap();
        for _ in 0..6 {
            reference.handle(r#"{"op":"tick"}"#);
        }
        let want = trace_of(&mut reference);

        let script = FaultScript::single(FaultAt::Class(OpClass::Append, 10), FaultKind::Enospc);
        let (mut svc, _) = handle_init_with(fault_storage(script), &dir_b, init, None).unwrap();
        for _ in 0..3 {
            svc.handle(r#"{"op":"tick"}"#);
        }
        assert!(svc.degraded());
        // Manual re-arm: snapshot the in-memory state, restore durability.
        let r = svc.handle(r#"{"op":"snapshot"}"#);
        assert!(r.line().contains("\"ok\":true"), "{}", r.line());
        assert!(!svc.degraded());
        let status = svc.handle(r#"{"op":"status"}"#).line().to_string();
        assert!(status.contains("\"degraded\":false"), "{status}");
        // Kill without shutdown; a plain restart recovers from the re-arm
        // snapshot and finishes the run bit-identically.
        drop(svc);
        let mut svc = Service::open(&dir_b, None).unwrap();
        for _ in 0..3 {
            svc.handle(r#"{"op":"tick"}"#);
        }
        assert_eq!(trace_of(&mut svc), want);
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn create_time_fault_is_a_clean_error() {
        use limeqo_core::{FaultAt, FaultKind, FaultScript};
        let dir = test_dir("create-fault");
        // Op #0 globally is the snapshot-0 create: init never comes up.
        let script = FaultScript::single(FaultAt::Op(0), FaultKind::FailOp);
        let err = handle_init_with(
            fault_storage(script),
            &dir,
            r#"{"op":"init","n":8,"k":4,"seed":1,"batch":2}"#,
            None,
        )
        .err()
        .expect("create-time fault must fail init");
        assert!(err.contains("injected"), "{err}");
        assert!(!Service::exists(&dir));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn init_tick_hint_status_shutdown_flow() {
        let dir = test_dir("flow");
        let (mut svc, reply) =
            handle_init(&dir, r#"{"op":"init","n":24,"k":8,"seed":5,"batch":4}"#, None).unwrap();
        assert!(reply.contains("\"ok\":true"));
        for _ in 0..4 {
            let r = svc.handle(r#"{"op":"tick"}"#);
            assert!(r.line().contains("\"ok\":true"), "{}", r.line());
        }
        let hint = svc.handle(r#"{"op":"hint","row":0}"#);
        assert!(hint.line().contains("\"col\":"), "{}", hint.line());
        let status = svc.handle(r#"{"op":"status"}"#);
        assert!(status.line().contains("\"event_index\":"), "{}", status.line());
        match svc.handle(r#"{"op":"shutdown"}"#) {
            Reply::Shutdown(line) => assert!(line.contains("\"ok\":true")),
            Reply::Line(line) => panic!("shutdown must end the loop: {line}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_resumes_the_exact_trace() {
        let dir_a = test_dir("resume-a");
        let dir_b = test_dir("resume-b");
        let init = r#"{"op":"init","n":24,"k":8,"seed":5,"batch":4}"#;

        // Reference: 6 uninterrupted ticks.
        let (mut reference, _) = handle_init(&dir_a, init, None).unwrap();
        for _ in 0..6 {
            reference.handle(r#"{"op":"tick"}"#);
        }
        let want = trace_of(&mut reference);

        // Killed run: 3 ticks, drop without shutdown, reopen, 3 more.
        let (mut svc, _) = handle_init(&dir_b, init, None).unwrap();
        for _ in 0..3 {
            svc.handle(r#"{"op":"tick"}"#);
        }
        drop(svc);
        let mut svc = Service::open(&dir_b, None).unwrap();
        for _ in 0..3 {
            svc.handle(r#"{"op":"tick"}"#);
        }
        assert_eq!(trace_of(&mut svc), want);
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn malformed_requests_do_not_kill_the_daemon() {
        let dir = test_dir("malformed");
        let (mut svc, _) =
            handle_init(&dir, r#"{"op":"init","n":10,"k":5,"seed":1,"batch":2}"#, None).unwrap();
        for bad in [
            "",
            "not json",
            r#"{"op":"nope"}"#,
            r#"{"op":"hint"}"#,
            r#"{"op":"hint","row":99}"#,
            r#"{"op":"init","n":1,"k":1}"#,
        ] {
            let r = svc.handle(bad);
            assert!(r.line().contains("\"ok\":false"), "{bad:?} -> {}", r.line());
        }
        // Still alive.
        assert!(svc.handle(r#"{"op":"tick"}"#).line().contains("\"ok\":true"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_line_is_rejected_without_parsing() {
        let dir = test_dir("oversized");
        let (mut svc, _) =
            handle_init(&dir, r#"{"op":"init","n":10,"k":5,"seed":1,"batch":2}"#, None).unwrap();
        // A syntactically valid request bloated past the cap: the length
        // check must fire before the parser ever sees it.
        let huge = format!(r#"{{"op":"tick","pad":"{}"}}"#, "x".repeat(MAX_LINE_BYTES));
        let r = svc.handle(&huge);
        assert!(r.line().contains("\"ok\":false"), "{}", r.line());
        assert!(r.line().contains("exceeds"), "{}", r.line());
        // Still alive, and the oversized request left no journal trace.
        assert!(svc.handle(r#"{"op":"tick"}"#).line().contains("\"ok\":true"));
        let _ = fs::remove_dir_all(&dir);

        // The same cap guards the pre-init path.
        let dir2 = test_dir("oversized-init");
        let err = handle_init(&dir2, &huge, None).err().expect("oversized init must fail");
        assert!(err.contains("exceeds"), "{err}");
        let _ = fs::remove_dir_all(&dir2);
    }

    #[test]
    fn fresh_directory_rejects_everything_until_init() {
        let dir = test_dir("tick-before-init");
        for early in [r#"{"op":"tick"}"#, r#"{"op":"status"}"#, r#"{"op":"shutdown"}"#] {
            let err = handle_init(&dir, early, None).err().expect("pre-init op must fail");
            assert!(err.contains("must be init"), "{early} -> {err}");
        }
        // The rejections above must not have initialized or corrupted the
        // directory: a proper init still succeeds afterwards.
        assert!(!Service::exists(&dir));
        let (mut svc, reply) =
            handle_init(&dir, r#"{"op":"init","n":10,"k":5,"seed":1,"batch":2}"#, None).unwrap();
        assert!(reply.contains("\"ok\":true"));
        assert!(svc.handle(r#"{"op":"tick"}"#).line().contains("\"ok\":true"));
        let _ = fs::remove_dir_all(&dir);
    }
}
