//! One episode's raw results and the per-layer accounting of a traced one.
//!
//! Every episode runs in a child process of its own (see `main.rs`) and
//! hands its results to the coordinating parent as one JSON line.

use limeqo_bench::Json;

use crate::report::{num, Checks};
use crate::trace::{self, Recording, ROOT};

/// Set-ups an untraced episode times; it reports their median.
pub const SETUPS_PER_EPISODE: usize = 9;

/// Raw results of one episode.
#[derive(Debug, Default)]
pub struct Episode {
    /// Set-up wall time, seconds.
    pub setup_s: f64,
    /// Exploration loop wall time, seconds; for the daemon, its CPU time
    /// over the open loop.
    pub loop_s: f64,
    /// Exploration-round samples, seconds.
    pub rounds: Vec<f64>,
    /// Request samples, seconds.
    pub requests: Vec<f64>,
    /// Workload latency against the default plans.
    pub ratio: f64,
    /// Peak resident set of the process that did the work, MB.
    pub rss_mb: f64,
    /// Wall times of the host-speed reference fits interleaved with the
    /// episode's work (see `reference.rs`), seconds.
    pub refs: Vec<f64>,
    /// CPU times of the same fits, seconds.
    pub refs_cpu: Vec<f64>,
    /// What a re-run of the same inputs must reproduce bit for bit.
    pub fingerprint: u64,
    /// Output checks.
    pub checks: Checks,
    /// Per-layer metrics `(name, value, unit)` measured by this episode.
    pub layers: Vec<(String, f64, String)>,
    /// Other per-episode values `(name, value, unit)` for the report.
    pub extra: Vec<(String, f64, String)>,
    /// Other sample sets `(name, seconds)` for the report.
    pub samples: Vec<(String, Vec<f64>)>,
}

fn nums(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|&x| num(x)).collect())
}

fn triples(v: &[(String, f64, String)]) -> Json {
    Json::Arr(
        v.iter()
            .map(|(n, x, u)| Json::Arr(vec![Json::Str(n.clone()), num(*x), Json::Str(u.clone())]))
            .collect(),
    )
}

fn field<'a>(v: &'a Json, name: &str) -> Result<&'a Json, String> {
    v.get(name).ok_or_else(|| format!("episode result lacks {name:?}"))
}

fn f(v: &Json, name: &str) -> Result<f64, String> {
    field(v, name)?.as_num().ok_or_else(|| format!("episode field {name:?} is not a number"))
}

fn arr<'a>(v: &'a Json, name: &str) -> Result<&'a [Json], String> {
    match field(v, name)? {
        Json::Arr(items) => Ok(items),
        _ => Err(format!("episode field {name:?} is not an array")),
    }
}

fn parse_nums(items: &[Json]) -> Result<Vec<f64>, String> {
    items.iter().map(|x| x.as_num().ok_or_else(|| "non-numeric sample".to_string())).collect()
}

fn parse_triples(items: &[Json]) -> Result<Vec<(String, f64, String)>, String> {
    items
        .iter()
        .map(|t| match t {
            Json::Arr(p) if p.len() == 3 => match (&p[0], p[1].as_num(), &p[2]) {
                (Json::Str(n), Some(x), Json::Str(u)) => Ok((n.clone(), x, u.clone())),
                _ => Err("malformed metric triple".to_string()),
            },
            _ => Err("malformed metric triple".to_string()),
        })
        .collect()
}

impl Episode {
    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &str) {
        self.layers.push((name.into(), value, unit.into()));
    }

    /// Record a timed reference fit.
    pub fn reference(&mut self, s: crate::reference::Sample) {
        self.refs.push(s.wall_s);
        self.refs_cpu.push(s.cpu_s);
    }

    /// Record a report-only value.
    pub fn extra(&mut self, name: &str, value: f64, unit: &str) {
        self.extra.push((name.into(), value, unit.into()));
    }

    /// A sample set by name: `rounds`, `requests`, or one of `samples`
    /// (empty if absent).
    pub fn sample(&self, name: &str) -> &[f64] {
        match name {
            "rounds" => &self.rounds,
            "requests" => &self.requests,
            _ => self.samples.iter().find(|(n, _)| n == name).map_or(&[], |(_, s)| s),
        }
    }

    /// A per-layer or extra value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.layers.iter().chain(&self.extra).find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }

    /// Serialize for the parent.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("setup_s".into(), num(self.setup_s)),
            ("loop_s".into(), num(self.loop_s)),
            ("rounds".into(), nums(&self.rounds)),
            ("requests".into(), nums(&self.requests)),
            ("ratio".into(), num(self.ratio)),
            ("rss_mb".into(), num(self.rss_mb)),
            ("refs".into(), nums(&self.refs)),
            ("refs_cpu".into(), nums(&self.refs_cpu)),
            ("fingerprint".into(), Json::Str(format!("{:016x}", self.fingerprint))),
            ("attempted".into(), num(self.checks.attempted as f64)),
            ("failed".into(), num(self.checks.failed as f64)),
            (
                "notes".into(),
                Json::Arr(self.checks.notes.iter().map(|n| Json::Str(n.clone())).collect()),
            ),
            ("layers".into(), triples(&self.layers)),
            ("extra".into(), triples(&self.extra)),
            (
                "samples".into(),
                Json::Arr(
                    self.samples
                        .iter()
                        .map(|(n, s)| Json::Arr(vec![Json::Str(n.clone()), nums(s)]))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse what [`Episode::to_json`] wrote.
    pub fn from_json(v: &Json) -> Result<Episode, String> {
        let fingerprint = match field(v, "fingerprint")? {
            Json::Str(s) => u64::from_str_radix(s, 16).map_err(|e| e.to_string())?,
            _ => return Err("fingerprint is not a string".into()),
        };
        let notes = arr(v, "notes")?
            .iter()
            .map(|n| match n {
                Json::Str(s) => Ok(s.clone()),
                _ => Err("note is not a string".to_string()),
            })
            .collect::<Result<_, _>>()?;
        let samples = arr(v, "samples")?
            .iter()
            .map(|s| match s {
                Json::Arr(p) if p.len() == 2 => match (&p[0], &p[1]) {
                    (Json::Str(n), Json::Arr(xs)) => Ok((n.clone(), parse_nums(xs)?)),
                    _ => Err("malformed sample set".to_string()),
                },
                _ => Err("malformed sample set".to_string()),
            })
            .collect::<Result<_, _>>()?;
        Ok(Episode {
            setup_s: f(v, "setup_s")?,
            loop_s: f(v, "loop_s")?,
            rounds: parse_nums(arr(v, "rounds")?)?,
            requests: parse_nums(arr(v, "requests")?)?,
            ratio: f(v, "ratio")?,
            rss_mb: f(v, "rss_mb")?,
            refs: parse_nums(arr(v, "refs")?)?,
            refs_cpu: parse_nums(arr(v, "refs_cpu")?)?,
            fingerprint,
            checks: Checks {
                attempted: f(v, "attempted")? as u64,
                failed: f(v, "failed")? as u64,
                notes,
            },
            layers: parse_triples(arr(v, "layers")?)?,
            extra: parse_triples(arr(v, "extra")?)?,
            samples,
        })
    }
}

/// Map a span name to the layer its self time belongs to.
fn layer_of(name: &str) -> Option<&'static str> {
    Some(match name {
        "complete" => "complete",
        "policy.select" => "policy",
        "explore.round" | "oracle" => "explore",
        "online.serve" | "online.oracle" => "online",
        "svc.tick" | "svc.hint" | "svc.other" => "svc",
        n if n.starts_with("persist.") => "persist",
        n if n.starts_with("sim.") => "sim",
        _ => return None,
    })
}

/// Layers whose share of the traced loop every traced episode reports.
pub const LOOP_LAYERS: [&str; 6] = ["complete", "policy", "explore", "online", "svc", "persist"];

/// Derive the per-layer metrics of a traced episode from its spans and
/// counters, and append them to `ep.layers`. `probes` is the number of
/// cells the loop executed.
pub fn account(ep: &mut Episode, rec: &Recording, probes: usize) {
    let spans = &rec.spans;
    let selfs = trace::self_times(spans);
    // The root span each span descends from.
    let mut root = vec![0u32; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        root[i] = if s.parent == ROOT { i as u32 } else { root[s.parent as usize] };
    }
    let in_root = |i: usize, name: &str| spans[root[i] as usize].name == name;
    let secs = |ns: u64| ns as f64 * 1e-9;

    // Reference fits interleaved with the loop are not part of it.
    let dur_of = |name: &str| spans.iter().filter(|s| s.name == name).map(|s| s.dur()).sum::<u64>();
    let loop_ns = dur_of("loop") - dur_of("reference");
    let loop_self: u64 =
        spans.iter().zip(&selfs).filter(|(s, _)| s.name == "loop").map(|(_, &o)| o).sum();
    let mut layer_self = std::collections::BTreeMap::<&str, u64>::new();
    let mut calls = std::collections::BTreeMap::<&str, u64>::new();
    let mut complete_ms = Vec::new();
    let mut tick_ms = Vec::new();
    let mut hint_us = Vec::new();
    let (mut oracle_ns, mut serve_self_ns) = (0u64, 0u64);
    let (mut append_ns, mut sync_ns) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        if !in_root(i, "loop") {
            continue;
        }
        *calls.entry(s.name).or_insert(0) += 1;
        if let Some(layer) = layer_of(s.name) {
            *layer_self.entry(layer).or_insert(0) += selfs[i];
        }
        match s.name {
            "complete" => complete_ms.push(s.dur() as f64 * 1e-6),
            "svc.tick" => tick_ms.push(s.dur() as f64 * 1e-6),
            "svc.hint" => hint_us.push(s.dur() as f64 * 1e-3),
            "oracle" => oracle_ns += s.dur(),
            "online.serve" => serve_self_ns += selfs[i],
            "persist.append" => append_ns += s.dur(),
            "persist.sync" | "persist.snapshot_sync" => sync_ns += s.dur(),
            _ => {}
        }
    }
    let n = |name: &str| calls.get(name).copied().unwrap_or(0) as f64;
    let share = |layer: &str| {
        if loop_ns == 0 {
            0.0
        } else {
            layer_self.get(layer).copied().unwrap_or(0) as f64 / loop_ns as f64
        }
    };
    let counter = |name: &str| rec.counters.get(name).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let median_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { crate::stats::median(v) };

    ep.layer("complete.calls", n("complete"), "count");
    ep.layer("policy.calls", n("policy.select"), "count");
    ep.layer(
        "policy.fill_frac",
        ratio(counter("policy.returned"), counter("policy.asked")),
        "frac",
    );
    ep.layer("explore.rounds", n("explore.round"), "count");
    ep.layer("explore.oracle_calls", n("oracle"), "count");
    ep.layer("explore.oracle_per_probe", ratio(n("oracle"), probes as f64), "ratio");
    let appends = n("persist.append");
    ep.layer("persist.appends", appends, "count");
    ep.layer("persist.bytes_per_event", ratio(counter("persist.wal_bytes"), appends), "B");
    ep.layer("persist.syncs", n("persist.sync") + n("persist.snapshot_sync"), "count");
    ep.layer("persist.snapshots", n("persist.rename"), "count");
    for layer in LOOP_LAYERS {
        ep.layer(&format!("{layer}.share"), share(layer), "frac");
    }
    ep.layer("trace.loop_s", secs(loop_ns), "s");
    ep.layer("trace.unattributed_frac", ratio(loop_self as f64, loop_ns as f64), "frac");

    // Absolute times for the report (zero where a layer is absent).
    let self_s = |layer: &str| secs(layer_self.get(layer).copied().unwrap_or(0));
    let explore_self = self_s("explore") - secs(oracle_ns);
    ep.extra("complete.busy_s", complete_ms.iter().sum::<f64>() * 1e-3, "s");
    ep.extra("complete.p50_ms", median_or_zero(&complete_ms), "ms");
    ep.extra("policy.self_s", self_s("policy"), "s");
    ep.extra("explore.self_s", explore_self, "s");
    ep.extra("explore.oracle_s", secs(oracle_ns), "s");
    ep.extra("online.serve_self_s", secs(serve_self_ns), "s");
    ep.extra("svc.tick_handle_ms", median_or_zero(&tick_ms), "ms");
    ep.extra("svc.hint_handle_us", median_or_zero(&hint_us), "us");
    ep.extra("persist.append_s", secs(append_ns), "s");
    ep.extra("persist.sync_s", secs(sync_ns), "s");
    let sim =
        |name: &str| secs(spans.iter().filter(|s| s.name == name).map(|s| s.dur()).sum::<u64>());
    ep.extra("sim.build_s", sim("sim.build"), "s");
    ep.extra("sim.oracle_s", sim("sim.oracle"), "s");
    ep.extra("sim.arrivals_s", sim("sim.arrivals"), "s");
    let sim_total = sim("sim.build") + sim("sim.oracle") + sim("sim.arrivals");
    ep.layer("sim.setup_frac", ratio(sim_total, ep.setup_s), "frac");
}
