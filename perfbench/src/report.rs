//! Run outcome: output checks, metrics, and the printed result.

use limeqo_bench::Json;

use crate::stats::Summary;

/// Output checks of one run. Every operation the harness attempts (a
/// round, a request, an arrival, an end-of-run comparison) is one check;
/// a failed check is a failed operation and makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (`ok:false`, missing replies, failed checks).
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Checks {
    /// Count one operation; `ok == false` records a failure described by
    /// `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// Fold another run phase's checks into this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// What one invocation prints: the contract metrics on the last line, and
/// a report line before it with every metric the workload defines.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks.
    pub checks: Checks,
    /// Contract metrics `(name, value, unit)`, in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Report-only entries (per-workload metric names with sample counts,
    /// provenance, where the spans went).
    pub report: Vec<(String, Json)>,
}

impl Outcome {
    /// Add a contract metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Add a report entry.
    pub fn note(&mut self, name: impl Into<String>, value: Json) {
        self.report.push((name.into(), value));
    }

    /// Add a report entry for a plain value with its unit.
    pub fn value(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.note(name, value_json(value, unit));
    }

    /// Add a report entry for a timing summarized under the percentile
    /// rule, scaled by `scale` into `unit`.
    pub fn timing(&mut self, name: impl Into<String>, s: Option<Summary>, scale: f64, unit: &str) {
        let json = match s {
            Some(s) => Json::Obj(vec![
                ("p50".into(), num(s.p50 * scale)),
                ("tail".into(), num(s.tail * scale)),
                ("tail_pct".into(), s.tail_pct.map_or(Json::Str("max".into()), |p| num(p as f64))),
                ("samples".into(), num(s.n as f64)),
                ("unit".into(), Json::Str(unit.into())),
            ]),
            None => Json::Obj(vec![("samples".into(), num(0.0))]),
        };
        self.note(name, json);
    }

    /// The report line (printed before the result).
    pub fn report_line(&self) -> String {
        let mut fields = self.report.clone();
        if !self.checks.notes.is_empty() {
            let notes = self.checks.notes.iter().map(|n| Json::Str(n.clone())).collect();
            fields.push(("failures".into(), Json::Arr(notes)));
        }
        Json::Obj(vec![("report".into(), Json::Obj(fields))]).render()
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| (name.to_string(), value_json(value, unit)))
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.checks.failed == 0 && self.checks.attempted > 0)),
            ("attempted".into(), num(self.checks.attempted.max(1) as f64)),
            ("failed".into(), num(self.checks.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }
}

/// A JSON number. A non-finite value (a timing with a missing reply in
/// it) prints as `f64::MAX` so the line stays parseable; such a run has a
/// failed check and is reported incorrect anyway.
pub fn num(v: f64) -> Json {
    Json::Num(if v.is_finite() { v } else { f64::MAX })
}

fn value_json(value: f64, unit: &str) -> Json {
    Json::Obj(vec![("value".into(), num(value)), ("unit".into(), Json::Str(unit.into()))])
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time (user plus system, all threads) process `pid` has used so
/// far, in seconds. `/proc/<pid>/stat` counts it in ticks of `USER_HZ`,
/// which is 100 on Linux.
pub fn cpu_s(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces; the fields after it start with
    // the state (field 3), so utime and stime (fields 14, 15) are 11, 12.
    let fields: Vec<&str> = stat[stat.rfind(')')? + 1..].split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// FNV-1a, fed 64-bit words: the fingerprint two runs of the same inputs
/// must agree on.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix in one word.
    pub fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The hash.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Hash of an exploration trace `(row, col, charged bits, censored)`: two
/// runs explored identically iff their hashes match (up to collisions).
pub fn trace_hash(trace: &[limeqo_core::TraceEntry]) -> u64 {
    let mut h = Fnv::default();
    for t in trace {
        h.eat(t.row as u64);
        h.eat(t.col as u64);
        h.eat(t.charged.to_bits());
        h.eat(u64::from(t.censored));
    }
    h.finish()
}
