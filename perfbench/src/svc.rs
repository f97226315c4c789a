//! The `svc-serve` workload: the real `limeqo-svc` daemon under an open
//! loop over its stdin/stdout connection, then a restart on the same state
//! directory.
//!
//! Load: Poisson `hint` arrivals whose rows are zipf(1.1) draws from
//! [`ArrivalSpec`], plus a `tick` on a fixed period, for [`PHASE_S`]
//! seconds. Every request is timed from when it was due, so a request that
//! queues behind a tick — or behind a late load generator — pays for it.
//! The load generator is two threads: this one sends, a reader timestamps
//! replies. A third thread times the host-speed reference between ticks.
//! For the open loop the daemon is pinned to one CPU, where the reference
//! is timed too, and the load generator runs on the other CPUs.
//!
//! The traced run replays the same request sequence in-process through
//! [`Service`], with [`TimedStorage`] around [`FsStorage`].

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use limeqo_bench::Json;
use limeqo_core::fault::{FsStorage, Storage};
use limeqo_sim::scenario::{ArrivalModel, ArrivalSpec};
use limeqo_svc::{handle_init_with, synthetic_truth, Service, ServiceConfig};

use crate::decor::TimedStorage;
use crate::episode::{Episode, SETUPS_PER_EPISODE};
use crate::reference::{allowed_cpus, pin, Reference, Refs, Sample};
use crate::report::{cpu_s, peak_rss_mb, Checks, Fnv};
use crate::stats::median;
use crate::trace::{self, span};

/// Queries in the daemon's simulated workload.
pub const QUERIES: usize = 1000;
/// Hints per query.
pub const HINTS: usize = 49;
/// Probes per tick.
pub const BATCH: usize = 16;
/// Mean hint arrival rate, per second.
pub const HINT_RATE: f64 = 1000.0;
/// Seconds between ticks: a tick keeps the daemon busy for a quarter to a
/// third of a period, so most hints find it idle and the rest queue behind
/// a tick.
pub const TICK_PERIOD_S: f64 = 0.5;
/// Length of the open-loop phase, seconds: 19 ticks journal 323 events,
/// past the 256-event snapshot cadence.
pub const PHASE_S: f64 = 10.0;
/// The sender sleeps until this close to a due time, then spins, so the
/// generator's own lateness stays in microseconds. Just over Linux's
/// default 50 µs timer slack: longer spins steal the core the daemon's ALS
/// workers need.
const SPIN_S: f64 = 60e-6;
/// Longest wait for the replies of the open-loop phase after the last send.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `{"op":"hint","row":R}`.
    Hint(usize),
    /// `{"op":"tick"}`.
    Tick,
}

impl Op {
    fn line(self) -> String {
        match self {
            Op::Hint(row) => format!("{{\"op\":\"hint\",\"row\":{row}}}"),
            Op::Tick => "{\"op\":\"tick\"}".into(),
        }
    }
}

/// A request and when it is due, in seconds from the start of the phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Due {
    /// Due time, seconds.
    pub at: f64,
    /// The request.
    pub op: Op,
}

/// The daemon's configuration for a run seeded `seed`.
pub fn service_config(seed: u64) -> ServiceConfig {
    ServiceConfig { n: QUERIES, k: HINTS, seed, batch: BATCH, shards: 1 }
}

fn init_line(cfg: &ServiceConfig) -> String {
    format!(
        "{{\"op\":\"init\",\"n\":{},\"k\":{},\"seed\":{},\"batch\":{}}}",
        cfg.n, cfg.k, cfg.seed, cfg.batch
    )
}

/// The open-loop schedule: Poisson hints at `rate` per second over `n`
/// rows (zipf(1.1) by popularity) and a tick every `period` seconds, for
/// `phase_s` seconds, in due order. A pure function of its arguments.
pub fn schedule(seed: u64, n: usize, rate: f64, period: f64, phase_s: f64) -> Vec<Due> {
    // Twice the expected count: the gaps run past the phase end.
    let count = (2.0 * rate * phase_s) as usize + 64;
    let spec =
        ArrivalSpec { rate, ..ArrivalSpec::new(count, ArrivalModel::Zipf { exponent: 1.1 }) };
    let rows = spec.trace(n, seed);
    let mut out = Vec::new();
    let mut at = 0.0;
    for (&row, gap) in rows.iter().zip(spec.interarrival_gaps(seed)) {
        at += gap;
        if at >= phase_s {
            break;
        }
        out.push(Due { at, op: Op::Hint(row) });
    }
    let ticks = (phase_s / period).ceil() as usize;
    out.extend((1..ticks).map(|k| Due { at: k as f64 * period, op: Op::Tick }));
    out.sort_by(|a, b| a.at.total_cmp(&b.at));
    out
}

/// When the open loop times a reference fit, seconds from the phase start:
/// every 50 ms from 0.15 to 0.45 s after each tick is due (and after the
/// phase starts), when the tick has been answered and the daemon has only
/// hints to answer.
pub fn ref_times() -> Vec<f64> {
    let gaps = (PHASE_S / TICK_PERIOD_S).round() as usize;
    (0..gaps)
        .flat_map(|g| {
            (0..REFS_PER_GAP).map(move |j| (g as f64 + 0.3 + 0.1 * j as f64) * TICK_PERIOD_S)
        })
        .collect()
}

/// Reference fits timed between two ticks.
pub const REFS_PER_GAP: usize = 7;

/// Latencies of one open-loop phase, seconds.
#[derive(Debug, Default, PartialEq)]
pub struct Timing {
    /// How late the generator sent each request.
    pub late: Vec<f64>,
    /// Hint replies, from due to reply.
    pub hints: Vec<f64>,
    /// Tick replies, from due to reply.
    pub ticks: Vec<f64>,
}

/// Time every request from when it was due. `sent[i]` and `replied[i]` are
/// seconds from the phase start; a missing reply counts as infinitely
/// late.
pub fn timing(sched: &[Due], sent: &[f64], replied: &[Option<f64>]) -> Timing {
    let mut t = Timing::default();
    for (i, d) in sched.iter().enumerate() {
        t.late.push(sent.get(i).map_or(f64::INFINITY, |s| s - d.at));
        let lat = replied.get(i).copied().flatten().map_or(f64::INFINITY, |r| r - d.at);
        match d.op {
            Op::Hint(_) => t.hints.push(lat),
            Op::Tick => t.ticks.push(lat),
        }
    }
    t
}

/// Check one reply to `op`: `ok:true`, and for a hint, a latency equal to
/// the oracle's at the returned column and no worse than the default.
fn check_reply(checks: &mut Checks, op: Op, reply: Option<&str>, truth: &limeqo_linalg::Mat) {
    let Some(line) = reply else {
        checks.check(false, || format!("no reply to {}", op.line()));
        return;
    };
    let v = Json::parse(line);
    let ok = matches!(v.as_ref().ok().and_then(|v| v.get("ok")), Some(Json::Bool(true)));
    let good = ok
        && match op {
            Op::Tick => true,
            Op::Hint(row) => {
                let v = v.as_ref().expect("parsed above");
                let col = v.get("col").and_then(Json::as_num);
                let lat = v.get("latency").and_then(Json::as_num);
                match (col, lat) {
                    (Some(c), Some(l)) if c >= 0.0 && (c as usize) < truth.cols() => {
                        l == truth[(row, c as usize)] && l <= truth[(row, 0)]
                    }
                    _ => false,
                }
            }
        };
    checks.check(good, || format!("bad reply to {}: {line}", op.line()));
}

/// Workload latency of the daemon's current plans ÷ the default total,
/// rebuilt from a `trace` reply: each row's best is the smallest completed
/// probe below its default.
fn ratio_from_trace(trace_line: &str, truth: &limeqo_linalg::Mat) -> Result<f64, String> {
    let v = Json::parse(trace_line)?;
    let Some(Json::Arr(entries)) = v.get("entries") else {
        return Err(format!("trace reply without entries: {trace_line}"));
    };
    let mut best: Vec<f64> = (0..truth.rows()).map(|r| truth[(r, 0)]).collect();
    let default_total: f64 = best.iter().sum();
    for e in entries {
        let Json::Arr(f) = e else { return Err("malformed trace entry".into()) };
        let (Some(row), Some(Json::Str(bits)), Some(censored)) =
            (f.first().and_then(Json::as_num), f.get(2), f.get(3).and_then(Json::as_num))
        else {
            return Err("malformed trace entry".into());
        };
        let charged = f64::from_bits(u64::from_str_radix(bits, 16).map_err(|e| e.to_string())?);
        let row = row as usize;
        if censored == 0.0 && row < best.len() && charged < best[row] {
            best[row] = charged;
        }
    }
    Ok(best.iter().sum::<f64>() / default_total)
}

fn fingerprint(trace_line: &str) -> u64 {
    let mut h = Fnv::default();
    for chunk in trace_line.as_bytes().chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h.eat(u64::from_le_bytes(w));
    }
    h.eat(trace_line.len() as u64);
    h.finish()
}

/// A running daemon with its connection.
struct Daemon {
    child: Child,
    /// `None` once closed by [`Daemon::wait`].
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Drop for Daemon {
    /// A daemon abandoned on an error path is stopped, not left running.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

impl Daemon {
    fn spawn(bin: &Path, dir: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .arg("--dir")
            .arg(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(Daemon { child, stdin, stdout })
    }

    fn request(&mut self, line: &str) -> Result<String, String> {
        let stdin = self.stdin.as_mut().ok_or("connection closed")?;
        send(stdin, line).map_err(|e| format!("send {line}: {e}"))?;
        let mut reply = String::new();
        match self.stdout.read_line(&mut reply) {
            Ok(n) if n > 0 => Ok(reply.trim_end().to_string()),
            _ => Err(format!("no reply to {line}")),
        }
    }

    /// Run the open loop: send each request when due, while a reader thread
    /// timestamps the replies. Returns send and reply times, seconds from
    /// the phase start, and the reply lines. With a `reference`, a third
    /// thread times one reference fit every [`ref_times`], when the daemon
    /// has only hints to answer, and pushes it to `refs`. With a
    /// `daemon_cpu` (the CPU the daemon is pinned to), the reference runs
    /// on that CPU and the load generator on the others.
    fn open_loop(
        &mut self,
        sched: &[Due],
        reference: Option<&Reference>,
        daemon_cpu: Option<usize>,
        refs: &mut Vec<Sample>,
    ) -> (Vec<f64>, Vec<Option<(f64, String)>>) {
        let start = Instant::now();
        let expect = sched.len();
        let (done_tx, done_rx) = mpsc::channel();
        let Daemon { child, stdin, stdout } = self;
        let stdin = stdin.as_mut().expect("open until wait()");
        let cpus = allowed_cpus();
        let others: Vec<usize> = cpus.iter().copied().filter(|&c| Some(c) != daemon_cpu).collect();
        let place_loadgen = || daemon_cpu.is_some() && pin(0, &others);
        place_loadgen();
        let sent_got = thread::scope(|scope| {
            let reader = scope.spawn(move || {
                place_loadgen();
                let mut got = Vec::with_capacity(expect);
                let mut line = String::new();
                while got.len() < expect {
                    line.clear();
                    match stdout.read_line(&mut line) {
                        Ok(n) if n > 0 => got.push(Some((
                            start.elapsed().as_secs_f64(),
                            line.trim_end().to_string(),
                        ))),
                        _ => break,
                    }
                }
                let _ = done_tx.send(());
                got
            });
            if let Some(r) = reference {
                scope.spawn(move || {
                    if let Some(c) = daemon_cpu {
                        pin(0, &[c]);
                    }
                    for at in ref_times() {
                        let due = start + Duration::from_secs_f64(at);
                        thread::sleep(due.saturating_duration_since(Instant::now()));
                        refs.push(r.timed_fit());
                    }
                });
            }
            let mut sent = Vec::with_capacity(expect);
            for d in sched {
                let due = start + Duration::from_secs_f64(d.at);
                wait_until(due);
                if send(stdin, &d.op.line()).is_err() {
                    break;
                }
                sent.push(start.elapsed().as_secs_f64());
            }
            if done_rx.recv_timeout(DRAIN_TIMEOUT).is_err() {
                // A wedged daemon: killing it closes its stdout, which ends
                // the reader; the missing replies count as failures.
                let _ = child.kill();
            }
            let mut got = reader.join().expect("reply reader panicked");
            got.resize(expect, None);
            (sent, got)
        });
        if daemon_cpu.is_some() {
            pin(0, &cpus);
        }
        sent_got
    }

    /// Close the connection and wait for the process to exit.
    fn wait(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

/// Write one request line in a single write.
fn send(stdin: &mut ChildStdin, line: &str) -> std::io::Result<()> {
    stdin.write_all(format!("{line}\n").as_bytes())?;
    stdin.flush()
}

fn wait_until(due: Instant) {
    let spin = Duration::from_secs_f64(SPIN_S);
    let now = Instant::now();
    if due > now + spin {
        thread::sleep(due - now - spin);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn ok_reply(line: &str) -> bool {
    matches!(Json::parse(line).ok().and_then(|v| v.get("ok").cloned()), Some(Json::Bool(true)))
}

/// One untraced episode against the real daemon binary `bin`, on a fresh
/// state directory `dir`, with the set-up reference of `refs` timed after
/// each set-up and its loop reference during the open loop.
pub fn daemon_episode(
    seed: u64,
    bin: &Path,
    dir: &Path,
    refs: Option<&Refs>,
) -> Result<Episode, String> {
    let cfg = service_config(seed);
    let truth = synthetic_truth(&cfg).map_err(|e| e.to_string())?;
    let sched = schedule(seed, QUERIES, HINT_RATE, TICK_PERIOD_S, PHASE_S);
    let mut ep = Episode::default();

    // Set-up is spawn plus the init reply, timed on several fresh state
    // directories; the episode reports the median and keeps the last
    // daemon.
    let mut setups = Vec::with_capacity(SETUPS_PER_EPISODE);
    let mut setup_refs = Vec::with_capacity(SETUPS_PER_EPISODE);
    let mut daemon = None;
    for i in 0..SETUPS_PER_EPISODE {
        let last = i + 1 == SETUPS_PER_EPISODE;
        let state = if last { dir.to_path_buf() } else { dir.with_extension(format!("setup{i}")) };
        let t0 = Instant::now();
        let mut d = Daemon::spawn(bin, &state)?;
        let init = d.request(&init_line(&cfg))?;
        setups.push(t0.elapsed().as_secs_f64());
        if let Some(r) = refs {
            setup_refs.push(r.setup.timed_fit().wall_s);
        }
        ep.checks.check(ok_reply(&init), || format!("init failed: {init}"));
        if last {
            daemon = Some(d);
        } else {
            d.request("{\"op\":\"shutdown\"}")?;
            d.wait()?;
            let _ = std::fs::remove_dir_all(&state);
        }
    }
    ep.setup_s = median(&setups);
    ep.samples.push(("setup".into(), setups));
    ep.samples.push(("setup_ref".into(), setup_refs));
    let mut d = daemon.expect("the last set-up keeps its daemon");
    let pid = d.child.id().to_string();

    // The open loop runs on the schedule's clock, so its wall time is the
    // schedule's length. What it cost the daemon is the CPU time the
    // daemon spent on it.
    let cpu0 = cpu_s(&pid);
    // The daemon answers the open loop from one CPU, chosen by the seed, so
    // the reference can be timed where the daemon's fits run.
    let cpus = allowed_cpus();
    let daemon_cpu = cpus.get(seed as usize % cpus.len().max(1)).copied();
    let daemon_cpu = daemon_cpu.filter(|&c| pin(d.child.id(), &[c]));
    let mut loop_refs = Vec::new();
    let looped = refs.map(|r| &r.looped);
    let (sent, replies) = d.open_loop(&sched, looped, daemon_cpu, &mut loop_refs);
    for s in loop_refs {
        ep.reference(s);
    }
    let cpu1 = cpu_s(&pid);
    let replied: Vec<Option<f64>> = replies.iter().map(|r| r.as_ref().map(|(t, _)| *t)).collect();
    for (due, reply) in sched.iter().zip(&replies) {
        check_reply(&mut ep.checks, due.op, reply.as_ref().map(|(_, l)| l.as_str()), &truth);
    }
    let t = timing(&sched, &sent, &replied);
    ep.checks
        .check(cpu0.is_some() && cpu1.is_some(), || "cannot read the daemon's CPU time".into());
    ep.loop_s = match (cpu0, cpu1) {
        (Some(a), Some(b)) if replied.iter().all(Option::is_some) => b - a,
        _ => f64::INFINITY,
    };

    let before = d.request("{\"op\":\"trace\"}")?;
    ep.rss_mb = peak_rss_mb(&pid).unwrap_or(f64::NAN);
    let bye = d.request("{\"op\":\"shutdown\"}")?;
    ep.checks
        .check(ok_reply(&before) && ok_reply(&bye), || format!("trace/shutdown failed: {bye}"));
    d.wait()?;

    // Restart on the same directory: recovery until the first reply.
    let t1 = Instant::now();
    let mut d = Daemon::spawn(bin, dir)?;
    let status = d.request("{\"op\":\"status\"}")?;
    let recover_s = t1.elapsed().as_secs_f64();
    let after = d.request("{\"op\":\"trace\"}")?;
    let bye = d.request("{\"op\":\"shutdown\"}")?;
    d.wait()?;
    ep.checks.check(ok_reply(&status) && ok_reply(&bye), || format!("restart failed: {status}"));
    ep.checks.check(after == before, || {
        "trace after restart differs from the trace before shutdown".into()
    });

    ep.ratio = ratio_from_trace(&before, &truth)?;
    ep.fingerprint = fingerprint(&before);
    ep.requests = t.hints;
    ep.rounds = t.ticks;
    ep.extra("recover_s", recover_s, "s");
    ep.extra("loadgen.sent", sent.len() as f64, "count");
    ep.samples.push(("loadgen.late".into(), t.late));
    Ok(ep)
}

/// The same request sequence replayed in-process through [`Service`]:
/// `traced` puts [`TimedStorage`] under it and records spans. A
/// `reference` is timed [`REFS_PER_GAP`] times after every tick, and its
/// time is not part of the loop's.
pub fn replay_episode(
    seed: u64,
    dir: &Path,
    traced: bool,
    reference: Option<&Reference>,
) -> Result<Episode, String> {
    let cfg = service_config(seed);
    let truth = synthetic_truth(&cfg).map_err(|e| e.to_string())?;
    let sched = schedule(seed, QUERIES, HINT_RATE, TICK_PERIOD_S, PHASE_S);
    let storage = || -> Box<dyn Storage> {
        if traced {
            Box::new(TimedStorage::new(Box::new(FsStorage)))
        } else {
            Box::new(FsStorage)
        }
    };
    let mut ep = Episode::default();

    let t0 = Instant::now();
    let (mut svc, init) =
        span("setup", || handle_init_with(storage(), dir, &init_line(&cfg), None))?;
    ep.setup_s = t0.elapsed().as_secs_f64();
    ep.checks.check(ok_reply(&init), || format!("init failed: {init}"));

    let lines: Vec<String> = sched.iter().map(|d| d.op.line()).collect();
    let t1 = Instant::now();
    span("loop", || {
        for (i, (d, line)) in sched.iter().zip(&lines).enumerate() {
            trace::set_group(i as u64);
            let name = if matches!(d.op, Op::Tick) { "svc.tick" } else { "svc.hint" };
            let t = Instant::now();
            let reply = span(name, || svc.handle(line));
            let secs = t.elapsed().as_secs_f64();
            check_reply(&mut ep.checks, d.op, Some(reply.line()), &truth);
            match d.op {
                Op::Tick => ep.rounds.push(secs),
                Op::Hint(_) => ep.requests.push(secs),
            }
            if let (Op::Tick, Some(r)) = (d.op, reference) {
                for _ in 0..REFS_PER_GAP {
                    ep.reference(span("reference", || r.timed_fit()));
                }
            }
        }
    });
    ep.loop_s = t1.elapsed().as_secs_f64() - ep.refs.iter().sum::<f64>();

    let before = span("svc.other", || svc.handle("{\"op\":\"trace\"}").line().to_string());
    let bye = span("svc.other", || svc.handle("{\"op\":\"shutdown\"}").line().to_string());
    ep.checks
        .check(ok_reply(&before) && ok_reply(&bye), || format!("trace/shutdown failed: {bye}"));
    drop(svc);

    let t2 = Instant::now();
    let mut svc =
        span("recover", || Service::open_with(storage(), dir, None)).map_err(|e| e.to_string())?;
    let status = svc.handle("{\"op\":\"status\"}").line().to_string();
    ep.extra("recover_s", t2.elapsed().as_secs_f64(), "s");
    let after = svc.handle("{\"op\":\"trace\"}").line().to_string();
    let bye = svc.handle("{\"op\":\"shutdown\"}").line().to_string();
    ep.checks.check(ok_reply(&status) && ok_reply(&bye), || format!("restart failed: {status}"));
    ep.checks.check(after == before, || {
        "trace after restart differs from the trace before shutdown".into()
    });

    ep.ratio = ratio_from_trace(&before, &truth)?;
    ep.fingerprint = fingerprint(&before);
    ep.rss_mb = peak_rss_mb("self").unwrap_or(f64::NAN);
    Ok(ep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = schedule(7, 500, 800.0, 0.25, 2.0);
        assert_eq!(a, schedule(7, 500, 800.0, 0.25, 2.0));
        assert_ne!(a, schedule(8, 500, 800.0, 0.25, 2.0));
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "due order");
        assert!(a.iter().all(|d| d.at > 0.0 && d.at < 2.0));
        let ticks: Vec<f64> = a.iter().filter(|d| d.op == Op::Tick).map(|d| d.at).collect();
        assert_eq!(ticks, vec![0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75]);
        let hints = a.len() - ticks.len();
        assert!((1400..1800).contains(&hints), "{hints} hints for 1600 expected");
        assert!(a.iter().all(|d| !matches!(d.op, Op::Hint(r) if r >= 500)));
    }

    #[test]
    fn latency_runs_from_due_and_counts_lateness() {
        let sched = [
            Due { at: 0.010, op: Op::Hint(3) },
            Due { at: 0.020, op: Op::Tick },
            Due { at: 0.030, op: Op::Hint(4) },
            Due { at: 0.040, op: Op::Hint(5) },
        ];
        // The generator sent the third request 5 ms late (stalled behind
        // the tick); the fourth never got a reply.
        let sent = [0.010, 0.020, 0.035, 0.040];
        let replied = [Some(0.011), Some(0.120), Some(0.121), None];
        let t = timing(&sched, &sent, &replied);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(t.late[2], 0.005));
        assert!(close(t.hints[0], 0.001));
        // Queued behind the tick, timed from when it was due, not sent.
        assert!(close(t.hints[1], 0.091));
        assert!(t.hints[2].is_infinite(), "a missing reply is infinitely late");
        assert!(close(t.ticks[0], 0.100));
        // A request never sent is infinitely late too.
        assert!(timing(&sched, &sent[..2], &replied).late[3].is_infinite());
    }

    #[test]
    fn ratio_rebuilds_row_bests_from_the_trace() {
        let truth = limeqo_linalg::Mat::from_rows(&[&[4.0, 1.0, 3.0], &[2.0, 5.0, 1.5]]);
        let bits = |x: f64| format!("{:016x}", x.to_bits());
        let line = format!(
            "{{\"ok\":true,\"op\":\"trace\",\"entries\":[[0,1,\"{}\",0],[1,1,\"{}\",1],[1,2,\"{}\",0]]}}",
            bits(1.0),
            bits(2.0),
            bits(1.5)
        );
        let r = ratio_from_trace(&line, &truth).unwrap();
        assert!((r - (1.0 + 1.5) / 6.0).abs() < 1e-12);
    }
}
