//! `perfbench` — the LimeQO workspace's end-to-end benchmark of record.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload (`offline-10k`, `svc-serve`, `online-zipf`; see
//! README.md) for about `S` seconds, checks its outputs,
//! and prints a report line followed by the result line
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs each episode untraced
//! and again with timing decorators around the crates' public traits,
//! checks that the two agree bit for bit, and reports the per-layer
//! metrics.
//!
//! Every episode runs in a fresh child process of this binary (a second
//! exploration in one process runs measurably slower, see README.md), with
//! its own seed derived from `N`. Episodes start until `S` seconds have
//! passed, so a run lasts `S` seconds plus the rest of its last episode.
//! Each episode times a fixed reference computation between its own work,
//! and the end-to-end times are reported at the reference's nominal speed
//! (see `reference.rs`), because the shared host's speed varies more than
//! any bound the benchmark may set.

mod decor;
mod episode;
mod offline;
mod online;
mod reference;
mod report;
mod stats;
mod svc;
mod trace;

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use limeqo_bench::Json;

use episode::Episode;
use reference::{Reference, Refs};
use report::{num, Outcome};
use stats::{mean, median, Summary};

/// The end-to-end metrics `BENCHMARK.json` declares, in its order.
/// Request latencies (hint and serve p50/p99) are in the report line
/// only: see README.md for why they are not of record.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("explore_s", "s"),
    ("round_ms", "ms"),
    ("workload_latency_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics `BENCHMARK.json` declares, in its order. A layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("complete.calls", "count"),
    ("complete.share", "frac"),
    ("policy.calls", "count"),
    ("policy.share", "frac"),
    ("policy.fill_frac", "frac"),
    ("explore.rounds", "count"),
    ("explore.share", "frac"),
    ("explore.oracle_calls", "count"),
    ("explore.oracle_per_probe", "ratio"),
    ("store.censored_frac", "frac"),
    ("store.mem_mb", "MB"),
    ("sim.setup_frac", "frac"),
    ("online.arrivals", "count"),
    ("online.share", "frac"),
    ("online.gamble_frac", "frac"),
    ("online.win_frac", "frac"),
    ("online.refreshes", "count"),
    ("svc.share", "frac"),
    ("svc.transport_frac", "frac"),
    ("persist.share", "frac"),
    ("persist.appends", "count"),
    ("persist.bytes_per_event", "B"),
    ("persist.syncs", "count"),
    ("persist.snapshots", "count"),
    ("persist.replayed_events", "count"),
    ("persist.recover_read_frac", "frac"),
    ("loadgen.sent", "count"),
    ("trace.loop_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
];

/// A workload the benchmark runs.
struct Workload {
    name: &'static str,
    /// What a round and a request are on this workload, for the report.
    round: &'static str,
    request: &'static str,
    /// Report names and unit (with its scale from seconds) of the request
    /// median and tail, where the workload has requests of its own.
    request_names: Option<(&'static str, &'static str, &'static str, f64)>,
    /// The host-speed references: the loop's shaped like the workload's
    /// ALS fits, the set-up's like its set-up.
    reference: Refs,
    /// Whether `explore_s` is CPU time (the daemon's) rather than wall time.
    loop_is_cpu: bool,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "offline-10k",
        round: "Explorer::step",
        request: "Explorer::step",
        request_names: None,
        reference: Refs {
            // Cold fits of the whole 10k×49 matrix at auto threads.
            looped: Reference {
                rows: 10_000,
                cols: 49,
                rank: 5,
                iters: 5,
                threads: 0,
                nominal_s: 0.060,
            },
            // The synthetic build is serial, over a matrix of that size.
            setup: Reference {
                rows: 10_000,
                cols: 49,
                rank: 5,
                iters: 2,
                threads: 1,
                nominal_s: 0.021,
            },
        },
        loop_is_cpu: false,
    },
    Workload {
        name: "svc-serve",
        round: "tick reply",
        request: "hint reply",
        request_names: Some(("hint_p50_ms", "hint_p99_ms", "ms", 1e3)),
        reference: Refs {
            // The daemon's tick fits: 1000×49, below the parallel threshold.
            looped: Reference {
                rows: 1000,
                cols: 49,
                rank: 5,
                iters: 4,
                threads: 1,
                nominal_s: 0.0055,
            },
            // Spawn plus `init` is serial and short.
            setup: Reference {
                rows: 1000,
                cols: 49,
                rank: 5,
                iters: 2,
                threads: 1,
                nominal_s: 0.0021,
            },
        },
        loop_is_cpu: true,
    },
    Workload {
        name: "online-zipf",
        round: "refreshing serve",
        request: "serve",
        request_names: Some(("serve_p50_us", "serve_p99_us", "us", 1e6)),
        reference: Refs {
            // The refreshes' fits: 300×49, serial.
            looped: Reference {
                rows: 300,
                cols: 49,
                rank: 5,
                iters: 15,
                threads: 1,
                nominal_s: 0.0055,
            },
            // The simulated oracle is built on auto threads, so the
            // slower CPU sets its time.
            setup: Reference {
                rows: 2000,
                cols: 49,
                rank: 5,
                iters: 10,
                threads: 0,
                nominal_s: 0.021,
            },
        },
        loop_is_cpu: false,
    },
];

/// Wall-clock limit on a whole invocation; an episode still running past
/// it is stopped and counts as failed.
const RUN_LIMIT: Duration = Duration::from_secs(170);

/// Derive an independent 53-bit seed for stream `stream` of run `seed`
/// (SplitMix64). 53 bits survive the daemon's JSON protocol exactly.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & ((1 << 53) - 1)
}

/// The repository root this binary was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// `<target>/release`: where this binary and the daemon live.
fn bin_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    exe.parent().map(Path::to_path_buf).ok_or_else(|| "executable has no directory".into())
}

/// Scratch space for state directories and span files, inside the build
/// directory of the checkout.
fn out_dir() -> Result<PathBuf, String> {
    Ok(bin_dir()?.join("perfbench-out"))
}

/// Build `limeqo-svc` from this checkout into the same target directory,
/// under the workspace's own release profile. A no-op when it is fresh.
fn build_daemon() -> Result<(), String> {
    let bin_dir = bin_dir()?;
    let target = bin_dir.parent().ok_or("release directory has no parent")?;
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "limeqo-svc",
            "--bin",
            "limeqo-svc",
        ])
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("building limeqo-svc failed ({status})"))
    }
}

/// `(steal, total)` CPU time of the whole machine so far, in clock ticks
/// (`/proc/stat`): time the hypervisor gave this VM's CPUs to someone
/// else shows up as steal.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

fn git_commit() -> String {
    let root = repo_root();
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(&root)
        // A checkout that is not a repository must not be resolved
        // against one it happens to sit in.
        .env("GIT_CEILING_DIRECTORIES", root.join(".."))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Child mode: the episode variant to run (`plain`, `traced`, `replay`).
    child: Option<String>,
}

impl Workload {
    /// An episode's host speed from its loop reference fit times: the
    /// reference's nominal time over their mean. A time × speed reads at
    /// the nominal host speed (see reference.rs). NaN without samples.
    fn speed(&self, refs: &[f64]) -> f64 {
        self.reference.looped.nominal_s / mean(refs)
    }

    /// The same from the set-up reference's fit times.
    fn setup_speed(&self, refs: &[f64]) -> f64 {
        self.reference.setup.nominal_s / mean(refs)
    }
}

fn workload(name: &str) -> &'static Workload {
    WORKLOADS.iter().find(|w| w.name == name).expect("validated by parse_args")
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 0.0, trace: false, child: None };
    let (mut have_seed, mut have_secs) = (false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                have_seed = true;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                have_secs = true;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--child" => args.child = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {names:?}"));
    }
    if !have_seed || (args.child.is_none() && (!have_secs || args.seconds <= 0.0)) {
        return Err("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1".into());
    }
    Ok(args)
}

// ---------------------------------------------------------------------------
// Child side: one episode, printed as one JSON line.

fn run_child(args: &Args, variant: &str) -> Result<Episode, String> {
    let out = out_dir()?;
    let state = out.join(format!("state-{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let traced = variant == "traced";
    if traced {
        trace::start();
    }
    // Traced episodes time the reference too, so that its effect on the
    // caches is the same on both sides of `trace.overhead_frac`.
    let reference = Some(&workload(&args.workload).reference);
    let mut ep = match (args.workload.as_str(), variant) {
        ("offline-10k", "plain" | "traced") => {
            offline::episode(&offline::offline_10k_spec(), args.seed, traced, reference)
        }
        ("online-zipf", "plain" | "traced") => {
            online::episode(&online::spec(), args.seed, traced, reference)
        }
        ("svc-serve", "plain") => {
            svc::daemon_episode(args.seed, &bin_dir()?.join("limeqo-svc"), &state, reference)?
        }
        ("svc-serve", "replay" | "traced") => {
            svc::replay_episode(args.seed, &state, traced, reference.map(|r| &r.looped))?
        }
        (w, v) => return Err(format!("no {v:?} episode for {w}")),
    };
    let _ = std::fs::remove_dir_all(&state);
    if ep.rss_mb == 0.0 {
        ep.rss_mb = report::peak_rss_mb("self").unwrap_or(f64::NAN);
    }
    if traced {
        let rec = trace::finish();
        let probes = ep.get("probes").unwrap_or(0.0) as usize;
        episode::account(&mut ep, &rec, probes);
        if args.workload == "svc-serve" {
            svc_recover_layers(&mut ep, &rec);
        }
        let path = out.join("spans").join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        trace::write_jsonl(&path, &rec.spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(ep)
}

/// Recovery metrics of a traced replay: journal records replayed, and the
/// recovery span split into file reads and the rest (snapshot decode,
/// environment rebuild, and the journal replayed through the engine).
fn svc_recover_layers(ep: &mut Episode, rec: &trace::Recording) {
    let spans = &rec.spans;
    let Some(ri) = spans.iter().position(|s| s.name == "recover") else { return };
    let recover = spans[ri];
    let io: Vec<&trace::Span> = spans.iter().filter(|s| s.parent as usize == ri).collect();
    let read_ns: u64 = io.iter().filter(|s| s.name == "persist.read").map(|s| s.dur()).sum();
    let io_ns: u64 = io.iter().map(|s| s.dur()).sum();
    let replayed = rec.counters.get("persist.replayed_events").copied().unwrap_or(0);
    ep.layer("persist.replayed_events", replayed as f64, "count");
    ep.layer("persist.recover_read_frac", read_ns as f64 / recover.dur().max(1) as f64, "frac");
    ep.extra("persist.recover_read_s", read_ns as f64 * 1e-9, "s");
    ep.extra("persist.recover_replay_s", (recover.dur() - io_ns) as f64 * 1e-9, "s");
}

// ---------------------------------------------------------------------------
// Parent side: episodes in child processes, aggregated.

/// Run one episode in a child process and parse its result line.
fn spawn_episode(
    args: &Args,
    seed: u64,
    variant: &str,
    deadline: Instant,
) -> Result<Episode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args(["--workload", &args.workload, "--seed", &seed.to_string(), "--child", variant])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start an episode: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stdout.read_to_string(&mut s);
        s
    });
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break Ok(status);
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            break Err(format!(
                "{variant} episode (seed {seed}) ran past the run limit and was stopped"
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let text = reader.join().expect("episode reader panicked");
    let status = status?;
    if !status.success() {
        return Err(format!("{variant} episode (seed {seed}) failed: {status}"));
    }
    let line = text.lines().last().ok_or("episode printed nothing")?;
    Episode::from_json(&Json::parse(line)?)
}

/// Call `run(derive_seed(seed, i))` for episodes `i = 0, 1, …` until
/// `seconds` have passed: at least one, and none started once the time
/// is used up. Returns the seeds run.
fn for_episodes(args: &Args, mut run: impl FnMut(u64)) -> Vec<u64> {
    let start = Instant::now();
    let mut seeds = Vec::new();
    while seeds.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let seed = derive_seed(args.seed, seeds.len() as u64);
        seeds.push(seed);
        run(seed);
    }
    seeds
}

fn provenance(args: &Args, seeds: &[u64]) -> Json {
    Json::Obj(vec![
        ("workload".into(), Json::Str(args.workload.clone())),
        ("seed".into(), num(args.seed as f64)),
        ("episode_seeds".into(), Json::Arr(seeds.iter().map(|&s| num(s as f64)).collect())),
        ("seconds".into(), num(args.seconds)),
        ("commit".into(), Json::Str(git_commit())),
        ("nproc".into(), num(limeqo_linalg::par::auto_threads() as f64)),
        ("als_threads".into(), num(limeqo_linalg::par::resolve_threads(0) as f64)),
        ("als_min_par_work".into(), num(limeqo_linalg::par::MIN_PAR_WORK as f64)),
    ])
}

fn untraced(args: &Args, w: &Workload, deadline: Instant) -> Outcome {
    let mut out = Outcome::default();
    let mut eps = Vec::new();
    let seeds = for_episodes(args, |seed| match spawn_episode(args, seed, "plain", deadline) {
        Ok(ep) => eps.push(ep),
        Err(e) => out.checks.check(false, || e),
    });
    out.note("provenance", provenance(args, &seeds));
    if eps.is_empty() {
        return out;
    }
    for e in &eps {
        out.checks.check(!e.refs.is_empty() && !e.sample("setup_ref").is_empty(), || {
            "an episode timed no reference fit".into()
        });
    }
    // Samples pooled over the episodes, each scaled by its episode's `scale`.
    let pooled = |name: &str, scale: &dyn Fn(&Episode) -> f64| -> Vec<f64> {
        eps.iter().flat_map(|e| e.sample(name).iter().map(move |x| x * scale(e))).collect()
    };
    let raw = |_: &Episode| 1.0;
    let setup_speed = |e: &Episode| w.setup_speed(e.sample("setup_ref"));
    // A CPU time scales by the CPU-time speed.
    let loop_speed = |e: &Episode| w.speed(if w.loop_is_cpu { &e.refs_cpu } else { &e.refs });
    let rounds = Summary::of(&pooled("rounds", &raw));
    let requests = Summary::of(&pooled("requests", &raw));
    let col = |f: &dyn Fn(&Episode) -> f64| median(&eps.iter().map(f).collect::<Vec<f64>>());
    let values = [
        median(&pooled("setup", &setup_speed)),
        col(&|e| e.loop_s * loop_speed(e)),
        col(&|e| mean(&e.rounds) * w.speed(&e.refs) * 1e3),
        col(&|e| e.ratio),
        col(&|e| e.rss_mb),
    ];
    for (&(name, unit), value) in END_TO_END.iter().zip(values) {
        out.metric(name, value, unit);
    }
    let n = eps.len();
    out.value(format!("host_speed (median of {n})"), col(&|e| w.speed(&e.refs)), "x");
    out.value(format!("setup_host_speed (median of {n})"), col(&setup_speed), "x");
    out.value("reference_fits", eps.iter().map(|e| e.refs.len()).sum::<usize>() as f64, "count");
    out.value("setup_s raw", median(&pooled("setup", &raw)), "s");
    out.value(format!("explore_s raw (median of {n})"), col(&|e| e.loop_s), "s");
    out.timing(format!("round: {}", w.round), rounds, 1e3, "ms");
    out.timing(format!("request: {}", w.request), requests, 1e3, "ms");
    if let (Some((p50, tail, unit, scale)), Some(s)) = (w.request_names, requests) {
        out.value(p50, s.p50 * scale, unit);
        out.value(format!("{tail} (p{})", s.tail_pct.unwrap_or(100)), s.tail * scale, unit);
    }
    let late = pooled("loadgen.late", &raw);
    if !late.is_empty() {
        out.timing("loadgen.late", Summary::of(&late), 1e3, "ms");
    }
    for (name, unit) in [("recover_s", "s"), ("loadgen.sent", "count")] {
        let v: Vec<f64> = eps.iter().filter_map(|e| e.get(name)).collect();
        if !v.is_empty() {
            out.value(format!("{name} (median of {})", v.len()), median(&v), unit);
        }
    }
    for ep in eps {
        out.checks.absorb(ep.checks);
    }
    out.value("fail_frac", out.checks.failed as f64 / out.checks.attempted.max(1) as f64, "frac");
    out
}

fn traced(args: &Args, w: &Workload, deadline: Instant) -> Outcome {
    let mut out = Outcome::default();
    let svc = w.name == "svc-serve";
    let mut layers: Vec<(String, f64)> = Vec::new();
    let mut extras: Vec<(String, f64, String)> = Vec::new();
    let mut overheads = Vec::new();
    let seeds = for_episodes(args, |seed| {
        // The untraced twin of a traced episode. For svc-serve the traced
        // run replays the daemon's request sequence in-process, so its
        // overhead is measured against an untraced in-process replay.
        let plain = spawn_episode(args, seed, "plain", deadline);
        let replay = svc.then(|| spawn_episode(args, seed, "replay", deadline));
        let traced = spawn_episode(args, seed, "traced", deadline);
        let (plain, traced) = match (plain, traced) {
            (Ok(p), Ok(t)) => (p, t),
            (p, t) => {
                for e in [p.err(), t.err()].into_iter().flatten() {
                    out.checks.check(false, || e);
                }
                return;
            }
        };
        out.checks.check(plain.fingerprint == traced.fingerprint, || {
            format!("seed {seed}: the traced run diverged from the untraced one")
        });
        // Both loops at the nominal host speed, so that the host's drift
        // between the two processes is not billed to tracing.
        let nominal_loop = |e: &Episode| e.loop_s * w.speed(&e.refs);
        let base_loop = match replay {
            None => nominal_loop(&plain),
            Some(Ok(replay)) => {
                out.checks.check(replay.fingerprint == traced.fingerprint, || {
                    format!("seed {seed}: the untraced replay diverged from the daemon")
                });
                let loop_s = nominal_loop(&replay);
                out.checks.absorb(replay.checks);
                loop_s
            }
            Some(Err(e)) => {
                out.checks.check(false, || e);
                return;
            }
        };
        overheads.push((nominal_loop(&traced) - base_loop) / base_loop);
        if svc {
            // Transport share of a hint: the daemon's reply time not spent
            // inside `Service::handle`.
            let hint_p50 = Summary::of(&plain.requests).map_or(f64::NAN, |s| s.p50);
            let handle = traced.get("svc.hint_handle_us").unwrap_or(f64::NAN) * 1e-6;
            layers.push(("svc.transport_frac".into(), 1.0 - handle / hint_p50));
            layers.push(("loadgen.sent".into(), plain.get("loadgen.sent").unwrap_or(0.0)));
            extras.push(("hint_p50_ms".into(), hint_p50 * 1e3, "ms".into()));
        }
        layers.extend(traced.layers.iter().map(|(n, v, _)| (n.clone(), *v)));
        extras.extend(traced.extra.iter().cloned());
        out.checks.absorb(plain.checks);
        out.checks.absorb(traced.checks);
    });
    out.note("provenance", provenance(args, &seeds));
    let median_of = |pairs: &[(String, f64)], name: &str| -> Option<f64> {
        let v: Vec<f64> = pairs.iter().filter(|(n, _)| n == name).map(|(_, v)| *v).collect();
        (!v.is_empty()).then(|| median(&v))
    };
    for &(name, unit) in &PER_LAYER {
        let value = match name {
            "trace.overhead_frac" if !overheads.is_empty() => median(&overheads),
            _ => median_of(&layers, name).unwrap_or(0.0),
        };
        out.metric(name, value, unit);
    }
    let mut seen = Vec::new();
    for (name, _, unit) in &extras {
        if !seen.contains(name) {
            seen.push(name.clone());
            let v: Vec<(String, f64)> = extras
                .iter()
                .filter(|(n, _, _)| n == name)
                .map(|(n, v, _)| (n.clone(), *v))
                .collect();
            out.value(name.clone(), median_of(&v, name).unwrap_or(0.0), unit);
        }
    }
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(variant) = &args.child {
        match run_child(&args, variant) {
            Ok(ep) => println!("{}", ep.to_json().render()),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let deadline = Instant::now() + RUN_LIMIT;
    if let Err(e) = build_daemon() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    let w = workload(&args.workload);
    let before = cpu_ticks();
    let mut out =
        if args.trace { traced(&args, w, deadline) } else { untraced(&args, w, deadline) };
    // Shared hosts slow whole runs down; the steal share says when.
    if let (Some((s0, t0)), Some((s1, t1))) = (before, cpu_ticks()) {
        out.value("host_steal_frac", (s1 - s0) as f64 / (t1 - t0).max(1) as f64, "frac");
    }
    println!("{}", out.report_line());
    println!("{}", out.result_line());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = v.get(key) else { panic!("BENCHMARK.json lacks {key}") };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| match m.get(k) {
                    Some(Json::Str(s)) => s.clone(),
                    _ => String::new(),
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_harness_prints() {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
        let v = Json::parse(&text).unwrap();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names(&v, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&v, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names(&v, "workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS.map(|w| w.name));
    }

    #[test]
    fn derived_seeds_are_distinct_and_fit_the_protocol() {
        let seeds: Vec<u64> = (0..64).map(|i| derive_seed(7, i)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.len());
        assert!(seeds.iter().all(|&s| s < 1 << 53 && (s as f64) as u64 == s));
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }

    #[test]
    fn episode_results_round_trip_through_json() {
        let mut ep = Episode {
            setup_s: 0.25,
            loop_s: 1.0 / 3.0,
            rounds: vec![0.1, 0.2],
            requests: vec![1e-7],
            ratio: 0.7,
            rss_mb: 12.5,
            fingerprint: u64::MAX - 5,
            ..Episode::default()
        };
        ep.checks.check(false, || "a note".into());
        ep.layer("complete.calls", 3.0, "count");
        ep.extra("recover_s", 0.5, "s");
        ep.samples.push(("loadgen.late".into(), vec![1e-6, 2e-6]));
        let back = Episode::from_json(&Json::parse(&ep.to_json().render()).unwrap()).unwrap();
        assert_eq!(back.to_json().render(), ep.to_json().render());
        assert_eq!(back.fingerprint, ep.fingerprint);
        assert_eq!(back.loop_s.to_bits(), ep.loop_s.to_bits());
    }
}
