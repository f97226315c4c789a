//! `limeqo-svc` — the always-on optimizer daemon.
//!
//! ```text
//! limeqo-svc --dir STATE_DIR [--script FILE] [--crash-after-events N]
//! ```
//!
//! Requests are newline-delimited JSON, one object per line, read from
//! stdin (or `--script FILE`); responses go to stdout, one line per
//! request (see the `limeqo_svc` crate docs for the protocol). On an
//! existing state directory the daemon recovers from the journal before
//! serving; on a fresh one the first request must be `init`.
//!
//! `--crash-after-events N` aborts the process — SIGKILL-style, no flush,
//! no destructors — as soon as N events have been journaled. CI's crash
//! smoke uses it to die mid-round at a deterministic point, then verifies
//! a recovered run's trace is byte-identical to an unkilled one.
//!
//! `--fault-at N[:KIND]` is the chaos dev flag: it wraps the state
//! directory in a fault-injecting storage layer that fails the N-th
//! journal append (0-based; KIND one of `fail`, `short`, `sync`,
//! `enospc`, default `fail`). The daemon is expected to keep serving
//! degraded — CI's chaos smoke asserts `status` reports
//! `"degraded":true`, hints still work, and a restart comes up clean.

use std::io::{BufRead, Write};
use std::path::PathBuf;

use limeqo_core::{FaultAt, FaultKind, FaultScript, FaultStorage, FsStorage, OpClass, Storage};
use limeqo_svc::{error_reply, handle_init_with, Reply, Service};

struct Args {
    dir: PathBuf,
    script: Option<PathBuf>,
    crash_after: Option<u64>,
    fault: Option<FaultScript>,
}

/// `N[:KIND]` — fail the N-th journal append with KIND.
fn parse_fault(v: &str) -> Result<FaultScript, String> {
    let (at, kind) = match v.split_once(':') {
        Some((at, kind)) => (at, kind),
        None => (v, "fail"),
    };
    let at: u64 = at.parse().map_err(|_| format!("bad fault op index {at:?}"))?;
    let kind = match kind {
        "fail" => FaultKind::FailOp,
        // Half a CRC header: enough to tear the record, not enough to
        // accidentally form a valid one.
        "short" => FaultKind::ShortWrite(4),
        "sync" => FaultKind::FailSync,
        "enospc" => FaultKind::Enospc,
        other => return Err(format!("unknown fault kind {other:?}")),
    };
    Ok(FaultScript::single(FaultAt::Class(OpClass::Append, at), kind))
}

fn storage_for(args: &Args) -> Box<dyn Storage> {
    match &args.fault {
        Some(script) => Box::new(FaultStorage::new(Box::new(FsStorage), script.clone())),
        None => Box::new(FsStorage),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut dir = None;
    let mut script = None;
    let mut crash_after = None;
    let mut fault = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dir" => dir = Some(PathBuf::from(it.next().ok_or("--dir needs a value")?)),
            "--script" => script = Some(PathBuf::from(it.next().ok_or("--script needs a value")?)),
            "--crash-after-events" => {
                let v = it.next().ok_or("--crash-after-events needs a value")?;
                crash_after = Some(v.parse().map_err(|_| format!("bad event count {v:?}"))?);
            }
            "--fault-at" => {
                let v = it.next().ok_or("--fault-at needs a value (N or N:KIND)")?;
                fault = Some(parse_fault(&v)?);
            }
            "--help" | "-h" => {
                println!(
                    "usage: limeqo-svc --dir STATE_DIR [--script FILE] \
[--crash-after-events N] [--fault-at N[:KIND]]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args { dir: dir.ok_or("--dir is required")?, script, crash_after, fault })
}

fn serve(
    mut svc: Option<Service>,
    args: &Args,
    lines: impl Iterator<Item = std::io::Result<String>>,
) -> Result<(), String> {
    let stdout = std::io::stdout();
    for line in lines {
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let reply = match &mut svc {
            Some(s) => s.handle(line),
            None => match handle_init_with(storage_for(args), &args.dir, line, args.crash_after) {
                Ok((s, reply)) => {
                    svc = Some(s);
                    Reply::Line(reply)
                }
                Err(msg) => Reply::Line(error_reply(msg)),
            },
        };
        {
            let mut out = stdout.lock();
            writeln!(out, "{}", reply.line()).map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
        }
        if matches!(reply, Reply::Shutdown(_)) {
            return Ok(());
        }
    }
    // EOF without a shutdown op: flush the journal anyway (graceful stop).
    if let Some(mut s) = svc.take() {
        s.handle(r#"{"op":"shutdown"}"#);
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("limeqo-svc: {e}");
            std::process::exit(2);
        }
    };
    let svc = if Service::exists(&args.dir) {
        match Service::open_with(storage_for(&args), &args.dir, args.crash_after) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("limeqo-svc: recovery failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };
    let result = match &args.script {
        Some(path) => {
            let file = match std::fs::File::open(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("limeqo-svc: cannot open script {}: {e}", path.display());
                    std::process::exit(2);
                }
            };
            serve(svc, &args, std::io::BufReader::new(file).lines())
        }
        None => {
            let stdin = std::io::stdin();
            serve(svc, &args, stdin.lock().lines())
        }
    };
    if let Err(e) = result {
        eprintln!("limeqo-svc: {e}");
        std::process::exit(1);
    }
}
