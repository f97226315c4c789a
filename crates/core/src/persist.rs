//! Durable engine state: append-only event journal + periodic snapshots.
//!
//! The [`crate::engine::Engine`] is a deterministic function of its initial
//! state and its input events, so durability is state-machine replication
//! against the local disk:
//!
//! * every [`Event`] is appended to a *journal* (write-ahead: the
//!   record is written and flushed before the event is applied),
//! * periodically the *full* engine state — store, model state, RNG
//!   position, clock, trace, pending probes — is written to a *snapshot*,
//!   after which a fresh journal segment starts and old segments are
//!   garbage-collected,
//! * [`DurableEngine::recover`] loads the newest valid snapshot and
//!   replays its journal tail, resuming **bit-identically at any kill
//!   point** — the restart extension of the PERF.md determinism contract.
//!
//! # On-disk format (snapshot `v2`, journal `v1`)
//!
//! A state directory holds `snap-<N>.snap` and `wal-<N>.log` files, where
//! `N` is the count of events applied when the snapshot was taken;
//! `wal-<N>.log` records the events *after* snapshot `N`. Both are
//! line-oriented UTF-8:
//!
//! ```text
//! snap-N.snap:   limeqo-snap v2 <N>
//!                <payload tokens, one line>
//!                crc <crc32-hex of the payload line>
//!
//! wal-N.log:     limeqo-wal v1 <N>
//!                <crc32-hex of body> <body tokens>        (one per event)
//! ```
//!
//! Floats are serialized as the 16-hex-digit big-endian [`f64::to_bits`]
//! image, so round-trips are bit-exact by construction. Every record and
//! every snapshot carries a CRC-32 (IEEE): a torn or corrupted journal
//! tail is detected, truncated, and re-derived by the driver (the engine
//! re-issues the lost probes via [`Engine::outstanding_probes`]); a torn
//! snapshot is skipped in favor of the previous one, whose journal segment
//! is retained by GC exactly for this purpose (`keep_snapshots ≥ 2`).
//!
//! # Durability stance
//!
//! Journal appends are flushed to the OS (`write(2)`) per record but not
//! `fsync`ed — surviving process death (SIGKILL, abort) is the contract;
//! surviving power loss mid-write is what the checksums degrade gracefully
//! under. Snapshots are fsynced and renamed into place atomically. This
//! keeps the append amortized cost well under the perf gate (< 5 % of
//! `policy.sample_s`, enforced by `limeqo-bench perf`).
//!
//! # Fault tolerance
//!
//! All file I/O goes through the [`crate::fault::Storage`] trait
//! ([`crate::fault::FsStorage`] in production, a scripted
//! [`crate::fault::FaultStorage`] in chaos tests). When an append or the
//! post-snapshot segment swap fails, the journal is *poisoned*
//! ([`DurableEngine::poisoned`]): [`DurableEngine::step`] refuses further
//! events with [`PersistError::Poisoned`] rather than journaling into a
//! segment recovery would ignore. A degraded caller can keep the engine
//! advancing in memory with [`DurableEngine::step_degraded`] and restore
//! durability with [`DurableEngine::rearm`], which snapshots the current
//! in-memory state and opens a fresh segment.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::engine::{Action, Engine, Event, PendingGamble, RetryProbe};
use crate::explore::TraceEntry;
use crate::fault::{FsStorage, Storage, StorageFile};
use crate::policy::CellChoice;
use crate::store::ObservationStore;
use limeqo_linalg::rng::SeededRng;
use limeqo_linalg::Mat;

/// Errors from snapshot/journal encode, decode, and recovery.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Structurally invalid or checksum-failing data.
    Corrupt(String),
    /// The journal was poisoned by an earlier persist failure; only
    /// [`DurableEngine::step_degraded`] / [`DurableEngine::rearm`] make
    /// progress from here. Carries the original failure's message.
    Poisoned(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persist I/O error: {e}"),
            PersistError::Corrupt(msg) => write!(f, "corrupt persistent state: {msg}"),
            PersistError::Poisoned(msg) => write!(f, "journal poisoned by earlier failure: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Shorthand result.
pub type Result<T> = std::result::Result<T, PersistError>;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of a byte string, as used by every journal record and
/// snapshot payload.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Token encoder/decoder.

/// Space-separated token encoder for snapshot payloads and journal record
/// bodies. Floats are written as their bit pattern in hex, so decoding is
/// bit-exact.
#[derive(Debug, Default)]
pub struct Enc {
    buf: String,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Enc { buf: String::new() }
    }

    fn sep(&mut self) {
        if !self.buf.is_empty() {
            self.buf.push(' ');
        }
    }

    /// Append an unsigned integer.
    pub fn u(&mut self, v: u64) {
        self.sep();
        let _ = write!(self.buf, "{v}");
    }

    /// Append a usize.
    pub fn i(&mut self, v: usize) {
        self.u(v as u64);
    }

    /// Append a float, bit-exactly.
    pub fn f(&mut self, v: f64) {
        self.sep();
        let _ = write!(self.buf, "{:016x}", v.to_bits());
    }

    /// Append a bool (`0`/`1`).
    pub fn b(&mut self, v: bool) {
        self.u(v as u64);
    }

    /// Append an arbitrary string, hex-encoded (tokens must not contain
    /// whitespace).
    pub fn s(&mut self, v: &str) {
        self.sep();
        if v.is_empty() {
            self.buf.push('-');
            return;
        }
        for b in v.as_bytes() {
            let _ = write!(self.buf, "{b:02x}");
        }
    }

    /// Append a dense matrix: rows, cols, then every entry bit-exactly.
    pub fn mat(&mut self, m: &Mat) {
        self.i(m.rows());
        self.i(m.cols());
        for &v in m.as_slice() {
            self.f(v);
        }
    }

    /// The encoded payload.
    pub fn finish(self) -> String {
        self.buf
    }

    /// Borrow the payload so far.
    pub fn as_str(&self) -> &str {
        &self.buf
    }
}

/// Matching decoder over a token line.
pub struct Dec<'a> {
    toks: std::str::SplitAsciiWhitespace<'a>,
}

impl<'a> Dec<'a> {
    /// Decode from an encoded payload line.
    pub fn new(line: &'a str) -> Self {
        Dec { toks: line.split_ascii_whitespace() }
    }

    fn next(&mut self) -> Result<&'a str> {
        self.toks.next().ok_or_else(|| PersistError::Corrupt("unexpected end of record".into()))
    }

    /// Read an unsigned integer.
    pub fn u(&mut self) -> Result<u64> {
        let t = self.next()?;
        t.parse().map_err(|_| PersistError::Corrupt(format!("bad u64 token {t:?}")))
    }

    /// Read a usize.
    pub fn i(&mut self) -> Result<usize> {
        Ok(self.u()? as usize)
    }

    /// Read a float written by [`Enc::f`].
    pub fn f(&mut self) -> Result<f64> {
        let t = self.next()?;
        let bits = u64::from_str_radix(t, 16)
            .map_err(|_| PersistError::Corrupt(format!("bad f64 token {t:?}")))?;
        Ok(f64::from_bits(bits))
    }

    /// Read a bool.
    pub fn b(&mut self) -> Result<bool> {
        match self.u()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(PersistError::Corrupt(format!("bad bool token {v}"))),
        }
    }

    /// Read a string written by [`Enc::s`].
    pub fn s(&mut self) -> Result<String> {
        let t = self.next()?;
        if t == "-" {
            return Ok(String::new());
        }
        if t.len() % 2 != 0 {
            return Err(PersistError::Corrupt("odd-length hex string".into()));
        }
        let mut out = Vec::with_capacity(t.len() / 2);
        for i in (0..t.len()).step_by(2) {
            let b = u8::from_str_radix(&t[i..i + 2], 16)
                .map_err(|_| PersistError::Corrupt("bad hex string".into()))?;
            out.push(b);
        }
        String::from_utf8(out).map_err(|_| PersistError::Corrupt("non-UTF-8 string".into()))
    }

    /// Read a matrix written by [`Enc::mat`].
    pub fn mat(&mut self) -> Result<Mat> {
        let rows = self.i()?;
        let cols = self.i()?;
        let count = rows
            .checked_mul(cols)
            .ok_or_else(|| PersistError::Corrupt("matrix shape overflow".into()))?;
        if count > 1 << 28 {
            return Err(PersistError::Corrupt("implausible matrix size".into()));
        }
        let mut data = Vec::with_capacity(count);
        for _ in 0..count {
            data.push(self.f()?);
        }
        Mat::from_vec(rows, cols, data)
            .map_err(|e| PersistError::Corrupt(format!("matrix rebuild: {e:?}")))
    }

    /// Assert the record is fully consumed.
    pub fn finish(mut self) -> Result<()> {
        match self.toks.next() {
            None => Ok(()),
            Some(t) => Err(PersistError::Corrupt(format!("trailing token {t:?}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Event codec (journal record bodies).

/// Encode an event as a journal record body.
pub fn encode_event(event: &Event) -> String {
    let mut e = Enc::new();
    match event {
        Event::Tick => e.s("T"),
        Event::Observation { row, col, value, censored } => {
            e.s("O");
            e.i(*row);
            e.i(*col);
            e.f(*value);
            e.b(*censored);
        }
        Event::Arrival { row } => {
            e.s("A");
            e.i(*row);
        }
        Event::AddQueries { defaults } => {
            e.s("Q");
            e.i(defaults.len());
            for &d in defaults {
                e.f(d);
            }
        }
        Event::DataShift { new_rows, observations } => {
            e.s("D");
            e.i(*new_rows);
            e.i(observations.len());
            for &(r, c, v) in observations {
                e.i(r);
                e.i(c);
                e.f(v);
            }
        }
        Event::ProbeFailed { row, col } => {
            e.s("F");
            e.i(*row);
            e.i(*col);
        }
    }
    e.finish()
}

/// Decode a journal record body.
pub fn decode_event(body: &str) -> Result<Event> {
    let mut d = Dec::new(body);
    let tag = d.s()?;
    let event = match tag.as_str() {
        "T" => Event::Tick,
        "O" => Event::Observation { row: d.i()?, col: d.i()?, value: d.f()?, censored: d.b()? },
        "A" => Event::Arrival { row: d.i()? },
        "Q" => {
            let len = d.i()?;
            let mut defaults = Vec::with_capacity(len.min(1 << 20));
            for _ in 0..len {
                defaults.push(d.f()?);
            }
            Event::AddQueries { defaults }
        }
        "D" => {
            let new_rows = d.i()?;
            let len = d.i()?;
            let mut observations = Vec::with_capacity(len.min(1 << 20));
            for _ in 0..len {
                observations.push((d.i()?, d.i()?, d.f()?));
            }
            Event::DataShift { new_rows, observations }
        }
        "F" => Event::ProbeFailed { row: d.i()?, col: d.i()? },
        t => return Err(PersistError::Corrupt(format!("unknown event tag {t:?}"))),
    };
    d.finish()?;
    Ok(event)
}

// ---------------------------------------------------------------------------
// Engine state codec.

const SNAP_MAGIC: &str = "limeqo-snap v2";
const WAL_MAGIC: &str = "limeqo-wal v1";

fn save_rng(enc: &mut Enc, rng: &SeededRng) {
    let (words, spare) = rng.state();
    for w in words {
        enc.u(w);
    }
    match spare {
        Some(v) => {
            enc.b(true);
            enc.f(v);
        }
        None => enc.b(false),
    }
}

fn load_rng(dec: &mut Dec<'_>) -> Result<SeededRng> {
    let words = [dec.u()?, dec.u()?, dec.u()?, dec.u()?];
    let spare = if dec.b()? { Some(dec.f()?) } else { None };
    Ok(SeededRng::restore((words, spare)))
}

/// Serialize the full mutable engine state. The *configuration* (policy
/// spec, batch, seeds, retention) is not included — the recovering caller
/// rebuilds an identically configured engine first and `config_tag` guards
/// against mismatches. Nor is the wall-clock overhead meter: it is not
/// replayed state, so two identical runs write identical snapshots and a
/// recovered engine meters from 0.
fn save_engine(enc: &mut Enc, engine: &Engine<'_>) {
    engine.store.save_state(enc);
    save_rng(enc, &engine.rng);
    enc.f(engine.time_spent);
    enc.i(engine.cells_executed);
    enc.i(engine.trace.len());
    for t in &engine.trace {
        enc.i(t.row);
        enc.i(t.col);
        enc.f(t.charged);
        enc.b(t.censored);
    }
    enc.i(engine.pending.len());
    for p in &engine.pending {
        enc.i(p.row);
        enc.i(p.col);
        enc.f(p.timeout);
    }
    enc.u(engine.since_refresh as u64);
    match &engine.predictions {
        Some(m) => {
            enc.b(true);
            enc.mat(m);
        }
        None => enc.b(false),
    }
    match &engine.gamble {
        Some(g) => {
            enc.b(true);
            enc.i(g.row);
            enc.i(g.col);
            enc.i(g.incumbent_col);
            enc.f(g.incumbent_lat);
        }
        None => enc.b(false),
    }
    let s = &engine.stats;
    enc.i(s.arrivals);
    enc.i(s.explored);
    enc.i(s.wins);
    enc.i(s.cancelled);
    enc.f(s.total_latency);
    enc.f(s.default_latency);
    enc.f(s.incumbent_latency);
    // Retry machinery: the tick clock the backoff counts in, the queue of
    // probes waiting out their backoff, and the per-cell failure counts.
    enc.u(engine.ticks);
    enc.i(engine.retry_queue.len());
    for r in &engine.retry_queue {
        enc.i(r.row);
        enc.i(r.col);
        enc.f(r.timeout);
        enc.u(r.due_tick);
    }
    enc.i(engine.fail_counts.len());
    for &(row, col, n) in &engine.fail_counts {
        enc.i(row);
        enc.i(col);
        enc.u(n as u64);
    }
    enc.i(engine.probe_failures);
    enc.i(engine.probe_retries);
    enc.i(engine.probes_dropped);
    // Model state lives with whichever component the engine owns.
    enc.b(engine.policy.is_some());
    if let Some(p) = &engine.policy {
        p.save_state(enc);
    }
    enc.b(engine.completer.is_some());
    if let Some(c) = &engine.completer {
        c.save_state(enc);
    }
}

/// Overwrite a freshly constructed engine's mutable state from a snapshot.
fn load_engine(dec: &mut Dec<'_>, engine: &mut Engine<'_>) -> Result<()> {
    engine.store = ObservationStore::load_state(dec)?;
    engine.rng = load_rng(dec)?;
    engine.time_spent = dec.f()?;
    engine.cells_executed = dec.i()?;
    let n = dec.i()?;
    engine.trace = Vec::with_capacity(n.min(1 << 24));
    for _ in 0..n {
        engine.trace.push(TraceEntry {
            row: dec.i()?,
            col: dec.i()?,
            charged: dec.f()?,
            censored: dec.b()?,
        });
    }
    let n = dec.i()?;
    engine.pending = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        engine.pending.push(CellChoice { row: dec.i()?, col: dec.i()?, timeout: dec.f()? });
    }
    engine.since_refresh = dec.u()? as usize;
    engine.predictions = if dec.b()? { Some(dec.mat()?) } else { None };
    engine.gamble = if dec.b()? {
        Some(PendingGamble {
            row: dec.i()?,
            col: dec.i()?,
            incumbent_col: dec.i()?,
            incumbent_lat: dec.f()?,
        })
    } else {
        None
    };
    engine.stats.arrivals = dec.i()?;
    engine.stats.explored = dec.i()?;
    engine.stats.wins = dec.i()?;
    engine.stats.cancelled = dec.i()?;
    engine.stats.total_latency = dec.f()?;
    engine.stats.default_latency = dec.f()?;
    engine.stats.incumbent_latency = dec.f()?;
    engine.ticks = dec.u()?;
    let n = dec.i()?;
    engine.retry_queue = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        engine.retry_queue.push(RetryProbe {
            row: dec.i()?,
            col: dec.i()?,
            timeout: dec.f()?,
            due_tick: dec.u()?,
        });
    }
    let n = dec.i()?;
    engine.fail_counts = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        engine.fail_counts.push((dec.i()?, dec.i()?, dec.u()? as u32));
    }
    engine.probe_failures = dec.i()?;
    engine.probe_retries = dec.i()?;
    engine.probes_dropped = dec.i()?;
    let has_policy = dec.b()?;
    if has_policy != engine.policy.is_some() {
        return Err(PersistError::Corrupt("snapshot/engine policy mode mismatch".into()));
    }
    if let Some(p) = &mut engine.policy {
        p.load_state(dec)?;
    }
    let has_completer = dec.b()?;
    if has_completer != engine.completer.is_some() {
        return Err(PersistError::Corrupt("snapshot/engine completer mode mismatch".into()));
    }
    if let Some(c) = &mut engine.completer {
        c.load_state(dec)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Durable engine.

/// Snapshot cadence and retention configuration.
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Take a snapshot automatically after this many journaled events
    /// (0 = only on explicit [`DurableEngine::snapshot`] / shutdown).
    pub snapshot_every: usize,
    /// Snapshots retained by GC (older snapshots and their journal
    /// segments are deleted). Minimum 1; keep ≥ 2 so a torn newest
    /// snapshot still leaves a recoverable older one.
    pub keep_snapshots: usize,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig { snapshot_every: 256, keep_snapshots: 2 }
    }
}

/// An [`Engine`] wrapped with write-ahead journaling and snapshotting.
///
/// Construction: [`DurableEngine::create`] for a fresh state directory,
/// [`DurableEngine::recover`] to resume an existing one. Both take the
/// engine *already built* with its static configuration (policy, seeds,
/// batch, retention) — the durable layer persists only the mutable state,
/// and a `config_tag` string fingerprints the configuration so recovery
/// with a mismatched build fails loudly instead of diverging silently.
pub struct DurableEngine<'a> {
    engine: Engine<'a>,
    storage: Box<dyn Storage>,
    dir: PathBuf,
    config_tag: String,
    dcfg: DurableConfig,
    wal: Box<dyn StorageFile>,
    events_since_snapshot: usize,
    /// Mutating events applied since creation (== snapshot/wal indices).
    event_index: u64,
    /// Set when a persist failure made the current journal segment
    /// unusable; cleared by a successful [`DurableEngine::rearm`].
    poisoned: bool,
    /// Message of the most recent persist failure, if any.
    last_persist_error: Option<String>,
}

fn snap_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("snap-{index}.snap"))
}

fn wal_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index}.log"))
}

fn open_wal(
    storage: &dyn Storage,
    dir: &Path,
    index: u64,
) -> std::io::Result<Box<dyn StorageFile>> {
    let mut w = storage.create(&wal_path(dir, index))?;
    w.append(format!("{WAL_MAGIC} {index}\n").as_bytes())?;
    Ok(w)
}

/// List snapshot indices present in `dir`, ascending.
fn list_snapshots(storage: &dyn Storage, dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut out = Vec::new();
    for name in storage.list_dir(dir)? {
        if let Some(idx) = name.strip_prefix("snap-").and_then(|s| s.strip_suffix(".snap")) {
            if let Ok(i) = idx.parse() {
                out.push(i);
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Write `snap-<index>.snap` atomically (tmp + fsync + rename).
fn write_snapshot_file(
    storage: &dyn Storage,
    dir: &Path,
    index: u64,
    config_tag: &str,
    engine: &Engine<'_>,
) -> Result<()> {
    let mut enc = Enc::new();
    enc.s(config_tag);
    save_engine(&mut enc, engine);
    let payload = enc.finish();
    let crc = crc32(payload.as_bytes());
    let content = format!("{SNAP_MAGIC} {index}\n{payload}\ncrc {crc:08x}\n");
    let tmp = dir.join(format!("snap-{index}.tmp"));
    {
        let mut f = storage.create(&tmp)?;
        f.append(content.as_bytes())?;
        f.sync()?;
    }
    storage.rename(&tmp, &snap_path(dir, index))?;
    Ok(())
}

/// Read and validate `snap-<index>.snap`, returning its payload line.
fn read_snapshot(storage: &dyn Storage, dir: &Path, index: u64) -> Result<String> {
    let bytes = storage.read(&snap_path(dir, index))?;
    let text = String::from_utf8(bytes)
        .map_err(|_| PersistError::Corrupt(format!("snapshot {index} is not UTF-8")))?;
    let mut lines = text.lines();
    let header = lines.next().unwrap_or("");
    if header != format!("{SNAP_MAGIC} {index}") {
        return Err(PersistError::Corrupt(format!("bad snapshot header {header:?}")));
    }
    let payload =
        lines.next().ok_or_else(|| PersistError::Corrupt("snapshot missing payload".into()))?;
    let crc_line =
        lines.next().ok_or_else(|| PersistError::Corrupt("snapshot missing checksum".into()))?;
    let expect = crc_line
        .strip_prefix("crc ")
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or_else(|| PersistError::Corrupt("bad snapshot checksum line".into()))?;
    if crc32(payload.as_bytes()) != expect {
        return Err(PersistError::Corrupt(format!("snapshot {index} checksum mismatch")));
    }
    Ok(payload.to_string())
}

/// Replay `wal-<index>.log` into `engine`, truncating any torn or corrupt
/// tail. Returns the replayed event count and the journal reopened for
/// appending at the end of its valid prefix.
fn replay_wal(
    storage: &dyn Storage,
    dir: &Path,
    index: u64,
    engine: &mut Engine<'_>,
) -> Result<(u64, Box<dyn StorageFile>)> {
    let path = wal_path(dir, index);
    if !storage.exists(&path) {
        // Segment never created (killed inside snapshot()); start fresh.
        return Ok((0, open_wal(storage, dir, index)?));
    }
    let bytes = storage.read(&path)?;
    let header_end = bytes.iter().position(|&b| b == b'\n');
    let expected_header = format!("{WAL_MAGIC} {index}");
    let mut pos = match header_end {
        Some(end) if bytes[..end] == *expected_header.as_bytes() => end + 1,
        Some(end) => {
            // A complete but wrong header is not a torn write.
            let got = String::from_utf8_lossy(&bytes[..end]).into_owned();
            return Err(PersistError::Corrupt(format!("bad journal header {got:?}")));
        }
        None => {
            // Torn mid-header: rewrite the segment from scratch.
            return Ok((0, open_wal(storage, dir, index)?));
        }
    };
    let mut replayed = 0u64;
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            break;
        }
        // A record is valid only if it is newline-terminated, UTF-8,
        // well-formed, and checksums clean; anything else is a torn tail
        // and everything from here on is dropped.
        let Some(nl) = rest.iter().position(|&b| b == b'\n') else { break };
        let Ok(line) = std::str::from_utf8(&rest[..nl]) else { break };
        let Some((crc_hex, body)) = line.split_once(' ') else { break };
        let Ok(expect) = u32::from_str_radix(crc_hex, 16) else { break };
        if crc32(body.as_bytes()) != expect {
            break;
        }
        let Ok(event) = decode_event(body) else { break };
        let _ = engine.step(event);
        replayed += 1;
        pos += nl + 1;
    }
    let file = storage.open_truncated(&path, pos as u64)?;
    Ok((replayed, file))
}

impl<'a> DurableEngine<'a> {
    /// Initialize a fresh state directory: writes snapshot 0 of the given
    /// engine and opens its first journal segment. Fails if the directory
    /// already holds snapshots (use [`DurableEngine::recover`]).
    pub fn create(
        dir: impl Into<PathBuf>,
        engine: Engine<'a>,
        config_tag: &str,
        dcfg: DurableConfig,
    ) -> Result<Self> {
        Self::create_with(Box::new(FsStorage), dir, engine, config_tag, dcfg)
    }

    /// [`DurableEngine::create`] against an explicit [`Storage`]
    /// implementation (production uses [`FsStorage`]; chaos tests inject
    /// a [`crate::fault::FaultStorage`]).
    pub fn create_with(
        storage: Box<dyn Storage>,
        dir: impl Into<PathBuf>,
        engine: Engine<'a>,
        config_tag: &str,
        dcfg: DurableConfig,
    ) -> Result<Self> {
        let dir = dir.into();
        storage.create_dir_all(&dir)?;
        if !list_snapshots(storage.as_ref(), &dir)?.is_empty() {
            return Err(PersistError::Corrupt(format!(
                "state directory {} already initialized; use recover",
                dir.display()
            )));
        }
        write_snapshot_file(storage.as_ref(), &dir, 0, config_tag, &engine)?;
        let wal = open_wal(storage.as_ref(), &dir, 0)?;
        Ok(DurableEngine {
            engine,
            storage,
            dir,
            config_tag: config_tag.to_string(),
            dcfg,
            wal,
            events_since_snapshot: 0,
            event_index: 0,
            poisoned: false,
            last_persist_error: None,
        })
    }

    /// Resume from an existing state directory. `engine` must be freshly
    /// constructed with the *same configuration* the directory was created
    /// under (same `config_tag`); its mutable state is overwritten from
    /// the newest valid snapshot, then the journal tail is replayed. A
    /// torn newest snapshot falls back to the previous one; a torn journal
    /// tail is truncated. Returns the durable engine plus the probes still
    /// outstanding at the kill point, which the driver must re-execute.
    pub fn recover(
        dir: impl Into<PathBuf>,
        engine: Engine<'a>,
        config_tag: &str,
        dcfg: DurableConfig,
    ) -> Result<(Self, Vec<CellChoice>)> {
        Self::recover_with(Box::new(FsStorage), dir, engine, config_tag, dcfg)
    }

    /// [`DurableEngine::recover`] against an explicit [`Storage`]
    /// implementation.
    pub fn recover_with(
        storage: Box<dyn Storage>,
        dir: impl Into<PathBuf>,
        mut engine: Engine<'a>,
        config_tag: &str,
        dcfg: DurableConfig,
    ) -> Result<(Self, Vec<CellChoice>)> {
        let dir = dir.into();
        let snaps = list_snapshots(storage.as_ref(), &dir)?;
        if snaps.is_empty() {
            return Err(PersistError::Corrupt(format!(
                "no snapshots in {} (use create for a fresh directory)",
                dir.display()
            )));
        }
        let mut chosen = None;
        let mut last_err = None;
        for &idx in snaps.iter().rev() {
            match read_snapshot(storage.as_ref(), &dir, idx) {
                Ok(payload) => {
                    chosen = Some((idx, payload));
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let (snap_idx, payload) = match chosen {
            Some(c) => c,
            None => {
                return Err(last_err
                    .unwrap_or_else(|| PersistError::Corrupt("no readable snapshot found".into())))
            }
        };
        let mut dec = Dec::new(&payload);
        let tag = dec.s()?;
        if tag != config_tag {
            return Err(PersistError::Corrupt(format!(
                "config mismatch: directory was created under {tag:?}, recovering engine is \
                 {config_tag:?}"
            )));
        }
        load_engine(&mut dec, &mut engine)?;
        dec.finish()?;
        let (replayed, wal) = replay_wal(storage.as_ref(), &dir, snap_idx, &mut engine)?;
        let pending = engine.outstanding_probes();
        let de = DurableEngine {
            engine,
            storage,
            dir,
            config_tag: config_tag.to_string(),
            dcfg,
            wal,
            events_since_snapshot: replayed as usize,
            event_index: snap_idx + replayed,
            poisoned: false,
            last_persist_error: None,
        };
        Ok((de, pending))
    }

    /// The wrapped engine (read-only).
    pub fn engine(&self) -> &Engine<'a> {
        &self.engine
    }

    /// Total events applied since the directory was created.
    pub fn event_index(&self) -> u64 {
        self.event_index
    }

    /// Whether the journal is poisoned (a persist failure left the
    /// current segment unusable). While poisoned, [`DurableEngine::step`]
    /// refuses events; use [`DurableEngine::step_degraded`] /
    /// [`DurableEngine::rearm`].
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Message of the most recent persist failure, if any. Cleared by a
    /// successful [`DurableEngine::rearm`].
    pub fn last_persist_error(&self) -> Option<&str> {
        self.last_persist_error.as_deref()
    }

    /// Journal (write-ahead) and apply one event. On `Err` the event has
    /// **not** been applied: a failed append returns [`PersistError::Io`]
    /// and poisons the journal; further calls return
    /// [`PersistError::Poisoned`] until [`DurableEngine::rearm`] succeeds.
    pub fn step(&mut self, event: Event) -> Result<Vec<Action>> {
        if self.poisoned {
            return Err(PersistError::Poisoned(
                self.last_persist_error.clone().unwrap_or_else(|| "journal poisoned".into()),
            ));
        }
        let body = encode_event(&event);
        let record = format!("{:08x} {body}\n", crc32(body.as_bytes()));
        if let Err(e) = self.wal.append(record.as_bytes()) {
            // The segment now ends in an undefined prefix of this record;
            // the CRC framing makes that recoverable on disk, but further
            // appends here would interleave garbage — poison the WAL.
            let err = PersistError::Io(e);
            self.poisoned = true;
            self.last_persist_error = Some(err.to_string());
            return Err(err);
        }
        let actions = self.engine.step(event);
        self.event_index += 1;
        self.events_since_snapshot += 1;
        if self.dcfg.snapshot_every > 0 && self.events_since_snapshot >= self.dcfg.snapshot_every {
            if let Err(e) = self.snapshot() {
                // The event itself is journaled; a failed snapshot write
                // retries at the next boundary (the counter keeps
                // growing). The one unrecoverable case — snapshot written
                // but no fresh segment — has already poisoned the WAL
                // inside snapshot(), which the next step() surfaces.
                self.last_persist_error = Some(e.to_string());
            }
        }
        Ok(actions)
    }

    /// Apply one event **without journaling** — degraded mode after a
    /// persist failure. The in-memory engine keeps advancing (and stays
    /// deterministic); at each snapshot-cadence boundary a
    /// [`DurableEngine::rearm`] is attempted automatically. Returns the
    /// engine's actions and whether this step re-armed durability.
    pub fn step_degraded(&mut self, event: Event) -> (Vec<Action>, bool) {
        // Bypassing the journal makes the current segment incomplete by
        // definition, even if the caller degraded for another reason.
        self.poisoned = true;
        let actions = self.engine.step(event);
        self.event_index += 1;
        self.events_since_snapshot += 1;
        let mut rearmed = false;
        if self.dcfg.snapshot_every > 0 && self.events_since_snapshot >= self.dcfg.snapshot_every {
            match self.rearm() {
                Ok(()) => rearmed = true,
                Err(e) => self.last_persist_error = Some(e.to_string()),
            }
        }
        (actions, rearmed)
    }

    /// Attempt to restore durability after a persist failure: snapshot
    /// the *current* in-memory state (capturing everything applied while
    /// degraded) and open a fresh journal segment. On success the engine
    /// is fully durable again and the poisoned flag clears.
    pub fn rearm(&mut self) -> Result<()> {
        // No sync of the old segment: it is poisoned and may well be the
        // thing that errors. The snapshot supersedes it entirely.
        write_snapshot_file(
            self.storage.as_ref(),
            &self.dir,
            self.event_index,
            &self.config_tag,
            &self.engine,
        )?;
        let wal = open_wal(self.storage.as_ref(), &self.dir, self.event_index)?;
        self.wal = wal;
        self.events_since_snapshot = 0;
        self.poisoned = false;
        self.last_persist_error = None;
        let _ = self.gc();
        Ok(())
    }

    /// Snapshot now: flush + fsync the current journal segment, write the
    /// snapshot atomically, start a fresh segment, GC old checkpoints.
    pub fn snapshot(&mut self) -> Result<()> {
        if self.poisoned {
            return Err(PersistError::Poisoned(
                self.last_persist_error.clone().unwrap_or_else(|| "journal poisoned".into()),
            ));
        }
        self.wal.sync()?;
        write_snapshot_file(
            self.storage.as_ref(),
            &self.dir,
            self.event_index,
            &self.config_tag,
            &self.engine,
        )?;
        match open_wal(self.storage.as_ref(), &self.dir, self.event_index) {
            Ok(wal) => {
                self.wal = wal;
                self.events_since_snapshot = 0;
            }
            Err(e) => {
                // The snapshot is durable but no fresh segment accepts
                // appends. Journaling into the superseded segment would
                // silently drop events on recovery (recovery replays
                // wal-<newest snap>), so poison instead.
                let err = PersistError::Io(e);
                self.poisoned = true;
                self.last_persist_error = Some(err.to_string());
                return Err(err);
            }
        }
        // GC is best-effort: a failed delete costs disk, not correctness.
        let _ = self.gc();
        Ok(())
    }

    fn gc(&self) -> Result<()> {
        let storage = self.storage.as_ref();
        let snaps = list_snapshots(storage, &self.dir)?;
        let keep = self.dcfg.keep_snapshots.max(1);
        if snaps.len() <= keep {
            return Ok(());
        }
        let cutoff = snaps[snaps.len() - keep];
        for &i in &snaps[..snaps.len() - keep] {
            let _ = storage.remove(&snap_path(&self.dir, i));
        }
        // A wal segment wal-<i> is only replayable on top of snap-<i>;
        // segments below the oldest kept snapshot are dead.
        for name in storage.list_dir(&self.dir)? {
            if let Some(idx) = name.strip_prefix("wal-").and_then(|s| s.strip_suffix(".log")) {
                if let Ok(i) = idx.parse::<u64>() {
                    if i < cutoff {
                        let _ = storage.remove(&self.dir.join(&name));
                    }
                }
            }
        }
        Ok(())
    }

    /// Flush the journal to the OS and fsync it (graceful shutdown).
    pub fn shutdown(&mut self) -> Result<()> {
        if self.poisoned {
            return Err(PersistError::Poisoned(
                self.last_persist_error.clone().unwrap_or_else(|| "journal poisoned".into()),
            ));
        }
        self.wal.sync()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::ExploreConfig;
    use crate::matrix::WorkloadMatrix;
    use crate::policy::LimeQoPolicy;
    use limeqo_linalg::rng::SeededRng;
    use std::fs::{self, OpenOptions};
    use std::io::Write as _;

    fn test_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("limeqo-persist-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

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

    /// A fresh engine with the exact configuration every test run shares
    /// (reference, durable, and recovered instances must match).
    fn fresh_engine(truth: &Mat) -> Engine<'static> {
        let (n, k) = truth.shape();
        let defaults: Vec<f64> = (0..n).map(|i| truth[(i, 0)]).collect();
        let store = ObservationStore::new(WorkloadMatrix::with_defaults(&defaults, k));
        let cfg = ExploreConfig { batch: 4, seed: 9, ..Default::default() };
        Engine::offline(store, Box::new(LimeQoPolicy::with_als(9)), None, &cfg)
    }

    fn observe(truth: &Mat, row: usize, col: usize, timeout: f64) -> Event {
        crate::engine::execute_probe(row, col, timeout, truth[(row, col)])
    }

    fn feed_plain(engine: &mut Engine<'_>, truth: &Mat, actions: Vec<Action>) {
        for a in actions {
            if let Action::Probe { row, col, timeout } = a {
                engine.step(observe(truth, row, col, timeout));
            }
        }
    }

    fn drive_plain(engine: &mut Engine<'_>, truth: &Mat, ticks: usize) {
        for _ in 0..ticks {
            let actions = engine.step(Event::Tick);
            feed_plain(engine, truth, actions);
        }
    }

    fn feed_durable(de: &mut DurableEngine<'_>, truth: &Mat, actions: Vec<Action>) {
        for a in actions {
            if let Action::Probe { row, col, timeout } = a {
                de.step(observe(truth, row, col, timeout)).unwrap();
            }
        }
    }

    fn drive_durable(de: &mut DurableEngine<'_>, truth: &Mat, ticks: usize) {
        for _ in 0..ticks {
            let actions = de.step(Event::Tick).unwrap();
            feed_durable(de, truth, actions);
        }
    }

    fn trace_bits(engine: &Engine<'_>) -> Vec<(usize, usize, u64, bool)> {
        engine.trace().iter().map(|t| (t.row, t.col, t.charged.to_bits(), t.censored)).collect()
    }

    #[test]
    fn crc32_matches_ieee_check_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn token_codec_roundtrips_bit_exactly() {
        let mut enc = Enc::new();
        enc.u(u64::MAX);
        enc.i(0);
        enc.f(-0.0);
        enc.f(f64::INFINITY);
        enc.f(1.0 / 3.0);
        enc.b(true);
        enc.s("");
        enc.s("limeqo: spec { a = 1 }");
        enc.mat(&Mat::from_vec(2, 2, vec![1.5, -2.5, 0.0, 9.0]).unwrap());
        let line = enc.finish();
        let mut dec = Dec::new(&line);
        assert_eq!(dec.u().unwrap(), u64::MAX);
        assert_eq!(dec.i().unwrap(), 0);
        assert_eq!(dec.f().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(dec.f().unwrap(), f64::INFINITY);
        assert_eq!(dec.f().unwrap().to_bits(), (1.0f64 / 3.0).to_bits());
        assert!(dec.b().unwrap());
        assert_eq!(dec.s().unwrap(), "");
        assert_eq!(dec.s().unwrap(), "limeqo: spec { a = 1 }");
        let m = dec.mat().unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m[(1, 1)], 9.0);
        dec.finish().unwrap();
    }

    #[test]
    fn event_codec_roundtrips_every_variant() {
        let events = vec![
            Event::Tick,
            Event::Observation { row: 3, col: 7, value: 0.125, censored: true },
            Event::Arrival { row: 11 },
            Event::AddQueries { defaults: vec![1.0, 2.5, 0.75] },
            Event::DataShift { new_rows: 20, observations: vec![(0, 0, 1.5), (1, 3, 0.25)] },
            Event::ProbeFailed { row: 5, col: 2 },
        ];
        for e in events {
            let body = encode_event(&e);
            let back = decode_event(&body).unwrap();
            assert_eq!(format!("{e:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn snapshot_recover_resumes_bit_identically() {
        let truth = truth_matrix(24, 8, 42);
        let mut reference = fresh_engine(&truth);
        drive_plain(&mut reference, &truth, 8);

        let dir = test_dir("roundtrip");
        let mut de =
            DurableEngine::create(&dir, fresh_engine(&truth), "tag", DurableConfig::default())
                .unwrap();
        drive_durable(&mut de, &truth, 4);
        de.snapshot().unwrap();
        drive_durable(&mut de, &truth, 1);
        drop(de); // kill between rounds, no shutdown

        let (mut de, outstanding) =
            DurableEngine::recover(&dir, fresh_engine(&truth), "tag", DurableConfig::default())
                .unwrap();
        assert!(outstanding.is_empty(), "no probes were in flight at the kill");
        drive_durable(&mut de, &truth, 3);
        assert_eq!(trace_bits(de.engine()), trace_bits(&reference));
        assert_eq!(
            de.engine().time_spent().to_bits(),
            reference.time_spent().to_bits(),
            "simulated clock must recover exactly"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_tick_kill_reissues_outstanding_probes() {
        let truth = truth_matrix(24, 8, 43);
        let mut reference = fresh_engine(&truth);
        drive_plain(&mut reference, &truth, 8);

        let dir = test_dir("midtick");
        let mut de =
            DurableEngine::create(&dir, fresh_engine(&truth), "tag", DurableConfig::default())
                .unwrap();
        drive_durable(&mut de, &truth, 3);
        // The tick is journaled but its observations never arrive: the
        // process dies while the probes are executing.
        let probes_before: Vec<Action> = de.step(Event::Tick).unwrap();
        drop(de);

        let (mut de, outstanding) =
            DurableEngine::recover(&dir, fresh_engine(&truth), "tag", DurableConfig::default())
                .unwrap();
        let expected: Vec<CellChoice> = probes_before
            .iter()
            .filter_map(|a| match *a {
                Action::Probe { row, col, timeout } => Some(CellChoice { row, col, timeout }),
                _ => None,
            })
            .collect();
        assert_eq!(outstanding, expected, "recovery must re-issue the lost probes");
        for p in outstanding {
            de.step(observe(&truth, p.row, p.col, p.timeout)).unwrap();
        }
        drive_durable(&mut de, &truth, 4);
        assert_eq!(trace_bits(de.engine()), trace_bits(&reference));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_tail_is_truncated_and_rewritten() {
        let truth = truth_matrix(24, 8, 44);
        let mut reference = fresh_engine(&truth);
        drive_plain(&mut reference, &truth, 8);

        let dir = test_dir("torn");
        let mut de =
            DurableEngine::create(&dir, fresh_engine(&truth), "tag", DurableConfig::default())
                .unwrap();
        drive_durable(&mut de, &truth, 5);
        drop(de);
        // Simulate a torn write: a half-record without its newline, after
        // a full record whose checksum does not match its body.
        let wal = dir.join("wal-0.log");
        let mut f = OpenOptions::new().append(true).open(&wal).unwrap();
        writeln!(f, "00000000 T").unwrap();
        write!(f, "deadbeef O 3 ").unwrap();
        drop(f);

        let (mut de, outstanding) =
            DurableEngine::recover(&dir, fresh_engine(&truth), "tag", DurableConfig::default())
                .unwrap();
        assert!(outstanding.is_empty());
        drive_durable(&mut de, &truth, 3);
        assert_eq!(trace_bits(de.engine()), trace_bits(&reference));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_snapshot_falls_back_to_previous_checkpoint() {
        let truth = truth_matrix(24, 8, 45);
        let mut reference = fresh_engine(&truth);
        drive_plain(&mut reference, &truth, 8);

        let dir = test_dir("tornsnap");
        let mut de =
            DurableEngine::create(&dir, fresh_engine(&truth), "tag", DurableConfig::default())
                .unwrap();
        drive_durable(&mut de, &truth, 4);
        let idx = de.event_index();
        de.snapshot().unwrap();
        drop(de);
        // Flip a payload byte in the newest snapshot: its checksum fails,
        // so recovery must fall back to snap-0 and replay wal-0 instead.
        let snap = dir.join(format!("snap-{idx}.snap"));
        let mut bytes = fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        fs::write(&snap, bytes).unwrap();

        let (mut de, _) =
            DurableEngine::recover(&dir, fresh_engine(&truth), "tag", DurableConfig::default())
                .unwrap();
        drive_durable(&mut de, &truth, 4);
        assert_eq!(trace_bits(de.engine()), trace_bits(&reference));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_bounds_checkpoints_and_config_mismatch_is_rejected() {
        let truth = truth_matrix(16, 6, 46);
        let dir = test_dir("gc");
        let dcfg = DurableConfig { snapshot_every: 7, keep_snapshots: 2 };
        let mut de =
            DurableEngine::create(&dir, fresh_engine(&truth), "tag-a", dcfg.clone()).unwrap();
        drive_durable(&mut de, &truth, 12);
        drop(de);
        let snaps = list_snapshots(&FsStorage, &dir).unwrap();
        assert!(snaps.len() <= 2, "gc must keep at most keep_snapshots: {snaps:?}");
        let wal_count = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().starts_with("wal-"))
            .count();
        assert!(wal_count <= 2, "dead journal segments must be collected");

        let err = match DurableEngine::recover(&dir, fresh_engine(&truth), "tag-b", dcfg) {
            Err(e) => e,
            Ok(_) => panic!("recover must reject a mismatched configuration"),
        };
        assert!(
            matches!(err, PersistError::Corrupt(ref m) if m.contains("config mismatch")),
            "got {err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_works_from_the_single_kept_snapshot() {
        // keep_snapshots = 1 is the floor GC clamps to: after every
        // snapshot, exactly one checkpoint survives and there is no older
        // one to fall back to. Recovery must still resume bit-identically
        // from that lone snapshot plus its journal tail.
        let truth = truth_matrix(24, 8, 47);
        let mut reference = fresh_engine(&truth);
        drive_plain(&mut reference, &truth, 9);

        let dir = test_dir("minkeep");
        let dcfg = DurableConfig { snapshot_every: 0, keep_snapshots: 1 };
        let mut de =
            DurableEngine::create(&dir, fresh_engine(&truth), "tag", dcfg.clone()).unwrap();
        drive_durable(&mut de, &truth, 3);
        de.snapshot().unwrap();
        drive_durable(&mut de, &truth, 3);
        de.snapshot().unwrap();
        drive_durable(&mut de, &truth, 2);
        drop(de); // kill with a non-empty tail on the lone snapshot

        let snaps = list_snapshots(&FsStorage, &dir).unwrap();
        assert_eq!(snaps.len(), 1, "gc must keep exactly the minimum: {snaps:?}");

        let (mut de, outstanding) =
            DurableEngine::recover(&dir, fresh_engine(&truth), "tag", dcfg).unwrap();
        assert!(outstanding.is_empty());
        drive_durable(&mut de, &truth, 1);
        assert_eq!(trace_bits(de.engine()), trace_bits(&reference));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_at_the_snapshot_boundary_recovers_bit_identically() {
        // Die immediately after snapshot(): the newest journal segment
        // holds only its header — the durable history ends exactly at the
        // snapshot record. Recovery must load that snapshot, replay zero
        // events, and continue as if nothing happened.
        let truth = truth_matrix(24, 8, 48);
        let mut reference = fresh_engine(&truth);
        drive_plain(&mut reference, &truth, 8);

        let dir = test_dir("snapboundary");
        let mut de =
            DurableEngine::create(&dir, fresh_engine(&truth), "tag", DurableConfig::default())
                .unwrap();
        drive_durable(&mut de, &truth, 5);
        let idx = de.event_index();
        de.snapshot().unwrap();
        drop(de); // nothing journaled after the snapshot

        let wal = fs::read_to_string(wal_path(&dir, idx)).unwrap();
        assert_eq!(
            wal.lines().count(),
            1,
            "the post-snapshot segment must hold only its header: {wal:?}"
        );

        let (mut de, outstanding) =
            DurableEngine::recover(&dir, fresh_engine(&truth), "tag", DurableConfig::default())
                .unwrap();
        assert!(outstanding.is_empty(), "no events past the snapshot, nothing in flight");
        assert_eq!(de.event_index(), idx, "recovery resumes at the snapshot's event index");
        drive_durable(&mut de, &truth, 3);
        assert_eq!(trace_bits(de.engine()), trace_bits(&reference));
        assert_eq!(
            de.engine().time_spent().to_bits(),
            reference.time_spent().to_bits(),
            "clock recovers exactly across a snapshot-boundary kill"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn identical_runs_write_identical_state_directories() {
        // The wall-clock overhead meter stays out of the snapshot, so two
        // identically driven engines leave the same bytes on disk.
        let truth = truth_matrix(24, 8, 49);
        let dcfg = DurableConfig { snapshot_every: 10, keep_snapshots: 2 };
        let run = |name: &str| -> Vec<(String, Vec<u8>)> {
            let dir = test_dir(name);
            let mut de =
                DurableEngine::create(&dir, fresh_engine(&truth), "tag", dcfg.clone()).unwrap();
            drive_durable(&mut de, &truth, 6);
            drop(de);
            let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap())
                .map(|e| {
                    (e.file_name().to_string_lossy().into_owned(), fs::read(e.path()).unwrap())
                })
                .filter(|(name, _)| name.starts_with("snap-") || name.starts_with("wal-"))
                .collect();
            files.sort();
            let _ = fs::remove_dir_all(&dir);
            files
        };
        let (a, b) = (run("bytes-a"), run("bytes-b"));
        let names = |files: &[(String, Vec<u8>)]| -> Vec<String> {
            files.iter().map(|(name, _)| name.clone()).collect()
        };
        assert_eq!(names(&a), names(&b));
        assert!(names(&a).iter().any(|name| name.starts_with("snap-")), "{:?}", names(&a));
        for ((name, x), (_, y)) in a.iter().zip(&b) {
            assert!(x == y, "{name} differs between identical runs");
        }
    }
}
