//! Timing decorators around the crates' public traits.
//!
//! Each wrapper forwards every call unchanged to the value it wraps and
//! records a span (and, where a layer metric needs one, a counter)
//! around it. That is all the traced runs see of the program: no
//! crate is instrumented from the inside.

use std::io;
use std::path::Path;

use limeqo_core::complete::Completer;
use limeqo_core::explore::Oracle;
use limeqo_core::fault::{Storage, StorageFile};
use limeqo_core::matrix::WorkloadMatrix;
use limeqo_core::persist::{Dec, Enc};
use limeqo_core::policy::{CellChoice, Policy, PolicyCtx};
use limeqo_linalg::rng::SeededRng;
use limeqo_linalg::Mat;

use crate::trace::{count, span};

/// [`Policy`] timed at `Policy::select` (`policy.select`), counting the
/// cells asked for and returned.
pub struct TimedPolicy<'a> {
    inner: Box<dyn Policy + 'a>,
}

impl<'a> TimedPolicy<'a> {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Policy + 'a>) -> Self {
        TimedPolicy { inner }
    }
}

impl Policy for TimedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(
        &mut self,
        ctx: &PolicyCtx<'_>,
        batch: usize,
        rng: &mut SeededRng,
    ) -> Vec<CellChoice> {
        let out = span("policy.select", || self.inner.select(ctx, batch, rng));
        count("policy.asked", batch as u64);
        count("policy.returned", out.len() as u64);
        out
    }

    fn save_state(&self, enc: &mut Enc) {
        self.inner.save_state(enc)
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> limeqo_core::persist::Result<()> {
        self.inner.load_state(dec)
    }
}

/// [`Completer`] timed at every completion (`complete`).
pub struct TimedCompleter {
    inner: Box<dyn Completer + Send>,
}

impl TimedCompleter {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Completer + Send>) -> Self {
        TimedCompleter { inner }
    }
}

impl Completer for TimedCompleter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn complete(&mut self, wm: &WorkloadMatrix) -> Mat {
        span("complete", || self.inner.complete(wm))
    }

    fn complete_dirty(&mut self, wm: &WorkloadMatrix, dirty: Option<&[usize]>) -> Mat {
        span("complete", || self.inner.complete_dirty(wm, dirty))
    }

    fn save_state(&self, enc: &mut Enc) {
        self.inner.save_state(enc)
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> limeqo_core::persist::Result<()> {
        self.inner.load_state(dec)
    }
}

/// [`Oracle`] timed at every latency lookup, as span `name`.
pub struct TimedOracle<'a> {
    inner: &'a dyn Oracle,
    name: &'static str,
}

impl<'a> TimedOracle<'a> {
    /// Wrap `inner`, naming its spans `name`.
    pub fn new(inner: &'a dyn Oracle, name: &'static str) -> Self {
        TimedOracle { inner, name }
    }
}

impl Oracle for TimedOracle<'_> {
    fn shape(&self) -> (usize, usize) {
        self.inner.shape()
    }

    fn true_latency(&self, row: usize, col: usize) -> f64 {
        span(self.name, || self.inner.true_latency(row, col))
    }

    fn est_cost(&self) -> Option<&Mat> {
        self.inner.est_cost()
    }
}

/// [`Storage`] timed at every file-system operation (`persist.<op>`),
/// counting appended bytes and the journal records a recovery reads.
/// Files it opens are timed too.
pub struct TimedStorage {
    inner: Box<dyn Storage>,
}

impl TimedStorage {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Storage>) -> Self {
        TimedStorage { inner }
    }
}

/// What a file holds, told by its name: journal segments are
/// `wal-<index>.log`, everything else is a snapshot being written.
fn is_journal(path: &Path) -> bool {
    path.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("wal-"))
}

struct TimedFile {
    inner: Box<dyn StorageFile>,
    journal: bool,
}

impl StorageFile for TimedFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        if self.journal {
            count("persist.wal_bytes", data.len() as u64);
            span("persist.append", || self.inner.append(data))
        } else {
            count("persist.snapshot_bytes", data.len() as u64);
            span("persist.snapshot_write", || self.inner.append(data))
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        let name = if self.journal { "persist.sync" } else { "persist.snapshot_sync" };
        span(name, || self.inner.sync())
    }
}

fn timed_file(
    path: &Path,
    file: io::Result<Box<dyn StorageFile>>,
) -> io::Result<Box<dyn StorageFile>> {
    let journal = is_journal(path);
    file.map(|inner| Box::new(TimedFile { inner, journal }) as Box<dyn StorageFile>)
}

impl Storage for TimedStorage {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        span("persist.mkdir", || self.inner.create_dir_all(dir))
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        span("persist.list", || self.inner.list_dir(dir))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let bytes = span("persist.read", || self.inner.read(path))?;
        if is_journal(path) {
            // One record per line after the segment header: the events a
            // recovery replays.
            let lines = bytes.iter().filter(|&&b| b == b'\n').count() as u64;
            count("persist.replayed_events", lines.saturating_sub(1));
        }
        Ok(bytes)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        timed_file(path, span("persist.create", || self.inner.create(path)))
    }

    fn open_truncated(&self, path: &Path, len: u64) -> io::Result<Box<dyn StorageFile>> {
        timed_file(path, span("persist.open", || self.inner.open_truncated(path, len)))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        span("persist.rename", || self.inner.rename(from, to))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        span("persist.remove", || self.inner.remove(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use limeqo_core::complete::AlsCompleter;
    use limeqo_core::fault::FsStorage;
    use limeqo_svc::{handle_init_with, Service};
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join("test-scratch")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn timed_completer_returns_the_same_matrix() {
        let mut wm = WorkloadMatrix::with_defaults(&[3.0, 2.0, 5.0, 4.0, 1.5, 2.5, 6.0], 6);
        wm.set_complete(0, 1, 1.0);
        wm.set_complete(2, 3, 2.0);
        wm.set_complete(5, 4, 0.5);
        wm.set_censored(1, 2, 1.5);
        wm.set_censored(4, 5, 1.0);
        let mut plain = AlsCompleter::paper_default(3);
        plain.warm_start = true;
        let mut inner = AlsCompleter::paper_default(3);
        inner.warm_start = true;
        let mut timed = TimedCompleter::new(Box::new(inner));
        crate::trace::start();
        for dirty in [None, Some(&[1usize, 4][..])] {
            let a = plain.complete_dirty(&wm, dirty);
            let b = timed.complete_dirty(&wm, dirty);
            let bits = |m: &Mat| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&a), bits(&b));
        }
        let rec = crate::trace::finish();
        assert_eq!(rec.spans.iter().filter(|s| s.name == "complete").count(), 2);
    }

    /// Every journal segment of a state directory, by name. (Snapshots
    /// also carry the engine's wall-clock overhead meter, so their bytes
    /// differ between any two runs.)
    fn journal(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .filter(|e| is_journal(&e.path()))
            .map(|e| {
                (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap())
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn timed_storage_writes_the_same_journal_bytes() {
        let root = scratch("journal");
        let init = r#"{"op":"init","n":40,"k":7,"seed":5,"batch":4}"#;
        let script = [
            r#"{"op":"tick"}"#,
            r#"{"op":"hint","row":3}"#,
            r#"{"op":"tick"}"#,
            r#"{"op":"snapshot"}"#,
            r#"{"op":"tick"}"#,
            r#"{"op":"trace"}"#,
            r#"{"op":"shutdown"}"#,
        ];
        let run = |name: &str, storage: Box<dyn Storage>| {
            let dir = root.join(name);
            let (mut svc, _) = handle_init_with(storage, &dir, init, None).unwrap();
            let replies: Vec<String> =
                script.iter().map(|l| svc.handle(l).line().to_string()).collect();
            drop(svc);
            (replies, journal(&dir))
        };
        crate::trace::start();
        let timed = run("timed", Box::new(TimedStorage::new(Box::new(FsStorage))));
        let rec = crate::trace::finish();
        let plain = run("plain", Box::new(FsStorage));
        assert_eq!(plain.1.len(), 2, "a snapshot started a second segment");
        assert_eq!(plain, timed);
        assert!(rec.spans.iter().any(|s| s.name == "persist.append"));
        assert!(rec.spans.iter().any(|s| s.name == "persist.rename"), "the snapshot was timed");

        // Recovery through the timing storage reads back the same state.
        crate::trace::start();
        let mut back = Service::open_with(
            Box::new(TimedStorage::new(Box::new(FsStorage))),
            &root.join("timed"),
            None,
        )
        .unwrap();
        let rec = crate::trace::finish();
        assert_eq!(back.handle(script[5]).line(), plain.0[5]);
        assert!(rec.counters["persist.replayed_events"] > 0, "the journal tail was replayed");
        let _ = std::fs::remove_dir_all(&root);
    }
}
