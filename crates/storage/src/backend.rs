//! The pluggable byte-store behind the durability layer.
//!
//! [`DocStore`](crate::store::DocStore) never touches the filesystem
//! directly: it reads and writes named blobs through a [`StorageBackend`],
//! so the same WAL/snapshot logic runs against an in-memory map (tests, the
//! simulator's crash/restart fault) and against real files
//! ([`FileBackend`]). The design follows the backend abstraction of
//! persistent CRDT stores (a key-value blob interface is the least a
//! database, an object store or a plain directory can all offer).

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use treedoc_telemetry::{Histogram, Telemetry};

/// An error from the storage backend (I/O failure, invalid name, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageError {
    message: String,
}

impl StorageError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        StorageError {
            message: message.into(),
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "storage error: {}", self.message)
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(err: std::io::Error) -> Self {
        StorageError::new(err.to_string())
    }
}

/// A named-blob store: the minimal surface the durability layer needs.
///
/// Names are flat (no directories); implementations must reject or escape
/// anything else. `write` must replace atomically-enough that a reader never
/// observes a half-written blob of the *previous* generation — the
/// [`FileBackend`] writes a temporary file and renames it into place.
pub trait StorageBackend: fmt::Debug + Send {
    /// Reads a blob, `None` when absent.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError>;
    /// Creates or replaces a blob.
    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError>;
    /// Appends to a blob, creating it when absent.
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError>;
    /// Removes a blob (absent blobs are fine).
    fn remove(&mut self, name: &str) -> Result<(), StorageError>;
    /// Lists all blob names, sorted.
    fn list(&self) -> Result<Vec<String>, StorageError>;
}

/// An in-memory backend: a plain map. Used by the tests and by the
/// simulator's crash/restart fault, where "disk" must survive the death of a
/// [`Replica`](../../treedoc_replication/struct.Replica.html) object but not
/// of the process.
#[derive(Debug, Clone, Default)]
pub struct MemoryBackend {
    blobs: BTreeMap<String, Vec<u8>>,
}

impl MemoryBackend {
    /// An empty store.
    pub fn new() -> Self {
        MemoryBackend::default()
    }
}

impl StorageBackend for MemoryBackend {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        Ok(self.blobs.get(name).cloned())
    }

    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.blobs.insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.blobs
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        self.blobs.remove(name);
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        Ok(self.blobs.keys().cloned().collect())
    }
}

/// Rejects blob (or namespace) names containing path-separator characters.
///
/// The multi-document layer builds blob names from *external* identifiers
/// (per-document namespace prefixes), so a hostile document id like
/// `../../etc/passwd` can reach the backend boundary; this check makes the
/// rejection explicit and self-describing instead of relying on a character
/// whitelist alone. `\` is included because a store directory may be synced
/// to a platform where it separates paths.
pub fn reject_path_separators(name: &str) -> Result<(), StorageError> {
    if name.contains(['/', '\\']) {
        return Err(StorageError::new(format!(
            "blob name {name:?} contains a path separator"
        )));
    }
    Ok(())
}

/// Lifetime counters of a [`SharedBackend`]: how many times the underlying
/// store was actually hit. `appends` is the number the group-commit WAL
/// exists to shrink — each one is a segment write (and, on a
/// [`FileBackend`], an fsync).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedStats {
    /// `write` calls (snapshots, cursor blobs).
    pub writes: u64,
    /// `append` calls (WAL segment writes).
    pub appends: u64,
    /// Bytes passed to `write` + `append`.
    pub bytes: u64,
}

/// A cloneable handle to one [`StorageBackend`], so many document stores
/// (and a shared group-commit WAL) can write to the same underlying
/// directory or map. Counts every hit on the inner backend — the counters
/// are what the group-commit tests assert on.
#[derive(Clone)]
pub struct SharedBackend {
    inner: Arc<Mutex<Box<dyn StorageBackend>>>,
    stats: Arc<Mutex<SharedStats>>,
}

impl fmt::Debug for SharedBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedBackend")
            .field("stats", &self.stats())
            .finish()
    }
}

impl SharedBackend {
    /// Wraps `backend` in a shareable handle.
    pub fn new(backend: impl StorageBackend + 'static) -> Self {
        SharedBackend {
            inner: Arc::new(Mutex::new(Box::new(backend))),
            stats: Arc::new(Mutex::new(SharedStats::default())),
        }
    }

    /// A shared handle over a fresh in-memory backend.
    pub fn in_memory() -> Self {
        SharedBackend::new(MemoryBackend::new())
    }

    /// How often (and how heavily) the inner backend was hit so far.
    pub fn stats(&self) -> SharedStats {
        *lock(&self.stats)
    }
}

/// Poison-tolerant: a panic on another thread mid-call (a panicking backend,
/// allocation failure) leaves the blob map and the counters usable, so it is
/// no reason to take every store sharing the backend down with it.
fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl StorageBackend for SharedBackend {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        lock(&self.inner).read(name)
    }

    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        lock(&self.inner).write(name, bytes)?;
        let mut stats = lock(&self.stats);
        stats.writes += 1;
        stats.bytes += bytes.len() as u64;
        Ok(())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        lock(&self.inner).append(name, bytes)?;
        let mut stats = lock(&self.stats);
        stats.appends += 1;
        stats.bytes += bytes.len() as u64;
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        lock(&self.inner).remove(name)
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        lock(&self.inner).list()
    }
}

/// Separator between a namespace prefix and the blob name proper. Blob names
/// produced by the durability layer (`wal-*.log`, `snap-*.img`, `gwal-*.log`)
/// never contain a double dash, so the namespace of a prefixed name is
/// always recoverable as everything before the first `--`.
pub const NAMESPACE_SEPARATOR: &str = "--";

/// A per-document view of a [`SharedBackend`]: every blob name is prefixed
/// with `<namespace>--`, and `list` shows only (and strips) this namespace.
/// This is what lets one shard directory hold the stores of many documents
/// without any document being able to read — or clobber — another's blobs.
#[derive(Debug, Clone)]
pub struct NamespacedBackend {
    inner: SharedBackend,
    namespace: String,
}

impl NamespacedBackend {
    /// Scopes `inner` to `namespace`. The namespace crosses the trust
    /// boundary (it is derived from an external document id), so it is
    /// validated here: path separators, an empty string, a leading dot, the
    /// separator `--` itself and any character outside `[A-Za-z0-9._-]` are
    /// rejected.
    pub fn new(inner: SharedBackend, namespace: &str) -> Result<Self, StorageError> {
        reject_path_separators(namespace)?;
        if namespace.is_empty()
            || namespace.starts_with('.')
            || namespace.contains(NAMESPACE_SEPARATOR)
            || namespace
                .chars()
                .any(|c| !(c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.'))
        {
            return Err(StorageError::new(format!(
                "invalid blob namespace {namespace:?}"
            )));
        }
        Ok(NamespacedBackend {
            inner,
            namespace: namespace.to_string(),
        })
    }

    /// The namespace this view is scoped to.
    pub fn namespace(&self) -> &str {
        &self.namespace
    }

    fn prefixed(&self, name: &str) -> Result<String, StorageError> {
        reject_path_separators(name)?;
        Ok(format!("{}{}{name}", self.namespace, NAMESPACE_SEPARATOR))
    }
}

/// The namespaces present in a shared backend, in sorted order — how a
/// restarted hosting node discovers which documents it holds. Blobs without
/// a `--` separator (e.g. the shared group-WAL segments) belong to no
/// namespace and are skipped.
pub fn list_namespaces(backend: &dyn StorageBackend) -> Result<Vec<String>, StorageError> {
    let mut seen = Vec::new();
    for name in backend.list()? {
        if let Some((ns, _)) = name.split_once(NAMESPACE_SEPARATOR) {
            if seen.last().map(String::as_str) != Some(ns) {
                seen.push(ns.to_string());
            }
        }
    }
    seen.dedup();
    Ok(seen)
}

impl StorageBackend for NamespacedBackend {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        self.inner.read(&self.prefixed(name)?)
    }

    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let name = self.prefixed(name)?;
        self.inner.write(&name, bytes)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let name = self.prefixed(name)?;
        self.inner.append(&name, bytes)
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        let name = self.prefixed(name)?;
        self.inner.remove(&name)
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        let prefix = format!("{}{}", self.namespace, NAMESPACE_SEPARATOR);
        Ok(self
            .inner
            .list()?
            .into_iter()
            .filter_map(|n| n.strip_prefix(&prefix).map(str::to_string))
            .collect())
    }
}

/// Telemetry instruments of a [`FileBackend`]: write/append latency with the
/// fsync portion broken out separately. Inert until
/// [`FileBackend::set_telemetry`] binds them.
#[derive(Debug, Clone, Default)]
struct FileMetrics {
    write_micros: Histogram,
    append_micros: Histogram,
    fsync_micros: Histogram,
}

impl FileMetrics {
    fn resolve(telemetry: &Telemetry) -> Self {
        FileMetrics {
            write_micros: telemetry.histogram("fs.write_micros"),
            append_micros: telemetry.histogram("fs.append_micros"),
            fsync_micros: telemetry.histogram("fs.fsync_micros"),
        }
    }
}

/// A directory-of-files backend: each blob is one file under `root`.
#[derive(Debug, Clone)]
pub struct FileBackend {
    root: PathBuf,
    metrics: FileMetrics,
}

impl FileBackend {
    /// Opens (creating if needed) the directory `root` as a blob store and
    /// sweeps any `*.tmp` files a crash mid-[`write`](StorageBackend::write)
    /// left behind (they never made it to their rename, so they hold no
    /// committed data).
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StorageError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        for entry in std::fs::read_dir(&root)? {
            let entry = entry?;
            if entry.file_type()?.is_file()
                && entry
                    .file_name()
                    .to_str()
                    .is_some_and(|n| n.ends_with(".tmp"))
            {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        Ok(FileBackend {
            root,
            metrics: FileMetrics::default(),
        })
    }

    /// Points this backend's latency histograms (`fs.write_micros`,
    /// `fs.append_micros`, `fs.fsync_micros`) at `telemetry`. A disabled
    /// handle reverts them to no-ops.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.metrics = FileMetrics::resolve(telemetry);
    }

    /// Opens shard `index` of a sharded store rooted at `root`: the blobs
    /// live in the subdirectory `root/shard-<index>/`. This is the on-disk
    /// layout of a multi-document hosting node — one directory per shard,
    /// inside which per-document namespaces (see [`NamespacedBackend`]) and
    /// the shard's shared group-commit WAL coexist as flat files.
    pub fn open_shard(root: impl Into<PathBuf>, index: usize) -> Result<Self, StorageError> {
        FileBackend::open(root.into().join(format!("shard-{index:03}")))
    }

    /// The directory blobs live in.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    /// Fsyncs the store directory itself, making preceding renames and
    /// removals (directory metadata) durable. Best-effort on platforms that
    /// cannot open a directory for sync.
    fn sync_dir(&self) -> Result<(), StorageError> {
        match std::fs::File::open(&self.root) {
            Ok(dir) => {
                dir.sync_all()?;
                Ok(())
            }
            Err(_) => Ok(()),
        }
    }

    fn path_of(&self, name: &str) -> Result<PathBuf, StorageError> {
        // Path separators get their own check (and error) ahead of the
        // whitelist: with per-document namespace prefixes in blob names the
        // separator case is reachable from external identifiers, and the
        // failure should say what was wrong, not just that something was.
        reject_path_separators(name)?;
        if name.is_empty()
            || name.starts_with('.')
            || name
                .chars()
                .any(|c| !(c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.'))
        {
            return Err(StorageError::new(format!("invalid blob name {name:?}")));
        }
        Ok(self.root.join(name))
    }
}

impl StorageBackend for FileBackend {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        let path = self.path_of(name)?;
        match std::fs::read(&path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(err) => Err(err.into()),
        }
    }

    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let span = self.metrics.write_micros.start();
        let path = self.path_of(name)?;
        // Write-then-rename so a crash mid-write leaves either the old blob
        // or the new one, never a torn mixture. (The WAL, whose torn tails
        // are expected and handled, goes through `append` instead.)
        let tmp = self.root.join(format!("{name}.tmp"));
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(bytes)?;
            let fsync = self.metrics.fsync_micros.start();
            file.sync_all()?;
            fsync.stop();
        }
        std::fs::rename(&tmp, &path)?;
        // The rename lives in directory metadata; without this sync a power
        // loss could surface the old blob again (or, worse, persist later
        // removals while dropping this rename).
        let fsync = self.metrics.fsync_micros.start();
        self.sync_dir()?;
        fsync.stop();
        span.stop();
        Ok(())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let span = self.metrics.append_micros.start();
        let path = self.path_of(name)?;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        file.write_all(bytes)?;
        let fsync = self.metrics.fsync_micros.start();
        file.sync_all()?;
        fsync.stop();
        span.stop();
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        let path = self.path_of(name)?;
        match std::fs::remove_file(&path) {
            Ok(()) => self.sync_dir(),
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(err) => Err(err.into()),
        }
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Some(name) = entry.file_name().to_str() {
                    if !name.ends_with(".tmp") {
                        names.push(name.to_string());
                    }
                }
            }
        }
        names.sort();
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("treedoc-storage-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn exercise(backend: &mut dyn StorageBackend) {
        assert_eq!(backend.read("a").unwrap(), None);
        backend.write("a", b"one").unwrap();
        backend.append("a", b"+two").unwrap();
        backend.append("log", b"first").unwrap();
        assert_eq!(backend.read("a").unwrap().unwrap(), b"one+two");
        assert_eq!(backend.read("log").unwrap().unwrap(), b"first");
        assert_eq!(backend.list().unwrap(), vec!["a", "log"]);
        backend.write("a", b"replaced").unwrap();
        assert_eq!(backend.read("a").unwrap().unwrap(), b"replaced");
        backend.remove("a").unwrap();
        backend.remove("a").unwrap(); // idempotent
        assert_eq!(backend.read("a").unwrap(), None);
        assert_eq!(backend.list().unwrap(), vec!["log"]);
    }

    #[test]
    fn memory_backend_round_trips() {
        exercise(&mut MemoryBackend::new());
    }

    #[test]
    fn file_backend_round_trips() {
        let dir = scratch_dir("roundtrip");
        let mut backend = FileBackend::open(&dir).unwrap();
        exercise(&mut backend);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_persists_across_reopen() {
        let dir = scratch_dir("reopen");
        {
            let mut backend = FileBackend::open(&dir).unwrap();
            backend.append("wal.log", b"hello").unwrap();
        }
        let backend = FileBackend::open(&dir).unwrap();
        assert_eq!(backend.read("wal.log").unwrap().unwrap(), b"hello");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopening_sweeps_orphaned_tmp_files() {
        // A crash between creating `{name}.tmp` and the rename leaves the
        // tmp file behind; the next open must clean it up.
        let dir = scratch_dir("tmp-sweep");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("snap-0.img.tmp"), b"half-written").unwrap();
        std::fs::write(dir.join("kept.log"), b"real blob").unwrap();
        let backend = FileBackend::open(&dir).unwrap();
        assert!(!dir.join("snap-0.img.tmp").exists(), "orphan swept on open");
        assert_eq!(backend.read("kept.log").unwrap().unwrap(), b"real blob");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_rejects_path_traversal() {
        let dir = scratch_dir("names");
        let mut backend = FileBackend::open(&dir).unwrap();
        assert!(backend.write("../evil", b"x").is_err());
        assert!(backend.write("", b"x").is_err());
        assert!(backend.write(".hidden", b"x").is_err());
        assert!(backend.write("a/b", b"x").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn path_separators_are_rejected_with_a_dedicated_error() {
        // The namespace boundary makes separator-bearing names reachable
        // from external document ids; both separators must fail, and the
        // error must say why.
        let dir = scratch_dir("separators");
        let mut backend = FileBackend::open(&dir).unwrap();
        for name in ["a/b", "..\\evil", "doc/../../escape", "back\\slash"] {
            let err = backend.write(name, b"x").unwrap_err();
            assert!(
                err.to_string().contains("path separator"),
                "{name:?} must be rejected as a path separator, got: {err}"
            );
            assert!(backend.read(name).is_err(), "reads too: {name:?}");
            assert!(backend.append(name, b"x").is_err());
            assert!(backend.remove(name).is_err());
        }
        assert_eq!(backend.list().unwrap(), Vec::<String>::new());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_shard_layout() {
        let dir = scratch_dir("shards");
        let mut s0 = FileBackend::open_shard(&dir, 0).unwrap();
        let mut s1 = FileBackend::open_shard(&dir, 1).unwrap();
        s0.write("blob", b"zero").unwrap();
        s1.write("blob", b"one").unwrap();
        assert_eq!(s0.read("blob").unwrap().unwrap(), b"zero");
        assert_eq!(s1.read("blob").unwrap().unwrap(), b"one");
        assert!(dir.join("shard-000").join("blob").exists());
        assert!(dir.join("shard-001").join("blob").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn namespaced_views_are_isolated_over_one_backend() {
        let shared = SharedBackend::in_memory();
        let mut a = NamespacedBackend::new(shared.clone(), "d1").unwrap();
        let mut b = NamespacedBackend::new(shared.clone(), "d2").unwrap();
        a.write("wal-0.log", b"alpha").unwrap();
        b.write("wal-0.log", b"beta").unwrap();
        b.append("extra.log", b"tail").unwrap();
        assert_eq!(a.read("wal-0.log").unwrap().unwrap(), b"alpha");
        assert_eq!(b.read("wal-0.log").unwrap().unwrap(), b"beta");
        assert_eq!(
            a.read("extra.log").unwrap(),
            None,
            "no cross-namespace reads"
        );
        assert_eq!(a.list().unwrap(), vec!["wal-0.log"]);
        assert_eq!(b.list().unwrap(), vec!["extra.log", "wal-0.log"]);
        a.remove("wal-0.log").unwrap();
        assert_eq!(b.read("wal-0.log").unwrap().unwrap(), b"beta");
        assert_eq!(list_namespaces(&shared).unwrap(), vec!["d2"]);
        assert_eq!(shared.stats().writes, 2);
        assert_eq!(shared.stats().appends, 1);
    }

    #[test]
    fn namespace_boundary_rejects_hostile_document_ids() {
        let shared = SharedBackend::in_memory();
        for ns in ["../up", "a/b", "c\\d", "", ".hidden", "a--b", "sp ace"] {
            assert!(
                NamespacedBackend::new(shared.clone(), ns).is_err(),
                "namespace {ns:?} must be rejected"
            );
        }
        // And a valid namespace still rejects separator-bearing blob names.
        let mut ok = NamespacedBackend::new(shared, "doc-7").unwrap();
        assert!(ok.write("../escape", b"x").is_err());
        assert!(ok.write("a/b", b"x").is_err());
    }
}
