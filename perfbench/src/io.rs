//! The storage timing wrapper: a [`StorageBackend`] around
//! [`MemoryBackend`] that counts calls, bytes and time of reads, writes and
//! appends, and opens a `storage.<method>` span around each call when
//! tracing is on.
//!
//! It plugs in wherever the program takes a backend — directly under a
//! [`DocStore`](treedoc_storage::DocStore) or inside a
//! [`SharedBackend`](treedoc_storage::SharedBackend), which is how the
//! hosting node and a crash-surviving replica store see it. Memory is the
//! medium, so fsync latency of a real device is not measured: on a
//! `FileBackend` every append is one fsync, and the append count stands in
//! for the flush count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use treedoc_storage::{MemoryBackend, StorageBackend, StorageError};

use crate::trace;

const READ: usize = 0;
const WRITE: usize = 1;
const APPEND: usize = 2;

/// Shared counters of every [`TimedBackend`] made from them. Plain
/// statistics, so relaxed atomics suffice.
#[derive(Debug, Default)]
pub struct IoCounters {
    calls: [AtomicU64; 3],
    bytes: [AtomicU64; 3],
    nanos: [AtomicU64; 3],
}

impl IoCounters {
    /// Fresh counters behind a shareable handle.
    pub fn shared() -> Arc<IoCounters> {
        Arc::new(IoCounters::default())
    }

    fn note(&self, method: usize, bytes: usize, started: Instant) {
        let nanos = started.elapsed().as_nanos() as u64;
        self.calls[method].fetch_add(1, Ordering::Relaxed);
        self.bytes[method].fetch_add(bytes as u64, Ordering::Relaxed);
        self.nanos[method].fetch_add(nanos, Ordering::Relaxed);
    }

    /// The totals so far.
    pub fn snapshot(&self) -> IoStats {
        let method = |m: usize| MethodStats {
            calls: self.calls[m].load(Ordering::Relaxed),
            bytes: self.bytes[m].load(Ordering::Relaxed),
            nanos: self.nanos[m].load(Ordering::Relaxed),
        };
        IoStats {
            read: method(READ),
            write: method(WRITE),
            append: method(APPEND),
        }
    }
}

/// Calls, bytes (read or handed over) and time of one backend method.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MethodStats {
    /// Calls made.
    pub calls: u64,
    /// Bytes returned (`read`) or handed to the backend (`write`, `append`).
    pub bytes: u64,
    /// Time spent in the calls, in ns.
    pub nanos: u64,
}

impl MethodStats {
    fn minus(self, earlier: MethodStats) -> MethodStats {
        MethodStats {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
            nanos: self.nanos - earlier.nanos,
        }
    }
}

/// Per-method totals of a set of backends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// `read` calls.
    pub read: MethodStats,
    /// `write` calls: snapshots and checkpoints.
    pub write: MethodStats,
    /// `append` calls: WAL records and group-commit segments.
    pub append: MethodStats,
}

impl IoStats {
    /// What happened between `earlier` and `self`.
    pub fn minus(self, earlier: IoStats) -> IoStats {
        IoStats {
            read: self.read.minus(earlier.read),
            write: self.write.minus(earlier.write),
            append: self.append.minus(earlier.append),
        }
    }

    /// The same counts with every time set to zero.
    pub fn without_time(self) -> IoStats {
        let untimed = |m: MethodStats| MethodStats { nanos: 0, ..m };
        IoStats {
            read: untimed(self.read),
            write: untimed(self.write),
            append: untimed(self.append),
        }
    }

    /// Bytes handed to the backend: appends plus writes.
    pub fn bytes_written(&self) -> u64 {
        self.append.bytes + self.write.bytes
    }
}

/// A [`MemoryBackend`] that reports every call to shared [`IoCounters`].
#[derive(Debug)]
pub struct TimedBackend {
    inner: MemoryBackend,
    counters: Arc<IoCounters>,
}

impl TimedBackend {
    /// An empty backend reporting to `counters`.
    pub fn new(counters: Arc<IoCounters>) -> Self {
        TimedBackend {
            inner: MemoryBackend::new(),
            counters,
        }
    }
}

impl StorageBackend for TimedBackend {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        let _span = trace::span("storage.read");
        let started = Instant::now();
        let out = self.inner.read(name)?;
        let bytes = out.as_ref().map_or(0, Vec::len);
        self.counters.note(READ, bytes, started);
        Ok(out)
    }

    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let _span = trace::span("storage.write");
        let started = Instant::now();
        self.inner.write(name, bytes)?;
        self.counters.note(WRITE, bytes.len(), started);
        Ok(())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let _span = trace::span("storage.append");
        let started = Instant::now();
        self.inner.append(name, bytes)?;
        self.counters.note(APPEND, bytes.len(), started);
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        let _span = trace::span("storage.remove");
        self.inner.remove(name)
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        let _span = trace::span("storage.list");
        self.inner.list()
    }
}
