//! Fault-in I/O is proportional to the document, not to the shard.
//!
//! A counting backend sits under every shard of a hosting node, and the
//! backend calls of an eviction and of a fault-in are pinned: an eviction
//! lists nothing; a fault-in lists its namespace at most once, reads its
//! own newest snapshot and no group-WAL segment; after a restart, a
//! document with records not yet folded into its snapshot reads, besides
//! its snapshot, only the segment its commit appended those records to.
//! Which segments a replay picks when records spread over several is the
//! group WAL's own unit test. A fault-in's one listing returns only its
//! own namespace's names. The counts and the names listed are the same
//! whether the node hosts 400 documents or 800 — the deterministic form of
//! "flat when the hosted population doubles".

use std::sync::{Arc, Mutex};

use treedoc_node::{DocId, HostingNode, NodeConfig};
use treedoc_storage::{
    MemoryBackend, SharedBackend, StorageBackend, StorageError, NAMESPACE_SEPARATOR,
};

/// The backend calls a node made, across all shards.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Calls {
    lists: u64,
    /// Names each `list` or `list_prefix` returned, in order.
    listed: Vec<Vec<String>>,
    /// Names read, in order.
    reads: Vec<String>,
    /// Names appended to, in order.
    appends: Vec<String>,
}

impl Calls {
    fn group_segment_reads(&self) -> Vec<&str> {
        self.reads
            .iter()
            .map(String::as_str)
            .filter(|n| n.starts_with("gwal-"))
            .collect()
    }
}

/// A memory backend that logs every listing, `read` and `append`.
#[derive(Debug)]
struct Counting {
    inner: MemoryBackend,
    calls: Arc<Mutex<Calls>>,
}

impl StorageBackend for Counting {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        self.calls.lock().unwrap().reads.push(name.to_string());
        self.inner.read(name)
    }
    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.inner.write(name, bytes)
    }
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.calls.lock().unwrap().appends.push(name.to_string());
        self.inner.append(name, bytes)
    }
    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        self.inner.remove(name)
    }
    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.logged(self.inner.list())
    }
    fn list_prefix(&self, prefix: &str) -> Result<Vec<String>, StorageError> {
        self.logged(self.inner.list_prefix(prefix))
    }
}

impl Counting {
    fn logged(
        &self,
        names: Result<Vec<String>, StorageError>,
    ) -> Result<Vec<String>, StorageError> {
        let mut calls = self.calls.lock().unwrap();
        calls.lists += 1;
        calls.listed.push(names.clone()?);
        names
    }
}

const CONFIG: NodeConfig = NodeConfig {
    shards: 4,
    max_resident: 32,
    site: 3,
};

/// What one eviction, one fault-in and one post-restart fault-in cost.
#[derive(Debug, PartialEq, Eq)]
struct Costs {
    eviction_lists: u64,
    /// Per fault-in: `(lists, reads)`.
    fault_ins: Vec<(u64, usize)>,
    /// Per fault-in: the names each listing returned, in [`shape`].
    fault_in_listed: Vec<Vec<Vec<String>>>,
    /// `(lists, reads)` of the fault-in after the restart.
    restart_fault_in: (u64, usize),
    /// The names the restart fault-in's listings returned, in [`shape`].
    restart_listed: Vec<Vec<String>>,
}

fn is_snapshot_of(name: &str, doc: DocId) -> bool {
    name.strip_prefix(&format!("d{doc}{NAMESPACE_SEPARATOR}"))
        .is_some_and(|rest| rest.starts_with("snap-"))
}

/// A blob name with every run of digits masked: snapshot names carry the
/// group-WAL cursor, which grows with the population.
fn shape(name: &str) -> String {
    let mut out = String::new();
    for c in name.chars() {
        if !c.is_ascii_digit() {
            out.push(c);
        } else if !out.ends_with('#') {
            out.push('#');
        }
    }
    out
}

/// The names each listing of `calls` returned, in [`shape`]; panics on a
/// name from another namespace than `doc`'s.
fn own_names(calls: &Calls, doc: DocId) -> Vec<Vec<String>> {
    let prefix = format!("d{doc}{NAMESPACE_SEPARATOR}");
    calls
        .listed
        .iter()
        .map(|names| {
            names
                .iter()
                .map(|n| match n.strip_prefix(&prefix) {
                    Some(rest) => shape(rest),
                    None => panic!("a fault-in of {doc} listed {n:?}: {calls:?}"),
                })
                .collect()
        })
        .collect()
}

/// Warms a node of `population` documents, then measures.
fn measure(population: u64) -> Costs {
    let calls = Arc::new(Mutex::new(Calls::default()));
    let backends: Vec<SharedBackend> = (0..CONFIG.shards)
        .map(|_| {
            SharedBackend::new(Counting {
                inner: MemoryBackend::new(),
                calls: calls.clone(),
            })
        })
        .collect();
    let take = || std::mem::take(&mut *calls.lock().unwrap());
    let mut node = HostingNode::open(CONFIG, backends).unwrap();
    for doc in 0..population {
        let session = node.connect("user", doc).unwrap();
        for (i, ch) in "warm text".chars().enumerate() {
            node.insert(session, i, ch).unwrap();
        }
        if doc % 8 == 7 {
            node.commit().unwrap();
        }
    }
    node.commit().unwrap();
    assert_eq!(node.resident_count(), CONFIG.max_resident);

    // An eviction lists nothing.
    let warm = population - 1;
    take();
    assert!(node.evict(warm).unwrap());
    let eviction = take();
    assert_eq!(eviction.lists, 0, "an eviction lists: {eviction:?}");

    // Fault-ins of evicted documents (the later ones evict an LRU victim
    // too): at most one list, one read, and that read is the document's own
    // snapshot — no group segment.
    let mut fault_ins = Vec::new();
    let mut fault_in_listed = Vec::new();
    for doc in [0, 1, population / 2, population / 2 + 1] {
        assert!(!node.is_resident(doc));
        take();
        node.contents(doc).unwrap();
        let fault_in = take();
        assert!(fault_in.lists <= 1, "fault-in of {doc}: {fault_in:?}");
        assert!(
            fault_in.group_segment_reads().is_empty(),
            "fault-in of {doc} read group segments: {fault_in:?}"
        );
        assert!(
            fault_in.reads.iter().all(|n| is_snapshot_of(n, doc)),
            "fault-in of {doc} read more than its snapshot: {fault_in:?}"
        );
        fault_ins.push((fault_in.lists, fault_in.reads.len()));
        fault_in_listed.push(own_names(&fault_in, doc));
    }

    // A document folded at eviction, faulted back in and edited again: its
    // commit appends its new records to one segment.
    let doc = 0;
    assert!(node.evict(doc).unwrap());
    let session = node.connect("user", doc).unwrap();
    take();
    node.insert(session, 0, '!').unwrap();
    node.commit().unwrap();
    let committed = take();
    assert_eq!(committed.appends.len(), 1, "{committed:?}");
    let segment = committed.appends[0].clone();
    // Records of other documents, committed after it.
    for other in [4, 8] {
        let session = node.connect("user", other).unwrap();
        node.insert(session, 0, '?').unwrap();
        node.commit().unwrap();
    }

    // Crash and restart: the document's unfolded records are read from
    // the segment its commit appended to, and no other.
    let backends = node.backends();
    drop(node);
    let mut node = HostingNode::restart(CONFIG, backends).unwrap();
    take();
    assert_eq!(node.contents(doc).unwrap(), "!warm text");
    let restart_fault_in = take();
    assert!(restart_fault_in.lists <= 1, "{restart_fault_in:?}");
    assert_eq!(
        restart_fault_in.group_segment_reads(),
        [segment.as_str()],
        "restart fault-in read the wrong segments: {restart_fault_in:?}"
    );
    assert!(
        restart_fault_in
            .reads
            .iter()
            .all(|n| is_snapshot_of(n, doc) || *n == segment),
        "{restart_fault_in:?}"
    );

    Costs {
        eviction_lists: eviction.lists,
        fault_ins,
        fault_in_listed,
        restart_fault_in: (restart_fault_in.lists, restart_fault_in.reads.len()),
        restart_listed: own_names(&restart_fault_in, doc),
    }
}

#[test]
fn fault_in_io_is_flat_when_the_hosted_population_doubles() {
    let small = measure(400);
    let large = measure(800);
    assert_eq!(small, large, "per-fault-in I/O grew with the population");
}
