//! The [`HostingNode`] itself: session admission, shard routing, cold
//! eviction and the node-wide commit/crash/restart lifecycle.

use std::collections::BTreeMap;
use std::fmt;

use treedoc_core::{Sdis, SiteId, Treedoc};
use treedoc_replication::Replica;
use treedoc_storage::{list_namespaces, DocStore, GroupWal, NamespacedBackend, SharedBackend};
use treedoc_telemetry::{Counter, Histogram, Telemetry, TraceEvent, Tracer};

use crate::resident::ResidentSet;
use crate::{DocId, NodeConfig, NodeError};

/// The hosted document type: a character Treedoc with the paper's structured
/// disambiguators.
pub type HostedDoc = Treedoc<char, Sdis>;

/// Handle to an admitted user session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// Lifetime counters of a node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Sessions admitted over the node's lifetime.
    pub sessions_admitted: u64,
    /// Operations applied on behalf of sessions.
    pub ops_applied: u64,
    /// Cold documents evicted (checkpointed and dropped).
    pub evictions: u64,
    /// Documents faulted back in from their stores.
    pub fault_ins: u64,
    /// Node-wide commits (group-WAL flush rounds).
    pub commits: u64,
}

#[derive(Debug)]
struct Session {
    user: String,
    doc: DocId,
}

/// Telemetry instruments of one hosting node: session-op volume,
/// eviction / fault-in / commit activity, plus trace events for
/// the low-frequency lifecycle points. Inert by default; bound with
/// [`HostingNode::set_telemetry`].
#[derive(Debug, Clone, Default)]
struct NodeMetrics {
    /// The bound handle, re-applied to replicas faulted in later.
    telemetry: Telemetry,
    ops: Counter,
    sessions: Counter,
    evictions: Counter,
    fault_ins: Counter,
    fault_in_micros: Histogram,
    commit_micros: Histogram,
    tracer: Tracer,
}

impl NodeMetrics {
    fn resolve(telemetry: &Telemetry) -> Self {
        NodeMetrics {
            telemetry: telemetry.clone(),
            ops: telemetry.counter("node.ops"),
            sessions: telemetry.counter("node.sessions"),
            evictions: telemetry.counter("node.evictions"),
            fault_ins: telemetry.counter("node.fault_ins"),
            fault_in_micros: telemetry.histogram("node.fault_in_micros"),
            commit_micros: telemetry.histogram("node.commit_micros"),
            tracer: telemetry.tracer(),
        }
    }
}

#[derive(Debug)]
struct Shard {
    backend: SharedBackend,
    wal: GroupWal,
}

/// A hosted document is either warm (its replica in memory) or cold
/// (nothing but its blobs — snapshot plus group-WAL tail — on the shard).
#[derive(Debug)]
enum Hosted {
    Resident(Box<Replica<HostedDoc>>),
    Evicted,
}

/// The document's blob namespace inside its shard.
fn namespace(doc: DocId) -> String {
    format!("d{doc}")
}

fn parse_namespace(ns: &str) -> Option<DocId> {
    ns.strip_prefix('d')?.parse().ok()
}

/// One process hosting many Treedoc documents for many user sessions.
///
/// See the crate docs for the architecture; in short: documents shard by id
/// over shared backends, journal through per-shard group-commit WALs, and a
/// bounded LRU resident set decides which replicas stay in memory. The
/// durability boundary is [`commit`](Self::commit) — records of edits since
/// the last commit live in the shard queues and die with the process.
#[derive(Debug)]
pub struct HostingNode {
    config: NodeConfig,
    shards: Vec<Shard>,
    docs: BTreeMap<DocId, Hosted>,
    residents: ResidentSet,
    sessions: BTreeMap<u64, Session>,
    next_session: u64,
    stats: NodeStats,
    metrics: NodeMetrics,
}

impl HostingNode {
    /// A node over fresh in-memory shards (tests, examples, simulation).
    pub fn new(config: NodeConfig) -> Self {
        let backends = (0..config.shards.max(1))
            .map(|_| SharedBackend::in_memory())
            .collect();
        Self::open(config, backends).expect("memory backends cannot fail")
    }

    /// Opens a node over existing shard backends — the boot path for real
    /// storage and the restart path after a crash. Documents already present
    /// on the shards (their blob namespaces) are rediscovered and hosted
    /// **evicted**; each faults in on first touch through the ordinary
    /// recovery path.
    pub fn open(config: NodeConfig, backends: Vec<SharedBackend>) -> Result<Self, NodeError> {
        assert_eq!(
            backends.len(),
            config.shards.max(1),
            "one backend per shard"
        );
        let mut shards = Vec::with_capacity(backends.len());
        let mut docs = BTreeMap::new();
        for backend in backends {
            for ns in list_namespaces(&backend)? {
                if let Some(doc) = parse_namespace(&ns) {
                    docs.insert(doc, Hosted::Evicted);
                }
            }
            let wal = GroupWal::open(backend.clone())?;
            shards.push(Shard { backend, wal });
        }
        Ok(HostingNode {
            config,
            shards,
            docs,
            residents: ResidentSet::new(),
            sessions: BTreeMap::new(),
            next_session: 1,
            stats: NodeStats::default(),
            metrics: NodeMetrics::default(),
        })
    }

    /// Points the node's instruments at `telemetry` and propagates the
    /// handle to every shard group-WAL and every currently resident replica
    /// (replicas faulted in later inherit it too). A disabled handle reverts
    /// everything to no-ops.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.metrics = NodeMetrics::resolve(telemetry);
        for shard in &self.shards {
            shard.wal.set_telemetry(telemetry);
        }
        for hosted in self.docs.values_mut() {
            if let Hosted::Resident(replica) = hosted {
                replica.set_telemetry(telemetry);
            }
        }
    }

    /// Restart after a node-wide crash: same as [`open`](Self::open), named
    /// for what the caller means. Everything flushed by the last
    /// [`commit`](Self::commit) (or checkpointed by an eviction) recovers;
    /// enqueued-but-uncommitted records are lost, as group commit promises.
    pub fn restart(config: NodeConfig, backends: Vec<SharedBackend>) -> Result<Self, NodeError> {
        Self::open(config, backends)
    }

    /// Clonable handles to the shard backends — what survives a crash (the
    /// test pattern: grab these, drop the node, [`restart`](Self::restart)).
    pub fn backends(&self) -> Vec<SharedBackend> {
        self.shards.iter().map(|s| s.backend.clone()).collect()
    }

    /// The node's configuration.
    pub fn config(&self) -> NodeConfig {
        self.config
    }

    /// Lifetime counters.
    pub fn stats(&self) -> NodeStats {
        self.stats
    }

    /// Every hosted document id, resident or not, ascending.
    pub fn hosted(&self) -> Vec<DocId> {
        self.docs.keys().copied().collect()
    }

    /// Number of hosted documents (resident or evicted).
    pub fn hosted_count(&self) -> usize {
        self.docs.len()
    }

    /// Number of documents currently warm in memory.
    pub fn resident_count(&self) -> usize {
        self.residents.len()
    }

    /// Whether `doc` is currently resident.
    pub fn is_resident(&self, doc: DocId) -> bool {
        self.residents.contains(doc)
    }

    /// In-memory bytes held by resident documents' position indexes — the
    /// figure eviction exists to bound.
    pub fn resident_bytes(&self) -> usize {
        self.docs
            .values()
            .map(|h| match h {
                Hosted::Resident(r) => r.doc().index_bytes(),
                Hosted::Evicted => 0,
            })
            .sum()
    }

    /// Total backend segment appends across all shards — WAL write traffic,
    /// the quantity group commit collapses.
    pub fn segment_appends(&self) -> u64 {
        self.shards.iter().map(|s| s.backend.stats().appends).sum()
    }

    /// Ensures `doc` is hosted, creating it (resident, with a baseline
    /// checkpoint on its shard) if this node has never seen it.
    pub fn host(&mut self, doc: DocId) -> Result<(), NodeError> {
        if self.docs.contains_key(&doc) {
            return Ok(());
        }
        let store = self.open_store(doc)?;
        let site = SiteId::from_u64(self.config.site);
        let mut replica = Replica::new(site, HostedDoc::new(site));
        replica.set_telemetry(&self.metrics.telemetry);
        replica.attach_store(store)?;
        self.docs.insert(doc, Hosted::Resident(Box::new(replica)));
        self.admit(doc)?;
        Ok(())
    }

    /// Admits a user session onto `doc` (hosting and faulting the document
    /// in as needed) and returns its handle.
    pub fn connect(&mut self, user: &str, doc: DocId) -> Result<SessionId, NodeError> {
        self.host(doc)?;
        self.ensure_resident(doc)?;
        let id = SessionId(self.next_session);
        self.next_session += 1;
        self.sessions.insert(
            id.0,
            Session {
                user: user.to_string(),
                doc,
            },
        );
        self.stats.sessions_admitted += 1;
        self.metrics.sessions.inc();
        Ok(id)
    }

    /// Ends a session. Its document stays hosted (and resident until
    /// eviction picks it).
    pub fn disconnect(&mut self, session: SessionId) -> Result<(), NodeError> {
        self.sessions
            .remove(&session.0)
            .map(|_| ())
            .ok_or(NodeError::UnknownSession(session.0))
    }

    /// The user a session belongs to.
    pub fn session_user(&self, session: SessionId) -> Result<&str, NodeError> {
        self.sessions
            .get(&session.0)
            .map(|s| s.user.as_str())
            .ok_or(NodeError::UnknownSession(session.0))
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Inserts `atom` at `index` in the session's document. The operation is
    /// stamped and journaled to the shard's group queue; it becomes durable
    /// at the next [`commit`](Self::commit) (or checkpoint).
    pub fn insert(
        &mut self,
        session: SessionId,
        index: usize,
        atom: char,
    ) -> Result<(), NodeError> {
        let doc = self.session_doc(session)?;
        let replica = self.ensure_resident(doc)?;
        let len = replica.doc().len();
        if index > len {
            return Err(NodeError::OutOfRange { index, len });
        }
        let op = replica
            .doc_mut()
            .local_insert(index, atom)
            .expect("insert index checked in range");
        let _stamped = replica.stamp(op);
        self.stats.ops_applied += 1;
        self.metrics.ops.inc();
        Ok(())
    }

    /// Deletes the atom at `index` in the session's document.
    pub fn remove(&mut self, session: SessionId, index: usize) -> Result<(), NodeError> {
        let doc = self.session_doc(session)?;
        let replica = self.ensure_resident(doc)?;
        let len = replica.doc().len();
        if index >= len {
            return Err(NodeError::OutOfRange { index, len });
        }
        let op = replica
            .doc_mut()
            .local_delete(index)
            .expect("delete index checked in range");
        let _stamped = replica.stamp(op);
        self.stats.ops_applied += 1;
        self.metrics.ops.inc();
        Ok(())
    }

    /// The current contents of `doc` (faulting it in if cold).
    pub fn contents(&mut self, doc: DocId) -> Result<String, NodeError> {
        let replica = self.require_resident(doc)?;
        Ok(replica.doc().to_vec().into_iter().collect())
    }

    /// Order-independent digest of `doc`'s content (faulting it in if
    /// cold) — the figure crash tests compare against a crash-free run.
    pub fn digest(&mut self, doc: DocId) -> Result<u64, NodeError> {
        let replica = self.require_resident(doc)?;
        Ok(replica.digest())
    }

    /// Flushes every shard's group queue — **the durability boundary**: one
    /// backend segment append per shard with pending records, covering
    /// every document's edits since the last commit. Returns the number of
    /// records made durable.
    pub fn commit(&mut self) -> Result<u64, NodeError> {
        let span = self.metrics.commit_micros.start();
        let mut flushed = 0;
        for shard in &self.shards {
            flushed += shard.wal.flush()?;
        }
        self.stats.commits += 1;
        let micros = span.stop();
        self.metrics.tracer.record_with(|| TraceEvent {
            site: self.config.site,
            lsn: flushed,
            micros,
            ..TraceEvent::of("node.commit")
        });
        Ok(flushed)
    }

    /// Evicts `doc` if resident: checkpoints it (snapshot + durable replay
    /// cursor — which also flushes the shard queue) and drops the in-memory
    /// replica. Returns whether an eviction actually happened. The document
    /// faults back in on first touch.
    pub fn evict(&mut self, doc: DocId) -> Result<bool, NodeError> {
        match self.docs.get_mut(&doc) {
            None => Err(NodeError::UnknownDocument(doc)),
            Some(slot @ Hosted::Resident(_)) => {
                let Hosted::Resident(mut replica) = std::mem::replace(slot, Hosted::Evicted) else {
                    unreachable!("matched resident above")
                };
                replica.persist_checkpoint()?;
                self.residents.remove(doc);
                self.stats.evictions += 1;
                self.metrics.evictions.inc();
                self.metrics.tracer.record_with(|| TraceEvent {
                    site: self.config.site,
                    doc: namespace(doc),
                    ..TraceEvent::of("node.evict")
                });
                Ok(true)
            }
            Some(Hosted::Evicted) => Ok(false),
        }
    }

    /// The document a session is attached to.
    fn session_doc(&self, session: SessionId) -> Result<DocId, NodeError> {
        self.sessions
            .get(&session.0)
            .map(|s| s.doc)
            .ok_or(NodeError::UnknownSession(session.0))
    }

    /// A group-mode store over `doc`'s namespace on its shard.
    fn open_store(&self, doc: DocId) -> Result<DocStore, NodeError> {
        let shard = &self.shards[self.config.shard_of(doc)];
        let ns = namespace(doc);
        let view = NamespacedBackend::new(shard.backend.clone(), &ns)?;
        Ok(DocStore::with_group_wal(view, shard.wal.clone(), &ns)?)
    }

    /// Errors on unknown documents, otherwise behaves as
    /// [`ensure_resident`](Self::ensure_resident) — for read paths that
    /// must not implicitly create documents.
    fn require_resident(&mut self, doc: DocId) -> Result<&mut Replica<HostedDoc>, NodeError> {
        if !self.docs.contains_key(&doc) {
            return Err(NodeError::UnknownDocument(doc));
        }
        self.ensure_resident(doc)
    }

    /// Touches `doc`, faulting it in from its store if cold and evicting
    /// LRU documents while over capacity, then hands out the warm replica.
    fn ensure_resident(&mut self, doc: DocId) -> Result<&mut Replica<HostedDoc>, NodeError> {
        match self.docs.get(&doc) {
            None => return Err(NodeError::UnknownDocument(doc)),
            Some(Hosted::Evicted) => {
                let span = self.metrics.fault_in_micros.start();
                let store = self.open_store(doc)?;
                let (mut replica, report) = Replica::<HostedDoc>::recover(store)
                    .map_err(|e| NodeError::Recover(e.to_string()))?;
                replica.set_telemetry(&self.metrics.telemetry);
                self.docs.insert(doc, Hosted::Resident(Box::new(replica)));
                self.stats.fault_ins += 1;
                self.metrics.fault_ins.inc();
                let micros = span.stop();
                self.metrics.tracer.record_with(|| TraceEvent {
                    site: self.config.site,
                    doc: namespace(doc),
                    epoch: report.snapshot_epoch,
                    bytes: report.bytes_recovered as u64,
                    micros,
                    ..TraceEvent::of("node.fault_in")
                });
            }
            Some(Hosted::Resident(_)) => {}
        }
        self.admit(doc)?;
        match self.docs.get_mut(&doc) {
            Some(Hosted::Resident(replica)) => Ok(replica),
            _ => unreachable!("document made resident above"),
        }
    }

    /// Records a touch on `doc` and evicts coldest documents (never `doc`
    /// itself) until the resident set is back within capacity.
    fn admit(&mut self, doc: DocId) -> Result<(), NodeError> {
        self.residents.touch(doc);
        while self
            .residents
            .over_capacity(self.config.max_resident.max(1))
        {
            let Some(victim) = self.residents.coldest(Some(doc)) else {
                break;
            };
            self.evict(victim)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(max_resident: usize) -> NodeConfig {
        NodeConfig {
            shards: 2,
            max_resident,
            site: 9,
        }
    }

    fn type_line(node: &mut HostingNode, session: SessionId, text: &str) {
        for (i, ch) in text.chars().enumerate() {
            node.insert(session, i, ch).unwrap();
        }
    }

    #[test]
    fn sessions_edit_their_own_documents() {
        let mut node = HostingNode::new(tiny(8));
        let alice = node.connect("alice", 1).unwrap();
        let bob = node.connect("bob", 2).unwrap();
        type_line(&mut node, alice, "hello");
        type_line(&mut node, bob, "world");
        assert_eq!(node.contents(1).unwrap(), "hello");
        assert_eq!(node.contents(2).unwrap(), "world");
        assert_eq!(node.session_user(alice).unwrap(), "alice");
        assert_eq!(node.stats().ops_applied, 10);
        node.disconnect(alice).unwrap();
        assert!(node.insert(alice, 0, 'x').is_err(), "dead session rejected");
        assert_eq!(
            node.contents(1).unwrap(),
            "hello",
            "document outlives session"
        );
    }

    #[test]
    fn out_of_range_edits_are_rejected() {
        let mut node = HostingNode::new(tiny(8));
        let s = node.connect("u", 1).unwrap();
        assert!(matches!(
            node.insert(s, 5, 'x'),
            Err(NodeError::OutOfRange { index: 5, len: 0 })
        ));
        assert!(matches!(
            node.remove(s, 0),
            Err(NodeError::OutOfRange { .. })
        ));
    }

    #[test]
    fn lru_eviction_keeps_the_resident_set_bounded() {
        let mut node = HostingNode::new(tiny(2));
        for doc in 1..=5 {
            let s = node.connect("u", doc).unwrap();
            type_line(&mut node, s, "text");
        }
        assert_eq!(node.hosted_count(), 5);
        assert_eq!(node.resident_count(), 2, "capacity enforced");
        assert!(node.is_resident(5));
        assert!(!node.is_resident(1));
        assert_eq!(node.stats().evictions, 3);
        // Touching an evicted document faults it in — contents intact.
        assert_eq!(node.contents(1).unwrap(), "text");
        assert!(node.is_resident(1));
        assert_eq!(node.stats().fault_ins, 1);
    }

    #[test]
    fn eviction_frees_resident_memory() {
        let mut node = HostingNode::new(tiny(8));
        let s = node.connect("u", 1).unwrap();
        type_line(&mut node, s, "some resident text");
        let warm = node.resident_bytes();
        assert!(warm > 0);
        node.evict(1).unwrap();
        assert_eq!(node.resident_bytes(), 0);
        assert_eq!(node.contents(1).unwrap(), "some resident text");
        assert!(node.resident_bytes() >= warm, "faulted back in whole");
    }

    #[test]
    fn commit_then_crash_then_restart_recovers_documents() {
        let mut node = HostingNode::new(tiny(4));
        let a = node.connect("u", 10).unwrap();
        let b = node.connect("u", 11).unwrap();
        type_line(&mut node, a, "alpha");
        type_line(&mut node, b, "beta");
        node.commit().unwrap();
        let backends = node.backends();
        drop(node); // the crash: queues and resident replicas die

        let mut node = HostingNode::restart(tiny(4), backends).unwrap();
        assert_eq!(node.hosted(), vec![10, 11], "rediscovered from shards");
        assert_eq!(node.resident_count(), 0, "everything restarts cold");
        assert_eq!(node.contents(10).unwrap(), "alpha");
        assert_eq!(node.contents(11).unwrap(), "beta");
    }

    #[test]
    fn uncommitted_edits_die_with_the_process() {
        let mut node = HostingNode::new(tiny(4));
        let s = node.connect("u", 1).unwrap();
        type_line(&mut node, s, "durable");
        node.commit().unwrap();
        node.insert(s, 7, '!').unwrap(); // enqueued, never flushed
        let backends = node.backends();
        drop(node);

        let mut node = HostingNode::restart(tiny(4), backends).unwrap();
        assert_eq!(
            node.contents(1).unwrap(),
            "durable",
            "group commit loses exactly the unflushed tail"
        );
    }
}
