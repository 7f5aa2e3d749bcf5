//! Acceptance tests for the hosting node (ISSUE 8):
//!
//! 1. a node hosting ≥ 64 documents under mixed traffic performs
//!    *measurably fewer* backend segment writes with the group-commit WAL
//!    than the same traffic over per-document private WALs;
//! 2. a node-wide crash recovers every hosted document to its crash-free
//!    digest — including documents that were evicted at crash time.

use treedoc_core::SiteId;
use treedoc_node::node::HostedDoc;
use treedoc_node::{DocId, HostingNode, NodeConfig, SessionId};
use treedoc_replication::Replica;
use treedoc_storage::{DocStore, NamespacedBackend, SharedBackend};

const DOCS: u64 = 64;
const ROUNDS: usize = 6;
const SHARDS: usize = 4;
const SITE: u64 = 1;

enum Edit {
    Insert(usize, char),
    Delete(usize),
}

/// The deterministic mixed-traffic script for one document-round: three
/// inserts at spread positions plus, on odd rounds, one delete.
fn script(doc: DocId, round: usize, mut len: usize) -> Vec<Edit> {
    let mut edits = Vec::new();
    for k in 0..3 {
        let pos = (doc as usize * 7 + round * 3 + k * 5) % (len + 1);
        let ch = char::from(b'a' + ((doc as usize + round + k) % 26) as u8);
        edits.push(Edit::Insert(pos, ch));
        len += 1;
    }
    if round % 2 == 1 && len > 2 {
        edits.push(Edit::Delete(len / 2));
        len -= 1;
    }
    let _ = len;
    edits
}

fn apply_to_node(node: &mut HostingNode, session: SessionId, edits: &[Edit]) {
    for edit in edits {
        match *edit {
            Edit::Insert(pos, ch) => node.insert(session, pos, ch).unwrap(),
            Edit::Delete(pos) => node.remove(session, pos).unwrap(),
        }
    }
}

fn apply_to_replica(replica: &mut Replica<HostedDoc>, edits: &[Edit]) {
    for edit in edits {
        let op = match *edit {
            Edit::Insert(pos, ch) => replica.doc_mut().local_insert(pos, ch).unwrap(),
            Edit::Delete(pos) => replica.doc_mut().local_delete(pos).unwrap(),
        };
        let _stamped = replica.stamp(op);
    }
}

fn edit_len(edits: &[Edit]) -> isize {
    edits
        .iter()
        .map(|e| match e {
            Edit::Insert(..) => 1,
            Edit::Delete(_) => -1,
        })
        .sum()
}

#[test]
fn group_commit_beats_private_wals_on_segment_writes() {
    // --- Group-commit node: 64 documents over 4 shards, commit per round.
    let config = NodeConfig {
        shards: SHARDS,
        max_resident: DOCS as usize, // no eviction: pure WAL comparison
        site: SITE,
    };
    let mut node = HostingNode::new(config);
    let sessions: Vec<SessionId> = (0..DOCS)
        .map(|doc| node.connect(&format!("user-{doc}"), doc).unwrap())
        .collect();
    let mut lens = vec![0usize; DOCS as usize];
    for round in 0..ROUNDS {
        for doc in 0..DOCS {
            let edits = script(doc, round, lens[doc as usize]);
            apply_to_node(&mut node, sessions[doc as usize], &edits);
            lens[doc as usize] = (lens[doc as usize] as isize + edit_len(&edits)) as usize;
        }
        node.commit().unwrap();
    }
    let group_appends = node.segment_appends();

    // --- Baseline: the same traffic, each document journaling to its own
    // private WAL over the same kind of shared backends.
    let backends: Vec<SharedBackend> = (0..SHARDS).map(|_| SharedBackend::in_memory()).collect();
    let site = SiteId::from_u64(SITE);
    let mut replicas: Vec<Replica<HostedDoc>> = (0..DOCS)
        .map(|doc| {
            let ns = format!("d{doc}");
            let view = NamespacedBackend::new(backends[config.shard_of(doc)].clone(), &ns).unwrap();
            let mut replica = Replica::new(site, HostedDoc::new(site));
            replica.attach_store(DocStore::new(view).unwrap()).unwrap();
            replica
        })
        .collect();
    let mut lens = vec![0usize; DOCS as usize];
    for round in 0..ROUNDS {
        for doc in 0..DOCS {
            let edits = script(doc, round, lens[doc as usize]);
            apply_to_replica(&mut replicas[doc as usize], &edits);
            lens[doc as usize] = (lens[doc as usize] as isize + edit_len(&edits)) as usize;
        }
    }
    let private_appends: u64 = backends.iter().map(|b| b.stats().appends).sum();

    // Same traffic, same documents: the contents must agree...
    for doc in 0..DOCS {
        assert_eq!(
            node.digest(doc).unwrap(),
            replicas[doc as usize].digest(),
            "document {doc} diverged between the two WAL modes"
        );
    }
    // ...but group commit collapses per-record appends into one segment
    // write per shard per commit.
    assert_eq!(
        private_appends,
        node.stats().ops_applied,
        "private mode pays one segment append per logged record"
    );
    assert!(
        group_appends as usize <= SHARDS * ROUNDS,
        "group mode pays at most one append per shard per commit \
         (got {group_appends})"
    );
    assert!(
        group_appends * 10 <= private_appends,
        "group commit must collapse segment writes by >=10x: \
         {group_appends} vs {private_appends}"
    );
}

#[test]
fn node_wide_crash_recovers_every_document_including_evicted() {
    let config = NodeConfig {
        shards: SHARDS,
        max_resident: 12, // far fewer than the documents: heavy eviction
        site: SITE,
    };
    const HOSTED: u64 = 72;
    let mut node = HostingNode::new(config);
    let mut lens = vec![0usize; HOSTED as usize];
    for round in 0..4 {
        for doc in 0..HOSTED {
            // Sessions come and go; each touch churns the resident set.
            let session = node.connect(&format!("u{doc}"), doc).unwrap();
            let edits = script(doc, round, lens[doc as usize]);
            apply_to_node(&mut node, session, &edits);
            lens[doc as usize] = (lens[doc as usize] as isize + edit_len(&edits)) as usize;
            node.disconnect(session).unwrap();
        }
        node.commit().unwrap();
    }
    assert!(
        node.stats().evictions > 0,
        "scenario must exercise eviction"
    );
    assert!(node.resident_count() <= 12);

    // Crash-free reference digests (faulting documents in to read them
    // churns the resident set further, but never the contents).
    let reference: Vec<u64> = (0..HOSTED).map(|doc| node.digest(doc).unwrap()).collect();
    node.commit().unwrap(); // the durability boundary before the crash
    let evicted_at_crash: Vec<DocId> = (0..HOSTED).filter(|&doc| !node.is_resident(doc)).collect();
    assert!(
        evicted_at_crash.len() as u64 >= HOSTED - 12,
        "most documents must be cold at crash time"
    );

    let backends = node.backends();
    drop(node); // node-wide crash: every resident replica and queue dies

    let mut node = HostingNode::restart(config, backends).unwrap();
    assert_eq!(node.hosted_count() as u64, HOSTED, "all rediscovered");
    assert_eq!(node.resident_count(), 0);
    for doc in 0..HOSTED {
        assert_eq!(
            node.digest(doc).unwrap(),
            reference[doc as usize],
            "document {doc} did not recover to its crash-free digest"
        );
    }
    assert!(
        evicted_at_crash
            .iter()
            .all(|&doc| { node.contents(doc).is_ok() }),
        "documents evicted at crash time recover like any other"
    );
}

/// Types `n` characters at the end of `doc` (every seventh keystroke a
/// backspace) through a fresh session, and the same edits into `reference`.
fn type_run(
    node: &mut HostingNode,
    reference: &mut Replica<HostedDoc>,
    doc: DocId,
    len: &mut usize,
    n: usize,
) {
    let edits: Vec<Edit> = (0..n)
        .map(|k| {
            if k % 7 == 6 && *len > 0 {
                *len -= 1;
                Edit::Delete(*len)
            } else {
                *len += 1;
                Edit::Insert(*len - 1, char::from(b'a' + (k % 26) as u8))
            }
        })
        .collect();
    let session = node.connect("typist", doc).unwrap();
    apply_to_node(node, session, &edits);
    node.disconnect(session).unwrap();
    apply_to_replica(reference, &edits);
}

#[test]
fn a_document_faulted_in_mid_chain_resumes_its_wal_chain() {
    // One document typed across node crashes and an eviction. After a
    // restart it faults in from its snapshot plus a journaled tail of
    // chained records, and the records typed next chain onto that tail;
    // an eviction checkpoints and restarts the chain. Every recovery lands
    // on the digest of a replica that never crashed.
    let config = NodeConfig {
        shards: 2,
        max_resident: 2,
        site: SITE,
    };
    const DOC: DocId = 5;
    let site = SiteId::from_u64(SITE);
    let mut reference = Replica::new(site, HostedDoc::new(site));
    let mut len = 0;
    let crash = |node: HostingNode| {
        let backends = node.backends();
        drop(node);
        HostingNode::restart(config, backends).unwrap()
    };

    let mut node = HostingNode::new(config);
    type_run(&mut node, &mut reference, DOC, &mut len, 40);
    node.commit().unwrap();
    let mut node = crash(node);
    assert!(!node.is_resident(DOC));

    // Faulted in mid-chain: the tail's last record is the new records'
    // predecessor.
    type_run(&mut node, &mut reference, DOC, &mut len, 40);
    assert_eq!(node.digest(DOC).unwrap(), reference.digest());
    node.commit().unwrap();
    let mut node = crash(node);
    assert_eq!(node.digest(DOC).unwrap(), reference.digest());

    // Evicted mid-chain: the checkpoint resets it, the fault-in resumes
    // from the snapshot.
    type_run(&mut node, &mut reference, DOC, &mut len, 10);
    assert!(node.evict(DOC).unwrap());
    type_run(&mut node, &mut reference, DOC, &mut len, 20);
    node.commit().unwrap();
    let mut node = crash(node);
    assert_eq!(node.digest(DOC).unwrap(), reference.digest());
    assert_eq!(node.contents(DOC).unwrap(), reference.doc().to_string());
}
