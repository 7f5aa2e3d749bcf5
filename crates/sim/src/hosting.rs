//! The multi-document hosting scenario: Zipf-popularity user sessions over
//! thousands of documents on one [`HostingNode`].
//!
//! Real hosting workloads are heavily skewed — a few hot documents take most
//! of the traffic while a long tail sits cold. The scenario samples each
//! session's document from a Zipf(s) distribution, so the node's LRU
//! resident set keeps the hot head warm while the tail lives as snapshots,
//! and counts what the node exists to control:
//!
//! * **resident memory vs hosted documents** — index bytes actually held in
//!   memory against the document population;
//! * **evictions, fault-ins and group-commit segment appends**;
//! * **node-wide crash recovery** — after a crash at the commit boundary, a
//!   restarted node rediscovers every document and faults each back in.
//!
//! Edits and document choices are seeded, so a report is a pure function of
//! its scenario. The node's op latencies and restart/refill times are
//! measured end to end by perfbench's `hosting` workload.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use treedoc_node::{DocId, HostingNode, NodeConfig};

/// Parameters of a hosting run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostingScenario {
    /// Documents in the hosted population.
    pub documents: usize,
    /// User sessions driven (each connects, edits, disconnects).
    pub sessions: usize,
    /// Edits per session.
    pub ops_per_session: usize,
    /// Zipf exponent of document popularity (0 = uniform; ~1 = web-like).
    pub zipf_s: f64,
    /// Shards of the node.
    pub shards: usize,
    /// Resident-set capacity.
    pub max_resident: usize,
    /// Sessions between node-wide commits (group-WAL flushes).
    pub commit_every: usize,
    /// RNG seed for document choice and edit positions.
    pub seed: u64,
}

impl Default for HostingScenario {
    fn default() -> Self {
        HostingScenario {
            documents: 2000,
            sessions: 600,
            ops_per_session: 12,
            zipf_s: 1.1,
            shards: 4,
            max_resident: 64,
            commit_every: 8,
            seed: 42,
        }
    }
}

/// What a hosting run measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostingReport {
    /// Documents the node ended up hosting (those actually touched).
    pub hosted_docs: usize,
    /// Documents warm in memory at the end.
    pub resident_docs: usize,
    /// Resident-set capacity the run was configured with.
    pub max_resident: usize,
    /// Sessions served.
    pub sessions: u64,
    /// Operations applied.
    pub ops_applied: u64,
    /// In-memory index bytes held by resident documents at the end.
    pub resident_bytes: u64,
    /// Cold evictions performed.
    pub evictions: u64,
    /// Documents faulted back in from their stores.
    pub fault_ins: u64,
    /// Backend segment appends (group commit: ~shards × commits).
    pub segment_appends: u64,
    /// Node-wide commits.
    pub commits: u64,
    /// Documents verified intact after recovery (digest readable).
    pub recovered_docs: u64,
}

/// Cumulative-weight Zipf sampler over ranks `0..n` (rank 0 hottest).
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut cumulative = Vec::with_capacity(n.max(1));
        let mut total = 0.0;
        for rank in 0..n.max(1) {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    /// Draws a rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let u: f64 = rng.gen_range(0.0..total);
        // First rank whose cumulative weight exceeds the draw.
        match self
            .cumulative
            .binary_search_by(|w| w.partial_cmp(&u).expect("finite weights"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

/// Runs the scenario and reports the figures (see the module docs).
pub fn run_hosting(scenario: &HostingScenario) -> HostingReport {
    let config = NodeConfig {
        shards: scenario.shards.max(1),
        max_resident: scenario.max_resident.max(1),
        site: 1,
    };
    let mut node = HostingNode::new(config);
    let zipf = Zipf::new(scenario.documents.max(1), scenario.zipf_s);
    let mut rng = StdRng::seed_from_u64(scenario.seed);

    for session_no in 0..scenario.sessions {
        let doc = zipf.sample(&mut rng) as DocId;
        let session = node
            .connect(&format!("user-{session_no}"), doc)
            .expect("connect cannot fail on a healthy node");
        for _ in 0..scenario.ops_per_session {
            let len = node.contents(doc).expect("hosted").chars().count();
            let delete = len > 4 && rng.gen_bool(0.25);
            let pos = rng.gen_range(0..=len.saturating_sub(delete as usize));
            let ch = char::from(b'a' + (rng.gen_range(0..26u32)) as u8);
            if delete {
                node.remove(session, pos.min(len - 1)).expect("in range");
            } else {
                node.insert(session, pos.min(len), ch).expect("in range");
            }
        }
        node.disconnect(session).expect("live session");
        if (session_no + 1) % scenario.commit_every.max(1) == 0 {
            node.commit().expect("commit cannot fail in memory");
        }
    }
    node.commit().expect("final commit");

    let stats = node.stats();
    let hosted_docs = node.hosted_count();
    let resident_docs = node.resident_count();
    let resident_bytes = node.resident_bytes() as u64;
    let segment_appends = node.segment_appends();

    // Crash at the durability boundary, restart, and fault every hosted
    // document back in.
    let hosted: Vec<DocId> = node.hosted();
    let backends = node.backends();
    drop(node);
    let mut node = HostingNode::restart(config, backends).expect("restart over intact shards");
    let mut recovered_docs = 0u64;
    for &doc in &hosted {
        node.digest(doc).expect("fault-in after crash");
        recovered_docs += 1;
    }

    HostingReport {
        hosted_docs,
        resident_docs,
        max_resident: config.max_resident,
        sessions: scenario.sessions as u64,
        ops_applied: stats.ops_applied,
        resident_bytes,
        evictions: stats.evictions,
        fault_ins: stats.fault_ins,
        segment_appends,
        commits: stats.commits,
        recovered_docs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_head_heavy() {
        let zipf = Zipf::new(100, 1.1);
        let mut rng = StdRng::seed_from_u64(7);
        let mut head = 0usize;
        const DRAWS: usize = 2000;
        for _ in 0..DRAWS {
            if zipf.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        assert!(
            head > DRAWS / 2,
            "top 10% of ranks should take most draws, got {head}/{DRAWS}"
        );
    }

    #[test]
    fn hosting_run_bounds_residency_and_recovers_everything() {
        let scenario = HostingScenario {
            documents: 200,
            sessions: 80,
            ops_per_session: 6,
            max_resident: 16,
            ..HostingScenario::default()
        };
        let report = run_hosting(&scenario);
        assert_eq!(report.ops_applied, 80 * 6);
        assert!(report.hosted_docs <= 200);
        assert!(report.resident_docs <= 16);
        assert_eq!(report.recovered_docs as usize, report.hosted_docs);
        assert!(report.evictions > 0, "zipf tail must cause evictions");
        assert!(report.fault_ins > 0, "revisited cold docs must fault in");
        assert!(
            report.segment_appends < report.ops_applied / 4,
            "group commit keeps appends far under one per op: {} vs {}",
            report.segment_appends,
            report.ops_applied
        );
    }
}
