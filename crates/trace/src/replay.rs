//! The replay / measurement harness (§5 of the paper).
//!
//! [`replay_treedoc`] rebuilds a revision history on a Treedoc replica: the
//! first revision becomes the initial document, then every later revision is
//! diffed against its predecessor and the resulting insert/delete operations
//! are applied (a modified atom = delete + insert). The harness records the
//! per-revision node counts (Figure 6) and the final overhead statistics
//! (Tables 1, 3, 4), including the on-disk size of the §5.2 heap-array
//! image (`treedoc-reference`).
//!
//! [`replay_logoot`] replays the same history on the Logoot baseline and
//! reports its identifier sizes (Table 5).

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use logoot::{AllocationStrategy, LogootDoc, LogootStats};
use treedoc_core::{
    Disambiguator, DocStats, HasSource, MemoryModel, Sdis, SiteId, Treedoc, TreedocConfig, Udis,
    WireDis,
};
use treedoc_reference::{DiskImage, Tree};

use crate::diff::{diff_lines, DiffHunk};
use crate::history::History;

/// Which disambiguator design to replay with (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DisChoice {
    /// Site-only disambiguators; deletes leave tombstones.
    Sdis,
    /// (counter, site) disambiguators; deletes discard nodes eagerly.
    Udis,
}

/// Replay configuration: one cell of the paper's evaluation grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayConfig {
    /// Disambiguator design.
    pub dis: DisChoice,
    /// §4.1 balancing strategies on or off.
    pub balancing: bool,
    /// Flatten heuristic: compact cold regions every `k` revisions
    /// (`None` = never flatten). The paper evaluates `None`, 1, 2 and 8.
    pub flatten_every: Option<usize>,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            dis: DisChoice::Sdis,
            balancing: false,
            flatten_every: None,
        }
    }
}

impl ReplayConfig {
    /// Compact human-readable label (used by the bench harness output).
    pub fn label(&self) -> String {
        format!(
            "{}{}{}",
            match self.dis {
                DisChoice::Sdis => "SDIS",
                DisChoice::Udis => "UDIS",
            },
            if self.balancing { "+bal" } else { "" },
            match self.flatten_every {
                None => "/no-flatten".to_string(),
                Some(k) => format!("/flatten-{k}"),
            }
        )
    }
}

/// One point of the Figure 6 time series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RevisionPoint {
    /// Revision number (0-based).
    pub revision: usize,
    /// Occupied tree slots after replaying the revision.
    pub total_nodes: usize,
    /// Live atoms.
    pub live_nodes: usize,
    /// Tombstones.
    pub tombstones: usize,
    /// Maximum identifier size so far, in bits.
    pub max_pos_id_bits: usize,
}

/// Everything measured while replaying one history under one configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplayReport {
    /// Document name.
    pub name: String,
    /// The configuration replayed.
    pub config: ReplayConfig,
    /// Per-revision time series (Figure 6).
    pub timeline: Vec<RevisionPoint>,
    /// Final-state statistics (Table 1, 3, 4 inputs).
    pub final_stats: DocStats,
    /// Total insert operations executed.
    pub inserts: usize,
    /// Total delete operations executed.
    pub deletes: usize,
    /// Number of flatten rounds that actually compacted something.
    pub flattens: usize,
    /// On-disk structure size of the final state, in bytes (Table 1
    /// "On-disk overhead").
    pub disk_overhead_bytes: usize,
    /// Final document content size in bytes.
    pub document_bytes: usize,
    /// Wall-clock time spent replaying (the paper's §5.2 CPU-cost claim).
    pub elapsed: Duration,
}

impl ReplayReport {
    /// In-memory overhead in bytes under the paper's 26-byte node model.
    pub fn memory_bytes(&self) -> usize {
        self.final_stats.total_nodes * 26
    }

    /// In-memory overhead relative to the document size (Table 1 "Mem ovhd").
    pub fn memory_overhead_ratio(&self) -> f64 {
        if self.document_bytes == 0 {
            0.0
        } else {
            self.memory_bytes() as f64 / self.document_bytes as f64
        }
    }

    /// On-disk overhead relative to the document size (Table 1 "% doc").
    pub fn disk_overhead_ratio(&self) -> f64 {
        if self.document_bytes == 0 {
            0.0
        } else {
            self.disk_overhead_bytes as f64 / self.document_bytes as f64
        }
    }

    /// Fraction of non-tombstone nodes (Table 1 "% non-Tomb").
    pub fn non_tombstone_fraction(&self) -> f64 {
        self.final_stats.non_tombstone_fraction()
    }

    /// Identifier overhead per live atom, in bits (Table 4 "overhead/atom").
    pub fn overhead_per_atom_bits(&self) -> f64 {
        self.final_stats.pos_ids.overhead_per_atom_bits()
    }

    /// Average identifier size over stored nodes, in bits (Table 1 / 4).
    pub fn avg_pos_id_bits(&self) -> f64 {
        self.final_stats.pos_ids.avg_bits()
    }

    /// Total identifier bytes over live atoms (the quantity compared against
    /// Logoot in Table 5).
    pub fn live_pos_id_bytes(&self) -> usize {
        self.final_stats.pos_ids.live_bits.div_ceil(8)
    }

    /// In-memory overhead under an arbitrary model.
    pub fn memory_bytes_model(&self, model: MemoryModel) -> usize {
        match self.config.dis {
            DisChoice::Sdis => self.final_stats.memory_bytes::<Sdis>(model),
            DisChoice::Udis => self.final_stats.memory_bytes::<Udis>(model),
        }
    }
}

/// Replays `history` on a Treedoc replica under `config`.
pub fn replay_treedoc(history: &History, config: ReplayConfig) -> ReplayReport {
    match config.dis {
        DisChoice::Sdis => replay_generic::<Sdis>(history, config),
        DisChoice::Udis => replay_generic::<Udis>(history, config),
    }
}

fn replay_generic<D: WireDis + HasSource>(history: &History, config: ReplayConfig) -> ReplayReport {
    let start = Instant::now();
    let site = SiteId::from_u64(1);
    let doc_config = if config.balancing {
        TreedocConfig::balanced()
    } else {
        TreedocConfig::default()
    };
    let empty: Vec<String> = Vec::new();
    let initial = history.revisions.first().unwrap_or(&empty);
    let mut doc: Treedoc<String, D> = Treedoc::from_atoms_with_config(site, initial, doc_config);

    let mut report = ReplayReport {
        name: history.name.clone(),
        config,
        timeline: Vec::with_capacity(history.revision_count()),
        final_stats: doc.stats(),
        inserts: initial.len(),
        deletes: 0,
        flattens: 0,
        disk_overhead_bytes: 0,
        document_bytes: 0,
        elapsed: Duration::ZERO,
    };
    record_point(&mut report, 0, &doc);

    for (rev_index, window) in history.revisions.windows(2).enumerate() {
        let revision = rev_index + 1;
        doc.next_revision();
        let hunks = diff_lines(&window[0], &window[1]);
        apply_hunks(&mut doc, &hunks, &mut report);

        if let Some(every) = config.flatten_every {
            if every > 0 && revision % every == 0 {
                let threshold = doc.revision().saturating_sub(every as u64);
                let outcomes = doc.flatten_cold(threshold, 2);
                report.flattens += outcomes
                    .iter()
                    .filter(|o| matches!(o, treedoc_core::FlattenOutcome::Flattened { .. }))
                    .count();
            }
        }

        record_point(&mut report, revision, &doc);
        debug_assert_eq!(
            doc.to_vec(),
            window[1],
            "replayed content must match the revision"
        );
    }

    report.final_stats = doc.stats();
    report.document_bytes = report.final_stats.document_bytes;
    let image = DiskImage::encode(&Tree::of_doc(&doc));
    report.disk_overhead_bytes = image.structure_bytes();
    report.elapsed = start.elapsed();
    report
}

fn apply_hunks<D: Disambiguator + HasSource>(
    doc: &mut Treedoc<String, D>,
    hunks: &[DiffHunk],
    report: &mut ReplayReport,
) {
    let mut cursor = 0usize;
    for hunk in hunks {
        match hunk {
            DiffHunk::Keep(n) => cursor += n,
            DiffHunk::Delete(n) => {
                for _ in 0..*n {
                    doc.local_delete(cursor).expect("diff cursor within bounds");
                    report.deletes += 1;
                }
            }
            DiffHunk::Insert(lines) => {
                doc.local_insert_batch(cursor, lines)
                    .expect("diff cursor within bounds");
                report.inserts += lines.len();
                cursor += lines.len();
            }
        }
    }
}

fn record_point<D: Disambiguator + HasSource>(
    report: &mut ReplayReport,
    revision: usize,
    doc: &Treedoc<String, D>,
) {
    let stats = doc.stats();
    report.timeline.push(RevisionPoint {
        revision,
        total_nodes: stats.total_nodes,
        live_nodes: stats.live_atoms,
        tombstones: stats.tombstones,
        max_pos_id_bits: stats.pos_ids.max_bits,
    });
}

/// Allocation parameters for the Logoot baseline.
///
/// The Treedoc paper fixes the *size* of a Logoot unique identifier at 10
/// bytes (the same as UDIS) but not the per-level digit base of the Logoot
/// implementation it measured. The default here uses a small per-level space
/// (the original Logoot design allocates within a bounded per-level base, not
/// a full 32-bit word) together with the boundary strategy, which is what
/// makes Logoot identifiers deepen — and therefore grow — under localized
/// editing; see EXPERIMENTS.md for the sensitivity of Table 5 to this choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogootParams {
    /// Digit allocation strategy.
    pub strategy: AllocationStrategy,
    /// Per-level digit base.
    pub digit_span: u32,
}

impl Default for LogootParams {
    fn default() -> Self {
        LogootParams {
            strategy: AllocationStrategy::Boundary(16),
            digit_span: 4096,
        }
    }
}

/// Result of replaying a history on the Logoot baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogootReport {
    /// Document name.
    pub name: String,
    /// Final identifier statistics.
    pub final_stats: LogootStats,
    /// Total insert operations executed.
    pub inserts: usize,
    /// Total delete operations executed.
    pub deletes: usize,
    /// Wall-clock replay time.
    pub elapsed: Duration,
}

impl LogootReport {
    /// Total identifier bytes over live atoms (Table 5 numerator).
    pub fn total_id_bytes(&self) -> usize {
        self.final_stats.total_id_bytes
    }
}

/// Replays `history` on a Logoot replica with the default comparison
/// parameters (Table 5's baseline).
pub fn replay_logoot(history: &History) -> LogootReport {
    replay_logoot_with(history, LogootParams::default())
}

/// Replays `history` on a Logoot replica with explicit allocation parameters.
pub fn replay_logoot_with(history: &History, params: LogootParams) -> LogootReport {
    let start = Instant::now();
    let mut doc: LogootDoc<String> = LogootDoc::with_params(1, params.strategy, params.digit_span);
    let empty: Vec<String> = Vec::new();
    let initial = history.revisions.first().unwrap_or(&empty);
    for (i, line) in initial.iter().enumerate() {
        doc.local_insert(i, line.clone());
    }
    let mut inserts = initial.len();
    let mut deletes = 0;

    for window in history.revisions.windows(2) {
        let hunks = diff_lines(&window[0], &window[1]);
        let mut cursor = 0usize;
        for hunk in &hunks {
            match hunk {
                DiffHunk::Keep(n) => cursor += n,
                DiffHunk::Delete(n) => {
                    for _ in 0..*n {
                        doc.local_delete(cursor).expect("diff cursor within bounds");
                        deletes += 1;
                    }
                }
                DiffHunk::Insert(lines) => {
                    for (k, line) in lines.iter().enumerate() {
                        doc.local_insert(cursor + k, line.clone())
                            .expect("cursor within bounds");
                        inserts += 1;
                    }
                    cursor += lines.len();
                }
            }
        }
        debug_assert_eq!(doc.to_vec(), window[1]);
    }

    LogootReport {
        name: history.name.clone(),
        final_stats: doc.stats(),
        inserts,
        deletes,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{paper_corpus, DocumentKind, DocumentSpec};

    fn small_spec() -> DocumentSpec {
        DocumentSpec {
            name: "small.tex".into(),
            kind: DocumentKind::Latex,
            initial_units: 20,
            final_units: 60,
            revisions: 12,
            target_bytes: 2_400,
            vandalism: false,
            seed: 99,
        }
    }

    #[test]
    fn replay_reproduces_the_final_revision() {
        let history = small_spec().generate();
        for config in [
            ReplayConfig::default(),
            ReplayConfig {
                dis: DisChoice::Udis,
                ..Default::default()
            },
            ReplayConfig {
                balancing: true,
                flatten_every: Some(2),
                ..Default::default()
            },
            ReplayConfig {
                dis: DisChoice::Udis,
                balancing: true,
                flatten_every: Some(1),
            },
        ] {
            let report = replay_treedoc(&history, config);
            assert_eq!(
                report.final_stats.live_atoms,
                history.final_len(),
                "config {}",
                config.label()
            );
            assert_eq!(report.timeline.len(), history.revision_count());
            assert!(report.inserts >= history.final_len());
        }
    }

    #[test]
    fn sdis_without_flatten_accumulates_tombstones() {
        let history = small_spec().generate();
        let report = replay_treedoc(&history, ReplayConfig::default());
        assert!(report.final_stats.tombstones > 0);
        assert!(report.non_tombstone_fraction() < 1.0);
    }

    #[test]
    fn udis_never_stores_tombstones() {
        let history = small_spec().generate();
        let report = replay_treedoc(
            &history,
            ReplayConfig {
                dis: DisChoice::Udis,
                ..Default::default()
            },
        );
        assert_eq!(report.final_stats.tombstones, 0);
    }

    #[test]
    fn aggressive_flattening_reduces_overhead() {
        let history = small_spec().generate();
        let none = replay_treedoc(&history, ReplayConfig::default());
        let aggressive = replay_treedoc(
            &history,
            ReplayConfig {
                flatten_every: Some(1),
                ..Default::default()
            },
        );
        assert!(aggressive.flattens > 0);
        assert!(
            aggressive.final_stats.total_nodes <= none.final_stats.total_nodes,
            "flatten-1 must not store more nodes than no-flatten"
        );
        assert!(aggressive.avg_pos_id_bits() <= none.avg_pos_id_bits());
    }

    #[test]
    fn balancing_shortens_identifiers() {
        let history = small_spec().generate();
        let plain = replay_treedoc(&history, ReplayConfig::default());
        let balanced = replay_treedoc(
            &history,
            ReplayConfig {
                balancing: true,
                ..Default::default()
            },
        );
        assert!(
            balanced.final_stats.pos_ids.max_bits <= plain.final_stats.pos_ids.max_bits,
            "balancing must not lengthen the worst identifier"
        );
    }

    #[test]
    fn logoot_replay_matches_content_and_reports_sizes() {
        let history = small_spec().generate();
        let report = replay_logoot(&history);
        assert_eq!(report.final_stats.atoms, history.final_len());
        assert!(report.total_id_bytes() >= history.final_len() * 10);
        assert!(report.inserts > 0);
    }

    #[test]
    fn logoot_identifiers_deepen_under_localized_insertion() {
        // A run of lines repeatedly inserted into the same gap exhausts the
        // per-level digit space and forces extra Logoot layers; Treedoc pays
        // one extra *bit* per level instead. This is the mechanism behind the
        // Table 5 comparison (the full-corpus numbers are produced by the
        // bench harness).
        let base: Vec<String> = (0..10).map(|i| format!("base {i}")).collect();
        let mut burst = base.clone();
        for k in 0..300 {
            burst.insert(5 + k, format!("burst {k}"));
        }
        let history = History::new("burst", vec![base, burst]);
        let logoot = replay_logoot(&history);
        let per_atom = logoot.total_id_bytes() as f64 / logoot.final_stats.atoms as f64;
        assert!(
            per_atom > 15.0,
            "expected multi-layer Logoot identifiers, got {per_atom:.1} bytes/atom"
        );
        // Treedoc with balancing keeps the same burst logarithmic.
        let treedoc = replay_treedoc(
            &history,
            ReplayConfig {
                dis: DisChoice::Udis,
                balancing: true,
                flatten_every: None,
            },
        );
        assert!(
            (treedoc.live_pos_id_bytes() as f64) < logoot.total_id_bytes() as f64,
            "Treedoc {} bytes vs Logoot {} bytes",
            treedoc.live_pos_id_bytes(),
            logoot.total_id_bytes()
        );
    }

    #[test]
    fn timeline_tracks_flatten_drops() {
        // A deterministic history where a whole region is deleted early and
        // editing then moves elsewhere: once the deleted region goes cold the
        // flatten heuristic reclaims its tombstones, which must show up as a
        // drop in the Figure 6 time series.
        let rev0: Vec<String> = (0..40).map(|i| format!("line {i}")).collect();
        let rev1: Vec<String> = rev0[20..].to_vec(); // delete the first half
        let mut revisions = vec![rev0, rev1.clone()];
        let mut tail = rev1;
        for r in 0..6 {
            tail.push(format!("appended {r}"));
            revisions.push(tail.clone());
        }
        let history = History::new("cold-prefix", revisions);
        let report = replay_treedoc(
            &history,
            ReplayConfig {
                flatten_every: Some(2),
                ..Default::default()
            },
        );
        let drops = report
            .timeline
            .windows(2)
            .filter(|w| w[1].total_nodes < w[0].total_nodes)
            .count();
        assert!(
            drops > 0,
            "expected at least one compaction drop in the timeline"
        );
        assert!(report.flattens > 0);
    }

    #[test]
    fn config_labels_are_readable() {
        assert_eq!(ReplayConfig::default().label(), "SDIS/no-flatten");
        let c = ReplayConfig {
            dis: DisChoice::Udis,
            balancing: true,
            flatten_every: Some(8),
        };
        assert_eq!(c.label(), "UDIS+bal/flatten-8");
    }

    #[test]
    #[ignore = "full corpus replay is exercised by the bench harness; run explicitly with --ignored"]
    fn full_corpus_replays_cleanly() {
        for spec in paper_corpus() {
            let history = spec.generate();
            let report = replay_treedoc(&history, ReplayConfig::default());
            assert_eq!(report.final_stats.live_atoms, history.final_len());
        }
    }
}
