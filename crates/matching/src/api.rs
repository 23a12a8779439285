//! The unified batch-update API: [`BatchDynamic`], [`Batch`]/[`Update`],
//! [`BatchOutcome`], [`UpdateError`], and [`DynamicMatchingBuilder`].
//!
//! The paper's algorithm (Fig. 3/4, Theorem 1.1) processes a *single batch
//! containing both insertions and deletions*. This module makes that the
//! public surface: every maximal-matching maintainer (and the set-cover
//! adapter) implements [`BatchDynamic`], whose one entry point
//! [`BatchDynamic::apply`] consumes a mixed [`Batch`] and returns a
//! [`BatchOutcome`] carrying the assigned ids, the ids actually deleted, and
//! an implementation-specific report.
//!
//! Semantics shared by all implementations:
//!
//! * within one `apply`, **all deletions are processed before all
//!   insertions**, in one settlement round (for [`DynamicMatching`] this is
//!   literally one leveled settlement: the edges freed by deletions and the
//!   fresh insertions share the final greedy round);
//! * `apply` is **strict**: an empty vertex set, an unknown/dead edge id, or
//!   a duplicate deletion makes the whole batch fail with [`UpdateError`]
//!   *before any mutation* — the structure is unchanged on error;
//! * the `k`-th `Insert` in the batch corresponds to
//!   `outcome.inserted[k]`;
//! * the legacy `insert_edges`/`delete_edges` methods remain as thin
//!   wrappers over `apply` with their historical (panicking / tolerant)
//!   behavior.
//!
//! # Example
//! ```
//! use pbdmm_matching::api::{Batch, BatchDynamic};
//! use pbdmm_matching::DynamicMatching;
//!
//! let mut m = DynamicMatching::with_seed(42);
//! let out = m.apply(Batch::new().inserts([vec![0, 1], vec![1, 2]])).unwrap();
//! assert_eq!(out.inserted.len(), 2);
//!
//! // One call, mixed deletions + insertions, one settlement round.
//! let out = m
//!     .apply(Batch::new().delete(out.inserted[0]).insert(vec![2, 3]))
//!     .unwrap();
//! assert_eq!(out.deleted_count(), 1);
//! assert!(pbdmm_matching::verify::check_invariants(&m).is_ok());
//! ```

use std::sync::Arc;

use pbdmm_graph::edge::{normalize_vertices, EdgeId, EdgeVertices};
use pbdmm_primitives::hash::FxHashSet;
use pbdmm_primitives::obs::Recorder;
use pbdmm_primitives::pool::ParPool;

pub use pbdmm_graph::update::{Batch, Update};

use crate::dynamic::DynamicMatching;
use crate::level::LevelingConfig;

/// Why a batch was rejected. `apply` validates the whole batch up front and
/// mutates nothing on error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// An insertion's vertex set was empty after normalization (arity
    /// violation — a hyperedge needs at least one vertex).
    EmptyEdge {
        /// Position of the offending update within the batch.
        index: usize,
    },
    /// A deletion named an id that is not a live edge.
    UnknownEdge {
        /// The unknown id.
        id: EdgeId,
        /// Position of the offending update within the batch.
        index: usize,
    },
    /// The same id was deleted twice within one batch.
    DuplicateDelete {
        /// The duplicated id.
        id: EdgeId,
        /// Position of the second occurrence within the batch.
        index: usize,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::EmptyEdge { index } => {
                write!(f, "update {index}: edge with empty vertex set")
            }
            UpdateError::UnknownEdge { id, index } => {
                write!(f, "update {index}: unknown or dead edge {id}")
            }
            UpdateError::DuplicateDelete { id, index } => {
                write!(f, "update {index}: edge {id} deleted twice in one batch")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// What one `apply` call did: ids assigned to insertions (in batch order),
/// ids actually removed, and the implementation's per-batch report.
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome<R = ()> {
    /// Ids assigned to the batch's insertions, in batch order.
    pub inserted: Vec<EdgeId>,
    /// Ids that were live and are now deleted. Under strict `apply` this is
    /// every requested deletion; under the tolerant legacy wrappers it is
    /// the surviving subset, so callers can reconcile.
    pub deleted: Vec<EdgeId>,
    /// Implementation-specific per-batch report (e.g. settle iterations and
    /// model cost for [`DynamicMatching`]).
    pub report: R,
}

impl<R> BatchOutcome<R> {
    /// Number of edges actually deleted (the count the legacy
    /// `delete_edges -> usize` API used to return).
    pub fn deleted_count(&self) -> usize {
        self.deleted.len()
    }

    /// Total updates applied.
    pub fn len(&self) -> usize {
        self.inserted.len() + self.deleted.len()
    }

    /// Did this batch change nothing?
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.deleted.is_empty()
    }
}

/// Validate a mixed batch against a liveness predicate and split it into
/// normalized insertions (batch order) and deduplicate-checked deletions
/// (batch order). This is the shared strict-validation front end every
/// [`BatchDynamic`] implementation uses; on `Err` the caller must leave its
/// structure untouched.
pub fn validate_batch<F>(
    batch: &Batch,
    mut is_live: F,
) -> Result<(Vec<EdgeVertices>, Vec<EdgeId>), UpdateError>
where
    F: FnMut(EdgeId) -> bool,
{
    let mut inserts = Vec::with_capacity(batch.num_inserts());
    let mut deletes = Vec::with_capacity(batch.num_deletes());
    let mut seen: FxHashSet<EdgeId> = FxHashSet::default();
    for (index, u) in batch.iter().enumerate() {
        match u {
            Update::Insert(vs) => {
                let vs = normalize_vertices(vs.clone()).ok_or(UpdateError::EmptyEdge { index })?;
                inserts.push(vs);
            }
            Update::Delete(id) => {
                if !is_live(*id) {
                    return Err(UpdateError::UnknownEdge { id: *id, index });
                }
                if !seen.insert(*id) {
                    return Err(UpdateError::DuplicateDelete { id: *id, index });
                }
                deletes.push(*id);
            }
        }
    }
    Ok((inserts, deletes))
}

/// The tolerant legacy-delete front end, shared by the trait's default
/// `delete_edges` and `DynamicMatching`'s inherent wrapper so the
/// skip-unknown/skip-duplicate contract lives in exactly one place:
/// keep the ids that are live (per `is_live`), first occurrence only,
/// input order preserved. One copy + one in-place `retain` pass — no
/// per-id allocation, and the seen-set is sized up front so
/// duplicate-heavy batches never rehash.
pub(crate) fn filter_live_dedup<F>(ids: &[EdgeId], mut is_live: F) -> Vec<EdgeId>
where
    F: FnMut(EdgeId) -> bool,
{
    let mut seen: FxHashSet<EdgeId> =
        FxHashSet::with_capacity_and_hasher(ids.len(), Default::default());
    let mut out = ids.to_vec();
    out.retain(|&e| is_live(e) && seen.insert(e));
    out
}

/// A maximal-matching maintainer (or adapter) driven by mixed update
/// batches. This is the seam the whole harness goes through: the workload
/// driver, the CLI, the benchmarks and the experiments all accept any
/// `BatchDynamic` so every contender replays identical streams.
///
/// The legacy split-call surface (`insert_edges` / `delete_edges`) is
/// provided as default methods on top of [`Self::apply`]; prefer `apply`.
pub trait BatchDynamic {
    /// Per-batch report type (e.g. [`crate::BatchReport`]).
    type Report;

    /// Apply one mixed batch: deletions first, then insertions, one
    /// settlement round. Strict — see [`UpdateError`]; the structure is
    /// unchanged on error.
    fn apply(&mut self, batch: Batch) -> Result<BatchOutcome<Self::Report>, UpdateError>;

    /// Current matching size.
    fn matching_size(&self) -> usize;

    /// Is this edge currently in the matching?
    fn is_matched(&self, e: EdgeId) -> bool;

    /// Is this edge currently live?
    fn contains_edge(&self, e: EdgeId) -> bool;

    /// Number of live edges.
    fn num_edges(&self) -> usize;

    /// Total model work charged so far.
    fn work(&self) -> u64;

    /// Attach a phase [`Recorder`]: structures that support per-phase
    /// observability record settlement/publication spans and counters
    /// through it. The default does nothing, so plain adapters (the
    /// baselines, test doubles) need no change.
    fn set_obs(&mut self, _obs: Recorder) {}

    /// Legacy wrapper: insert a batch of edges, returning their ids in input
    /// order.
    ///
    /// # Panics
    /// If any edge has an empty vertex set (the historical contract).
    fn insert_edges(&mut self, batch: &[EdgeVertices]) -> Vec<EdgeId> {
        self.apply(Batch::new().inserts(batch.iter().cloned()))
            .expect("edge with empty vertex set")
            .inserted
    }

    /// Legacy wrapper: delete a batch of edges by id, *tolerantly* —
    /// unknown, dead, and duplicate ids are skipped rather than erroring.
    /// Returns the ids that were actually live and are now deleted, so
    /// callers can reconcile; the count is `returned.len()` (also available
    /// as [`BatchOutcome::deleted_count`] on the `apply` path).
    fn delete_edges(&mut self, ids: &[EdgeId]) -> Vec<EdgeId> {
        let live = filter_live_dedup(ids, |e| self.contains_edge(e));
        self.apply(Batch::new().deletes(live))
            .expect("validated deletions cannot fail")
            .deleted
    }
}

/// Metering mode for [`DynamicMatchingBuilder`]: whether the structure's
/// [`pbdmm_primitives::cost::CostMeter`] records model cost (cheap, on by
/// default) or discards all charges (for wall-clock-only benchmarking).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MeterMode {
    /// Record model work/depth/rounds (the default).
    #[default]
    Enabled,
    /// Discard all charges; `work()` stays 0.
    Disabled,
}

/// Builder for [`DynamicMatching`]: seed, leveling parameters, metering.
///
/// # Examples
/// ```
/// use pbdmm_matching::api::{BatchDynamic, DynamicMatchingBuilder, MeterMode};
/// use pbdmm_matching::LevelingConfig;
///
/// let mut m = DynamicMatchingBuilder::new()
///     .seed(7)
///     .config(LevelingConfig { all_light: true, ..Default::default() })
///     .metering(MeterMode::Disabled)
///     .build();
/// m.insert_edges(&[vec![0, 1]]);
/// assert_eq!(BatchDynamic::work(&m), 0); // metering disabled
/// ```
#[derive(Debug, Clone, Default)]
pub struct DynamicMatchingBuilder {
    seed: Option<u64>,
    config: Option<LevelingConfig>,
    metering: MeterMode,
    pool: Option<Arc<ParPool>>,
    recycle_ids: bool,
    obs: Option<Recorder>,
}

impl DynamicMatchingBuilder {
    /// Start from the paper's defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// The algorithm's private RNG seed (default: a fixed constant).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Leveling parameters (default: the paper's `α = 2`, `c = 4`).
    pub fn config(mut self, config: LevelingConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Model-cost metering mode (default: enabled).
    pub fn metering(mut self, mode: MeterMode) -> Self {
        self.metering = mode;
        self
    }

    /// Pin the structure's batches to an explicit scheduler: every parallel
    /// primitive of a whole `apply` call (settlement, greedy rounds,
    /// semisorts) runs on this pool. Defaults to the process-global pool
    /// (sized by `set_num_threads` / `PBDMM_THREADS`), which is already
    /// persistent — pass a pool here to isolate this structure's work from
    /// other components sharing the process.
    pub fn pool(mut self, pool: Arc<ParPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Recycle deleted edge ids (default: off). With recycling on, freed
    /// ids are reused LIFO by later insertions, keeping the id space — and
    /// therefore the flat storage tables — dense under unbounded churn.
    /// Reuse is deterministic in apply order, so WAL replay of a recycling
    /// structure reproduces the exact same ids; the historical
    /// "ids are never reused" contract only holds with recycling off.
    pub fn recycle_ids(mut self, recycle: bool) -> Self {
        self.recycle_ids = recycle;
        self
    }

    /// Attach a phase [`Recorder`] (default: disabled — zero overhead).
    /// Settlement and snapshot-publication spans plus settle-round /
    /// level-occupancy / scratch-high-water counters record through it;
    /// see [`pbdmm_primitives::obs`].
    pub fn obs(mut self, obs: Recorder) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Build the structure.
    pub fn build(self) -> DynamicMatching {
        let mut dm = DynamicMatching::with_options(
            self.seed.unwrap_or(0x5eed),
            self.config.unwrap_or_default(),
            self.metering,
        );
        if self.recycle_ids {
            dm.set_recycle_ids(true);
        }
        if let Some(pool) = self.pool {
            dm.set_pool(pool);
        }
        if let Some(obs) = self.obs {
            dm.set_obs(obs);
        }
        dm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_invariants;

    #[test]
    fn strict_apply_rejects_and_leaves_structure_untouched() {
        let mut m = DynamicMatching::with_seed(1);
        let ids = m.insert_edges(&[vec![0, 1], vec![1, 2]]);
        let before = m.matching();

        // Unknown id.
        let err = m.apply(Batch::new().delete(EdgeId(999))).unwrap_err();
        assert!(matches!(err, UpdateError::UnknownEdge { .. }));
        // Duplicate delete.
        let err = m.apply(Batch::new().deletes([ids[0], ids[0]])).unwrap_err();
        assert!(matches!(err, UpdateError::DuplicateDelete { .. }));
        // Empty edge.
        let err = m.apply(Batch::new().insert(vec![])).unwrap_err();
        assert_eq!(err, UpdateError::EmptyEdge { index: 0 });
        // Mixed batch failing late still mutates nothing.
        let err = m
            .apply(Batch::new().insert(vec![5, 6]).delete(EdgeId(999)))
            .unwrap_err();
        assert!(matches!(err, UpdateError::UnknownEdge { .. }));

        assert_eq!(m.num_edges(), 2);
        assert_eq!(m.matching(), before);
        check_invariants(&m).unwrap();
    }

    #[test]
    fn error_messages_name_the_violation() {
        let e = UpdateError::EmptyEdge { index: 3 };
        assert!(e.to_string().contains("empty vertex set"));
        let e = UpdateError::UnknownEdge {
            id: EdgeId(7),
            index: 0,
        };
        assert!(e.to_string().contains("unknown"));
        let e = UpdateError::DuplicateDelete {
            id: EdgeId(7),
            index: 1,
        };
        assert!(e.to_string().contains("twice"));
    }

    #[test]
    fn validate_batch_splits_in_order() {
        let batch = Batch::new()
            .insert(vec![3, 1])
            .delete(EdgeId(0))
            .insert(vec![2]);
        let (ins, del) = validate_batch(&batch, |_| true).unwrap();
        assert_eq!(ins, vec![vec![1, 3], vec![2]]); // normalized
        assert_eq!(del, vec![EdgeId(0)]);
    }

    #[test]
    fn builder_configures_everything() {
        let m = DynamicMatchingBuilder::new()
            .seed(9)
            .config(LevelingConfig {
                gap_log2: 2,
                ..Default::default()
            })
            .build();
        assert_eq!(m.structure().config.gap_log2, 2);

        let mut muted = DynamicMatchingBuilder::new()
            .metering(MeterMode::Disabled)
            .build();
        muted.insert_edges(&[vec![0, 1], vec![1, 2]]);
        assert_eq!(muted.meter().work(), 0);
        check_invariants(&muted).unwrap();
    }

    #[test]
    fn trait_wrappers_match_inherent_behavior() {
        let mut m = DynamicMatching::with_seed(3);
        let ids = BatchDynamic::insert_edges(&mut m, &[vec![0, 1], vec![1, 2]]);
        assert_eq!(ids.len(), 2);
        // Tolerant deletes skip unknown/duplicate ids.
        let gone = BatchDynamic::delete_edges(&mut m, &[ids[0], ids[0], EdgeId(99)]);
        assert_eq!(gone, vec![ids[0]]);
        assert_eq!(m.num_edges(), 1);
    }
}
