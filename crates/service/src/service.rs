//! The concurrent ingest/serve engine: [`UpdateService`].
//!
//! Many producer threads submit single [`Update`]s through a cloneable
//! [`ServiceHandle`] (an MPSC ingress); one coalescer thread owns the
//! structure, forms valid mixed batches under a [`CoalescePolicy`], appends
//! each formed batch to the durable WAL **before** applying it, drives
//! `apply` on a pinned [`ParPool`], and completes each submitter's
//! [`Ticket`] with its slice of the [`BatchOutcome`] (the id its insertion
//! was assigned, or the id it deleted), computed slot-wise so the hot path
//! never clones the batch.
//!
//! [`BatchOutcome`]: pbdmm_matching::api::BatchOutcome

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use pbdmm_graph::edge::{EdgeId, EdgeVertices};
use pbdmm_graph::update::{Batch, Update};
use pbdmm_graph::wal::{self, WalMeta};
use pbdmm_matching::api::{BatchDynamic, UpdateError};
use pbdmm_matching::checkpoint::Checkpoint;
use pbdmm_matching::snapshot::{Snapshot, SnapshotReader, Snapshots};
use pbdmm_primitives::obs::{Counter, Phase, Recorder};
use pbdmm_primitives::pool::ParPool;

use crate::coalesce::{plan_batch, CoalescePolicy, Slot};
use crate::replay::{
    ckpt_path, list_wal_dir, recover_dir_with, segment_path, Recovery, RecoveryInfo,
};

/// Why a single submitted update failed. Per-update: one bad submission
/// never poisons the batch it was coalesced into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The deletion named an id that is not a live edge.
    UnknownEdge(EdgeId),
    /// The insertion's vertex set was empty.
    EmptyEdge,
    /// The whole batch was rejected by the structure (defensive: the
    /// coalescer pre-validates, so this indicates a planner/structure
    /// disagreement).
    Rejected(UpdateError),
    /// The WAL append failed; the batch was **not** applied (write-ahead
    /// durability: no un-logged mutation).
    Wal(String),
    /// The service shut down before this update was applied.
    Closed,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownEdge(id) => write!(f, "unknown or dead edge {id}"),
            ServiceError::EmptyEdge => write!(f, "edge with empty vertex set"),
            ServiceError::Rejected(e) => write!(f, "batch rejected: {e}"),
            ServiceError::Wal(e) => write!(f, "WAL append failed: {e}"),
            ServiceError::Closed => write!(f, "service closed"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// What a submitted update resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Done {
    /// The insertion was applied and assigned this id.
    Inserted(EdgeId),
    /// The deletion was applied; the edge is gone.
    Deleted(EdgeId),
    /// An earlier update in the same batch already deleted this id; the
    /// edge is gone all the same (idempotent coalesced delete).
    AlreadyDeleted(EdgeId),
}

impl Done {
    /// The edge id this update resolved to.
    pub fn id(&self) -> EdgeId {
        match self {
            Done::Inserted(id) | Done::Deleted(id) | Done::AlreadyDeleted(id) => *id,
        }
    }
}

/// A completed update: what happened, plus the global apply-order sequence
/// number. Sorting the completions whose `done` is [`Done::Inserted`] or
/// [`Done::Deleted`] by `seq` yields a valid linearization: re-applying
/// those updates sequentially in that order reproduces an equivalent state
/// (the property the service's tests check). [`Done::AlreadyDeleted`]
/// completions are *coalesced* updates — they share the `seq` of the delete
/// that held the batch slot and must be skipped when re-applying, since
/// their edge is already gone at that point in the order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Position of this update in the service's global apply order.
    /// Coalesced duplicate deletes share the sequence number of the delete
    /// that held the batch slot.
    pub seq: u64,
    /// The epoch at which this update's batch became **visible** on the
    /// snapshot read path (shared by every ticket of the batch).
    ///
    /// For a service started with [`ServiceBuilder::start_serving`] this is
    /// the *structure's* update count right after the batch applied (the
    /// service captures the structure's pre-existing epoch at start and
    /// offsets by it), and the snapshot carrying this batch is published
    /// *before* the ticket completes — so a reader consulted after
    /// `wait()` returns never observes
    /// `QueryHandle::epoch() < completion.epoch`: read your writes.
    ///
    /// For a plain [`ServiceBuilder::start`] (no read path, so no
    /// `Snapshots` bound to ask the structure through) the base is 0:
    /// epochs then count updates applied *through this service*, which
    /// coincides with the structure's epoch exactly when the structure
    /// started fresh.
    pub epoch: u64,
    /// What the update resolved to.
    pub done: Done,
}

/// The submitter's side of one in-flight update: blocks until the batch
/// containing it commits (or rejects it).
#[derive(Debug)]
pub struct Ticket(mpsc::Receiver<Result<Completion, ServiceError>>);

impl Ticket {
    /// Block until the update is applied (or rejected / the service closes).
    pub fn wait(self) -> Result<Completion, ServiceError> {
        match self.0.recv() {
            Ok(r) => r,
            Err(mpsc::RecvError) => Err(ServiceError::Closed),
        }
    }
}

/// One queued request: the update plus its completion channel.
struct Req {
    op: Update,
    done: mpsc::Sender<Result<Completion, ServiceError>>,
}

/// What flows through the ingress: updates, or the shutdown marker
/// [`UpdateService::shutdown`] enqueues so it never deadlocks on a
/// still-alive [`ServiceHandle`].
enum Msg {
    Update(Req),
    Shutdown,
}

/// The cloneable producer side of an [`UpdateService`]: submit single
/// updates from any thread; each returns a [`Ticket`].
#[derive(Clone)]
pub struct ServiceHandle {
    tx: mpsc::Sender<Msg>,
}

impl ServiceHandle {
    /// Submit one update. Never blocks (the ingress is unbounded); the
    /// returned ticket resolves when the batch containing the update
    /// commits.
    pub fn submit(&self, op: Update) -> Ticket {
        let (done, rx) = mpsc::channel();
        if let Err(mpsc::SendError(Msg::Update(req))) = self.tx.send(Msg::Update(Req { op, done }))
        {
            // The coalescer is gone; resolve the ticket immediately.
            let _ = req.done.send(Err(ServiceError::Closed));
        }
        Ticket(rx)
    }

    /// Submit an insertion of a hyperedge over `vertices`.
    pub fn insert(&self, vertices: EdgeVertices) -> Ticket {
        self.submit(Update::Insert(vertices))
    }

    /// Submit a deletion of the live edge `id`.
    pub fn delete(&self, id: EdgeId) -> Ticket {
        self.submit(Update::Delete(id))
    }
}

/// Counters the coalescer keeps; returned by [`UpdateService::shutdown`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceStats {
    /// Updates applied to the structure (insertions + deletions; excludes
    /// coalesced duplicates and rejects).
    pub updates: u64,
    /// Batches applied.
    pub batches: u64,
    /// Batches closed because they reached `max_batch`.
    pub flush_full: u64,
    /// Batches closed because the linger window (`max_delay`) expired.
    pub flush_timer: u64,
    /// Batches closed by group commit: the ingress went momentarily empty
    /// (only in `max_delay == 0` mode).
    pub flush_idle: u64,
    /// Batches closed because the service was shutting down (final drain).
    pub flush_close: u64,
    /// Duplicate in-batch deletes coalesced away.
    pub dup_deletes: u64,
    /// Individually rejected updates (unknown id / empty vertex set).
    pub rejected: u64,
    /// Largest batch applied.
    pub max_batch_len: usize,
    /// Batches appended to the WAL (0 when no WAL is configured).
    pub wal_batches: u64,
    /// Checkpoints made durable (WAL with a checkpoint interval).
    pub checkpoints: u64,
    /// Checkpoint writes that failed (the service keeps running — a missed
    /// checkpoint only means recovery replays a longer tail).
    pub checkpoint_failures: u64,
    /// Old WAL segments deleted by compaction.
    pub wal_segments_removed: u64,
}

impl ServiceStats {
    /// Mean updates per applied batch — the coalescing factor.
    pub fn mean_batch_len(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.updates as f64 / self.batches as f64
        }
    }
}

/// Durable-log configuration for an [`UpdateService`].
///
/// The log is a directory of numbered `NNNNNN.seg` files (each a
/// self-contained WAL whose `# base:` header carries its first batch seq)
/// plus `NNNNNN.ckpt` checkpoints at segment boundaries. Recovery loads the
/// newest intact checkpoint and replays only the tail segments after it.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// The segment directory.
    pub path: PathBuf,
    /// Header metadata — record the structure kind and seed so
    /// [`crate::replay`] can rebuild an identically-seeded instance.
    pub meta: WalMeta,
    /// `fsync` after every appended batch (durability against power loss,
    /// not just process crash). Default `false`: flush to the OS only.
    pub sync: bool,
    /// Overwrite existing log content at `path`. Default `false`: a fresh
    /// start refuses rather than silently destroying a previous run's log —
    /// the artifact crash recovery depends on. Set it only for scratch logs.
    pub truncate: bool,
    /// Take a checkpoint (and rotate the segment) after at least this many
    /// updates, provided the structure supports checkpointing. `None`
    /// disables rotation — one segment, full-replay recovery.
    pub checkpoint_every: Option<u64>,
}

impl WalConfig {
    /// A flush-only (no fsync), overwrite-refusing WAL directory at `path`
    /// with checkpoint/compaction enabled at the default interval (see
    /// [`WalConfig::DEFAULT_CHECKPOINT_EVERY`]).
    pub fn dir(path: impl Into<PathBuf>, meta: WalMeta) -> Self {
        WalConfig {
            path: path.into(),
            meta,
            sync: false,
            truncate: false,
            checkpoint_every: Some(Self::DEFAULT_CHECKPOINT_EVERY),
        }
    }

    /// Default checkpoint interval for [`WalConfig::dir`], in updates.
    pub const DEFAULT_CHECKPOINT_EVERY: u64 = 65_536;
}

/// Service configuration: batching policy, optional WAL, optional pinned
/// scheduler. Construct through [`ServiceConfig::builder`] — the struct
/// remains public for inspection and for code that stores a config.
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Size/latency batching policy.
    pub policy: CoalescePolicy,
    /// Durable write-ahead log (None: in-memory only).
    pub wal: Option<WalConfig>,
    /// Scheduler every `apply` runs on (None: the process-global pool).
    pub pool: Option<Arc<ParPool>>,
    /// Phase recorder for per-phase observability (disabled by default —
    /// a disabled recorder is a no-op branch per phase). The coalescer
    /// records plan/WAL/apply/complete spans plus batch/flush counters
    /// through it, and the structure it starts inherits it via
    /// [`BatchDynamic::set_obs`].
    pub obs: Recorder,
}

impl ServiceConfig {
    /// The one construction surface for services: configure policy, WAL
    /// directory, fsync, checkpoint interval, and scheduler, then call a
    /// terminal ([`ServiceBuilder::start`], [`ServiceBuilder::start_serving`],
    /// [`ServiceBuilder::recover_and_start_serving`], …) to get a running
    /// service — and, for the `serving` terminals, its [`QueryHandle`] — in
    /// one call.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::default()
    }
}

/// Builder for a running [`UpdateService`]; see [`ServiceConfig::builder`].
///
/// ```
/// use pbdmm_matching::DynamicMatching;
/// use pbdmm_service::ServiceConfig;
///
/// let (svc, query) = ServiceConfig::builder()
///     .start_serving(DynamicMatching::with_seed(7))
///     .unwrap();
/// svc.handle().insert(vec![0, 1]).wait().unwrap();
/// assert!(query.snapshot().is_matched(0));
/// svc.shutdown();
/// ```
#[derive(Debug, Clone, Default)]
pub struct ServiceBuilder {
    policy: CoalescePolicy,
    pool: Option<Arc<ParPool>>,
    wal: Option<WalConfig>,
    sync: bool,
    truncate: bool,
    /// `Some(override)` once [`Self::checkpoint_every`] was called;
    /// otherwise the [`WalConfig`]'s own interval stands.
    checkpoint_every: Option<Option<u64>>,
    /// Phase recorder shared by the coalescer and the structure.
    obs: Recorder,
}

/// What [`ServiceBuilder::recover_and_start_serving`] yields: the resumed
/// service, the snapshot read handle, and the recovery report.
pub type ServingRecovery<S> = (
    UpdateService<S>,
    QueryHandle<<S as Snapshots>::Snap>,
    RecoveryInfo,
);

impl ServiceBuilder {
    /// Size/latency batching policy (default: [`CoalescePolicy::default`]).
    pub fn policy(mut self, policy: CoalescePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Pin every `apply` to this scheduler (default: process-global pool).
    pub fn pool(mut self, pool: Arc<ParPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attach a phase [`Recorder`] (default: disabled, zero overhead).
    /// The coalescer records per-batch plan / WAL-append / apply /
    /// complete spans and batch-size/flush-cause counters; the structure
    /// inherits the recorder through [`BatchDynamic::set_obs`], so
    /// settlement and snapshot-publication time nest under apply. Snapshot
    /// the same recorder at any time for a live per-phase breakdown.
    pub fn obs(mut self, obs: Recorder) -> Self {
        self.obs = obs;
        self
    }

    /// Log batches to a WAL segment directory with checkpointing and
    /// compaction (see [`WalConfig::dir`]). Recovery loads the newest
    /// intact checkpoint and replays only the tail segments.
    pub fn wal_dir(mut self, path: impl Into<PathBuf>, meta: WalMeta) -> Self {
        self.wal = Some(WalConfig::dir(path, meta));
        self
    }

    /// Adopt a fully-specified [`WalConfig`] (escape hatch; its `sync` /
    /// `truncate` / `checkpoint_every` become the builder's).
    pub fn wal(mut self, cfg: WalConfig) -> Self {
        self.sync = cfg.sync;
        self.truncate = cfg.truncate;
        self.checkpoint_every = Some(cfg.checkpoint_every);
        self.wal = Some(cfg);
        self
    }

    /// `fsync` each appended batch (default off: flush to the OS only).
    /// Order-independent with respect to `wal_dir`.
    pub fn wal_sync(mut self, sync: bool) -> Self {
        self.sync = sync;
        self
    }

    /// Overwrite existing log content instead of refusing (scratch logs
    /// only — see [`WalConfig::truncate`]).
    pub fn wal_truncate(mut self, truncate: bool) -> Self {
        self.truncate = truncate;
        self
    }

    /// Checkpoint + rotate the WAL segment after at least this many
    /// updates; `0` disables checkpointing (one segment, full-replay
    /// recovery). Default: [`WalConfig::DEFAULT_CHECKPOINT_EVERY`].
    pub fn checkpoint_every(mut self, updates: u64) -> Self {
        self.checkpoint_every = Some((updates > 0).then_some(updates));
        self
    }

    /// The [`ServiceConfig`] this builder currently describes.
    pub fn config(&self) -> ServiceConfig {
        let mut wal = self.wal.clone();
        if let Some(w) = wal.as_mut() {
            w.sync = self.sync;
            w.truncate = self.truncate;
            if let Some(every) = self.checkpoint_every {
                w.checkpoint_every = every;
            }
        }
        ServiceConfig {
            policy: self.policy,
            wal,
            pool: self.pool.clone(),
            obs: self.obs.clone(),
        }
    }

    /// Terminal: start the service (write path only).
    pub fn start<S>(self, structure: S) -> Result<UpdateService<S>, ServiceError>
    where
        S: BatchDynamic + Checkpoint + Send + 'static,
    {
        let config = self.config();
        let ckpt_fn = ckpt_fn_for(&config, &structure);
        UpdateService::start_inner(structure, config, 0, None, ckpt_fn)
    }

    /// Terminal: start the service **with the snapshot read path
    /// enabled**: the structure publishes an epoch-versioned snapshot after
    /// every applied batch (and once immediately, so readers never find the
    /// cell empty), and the returned [`QueryHandle`] — cloneable across any
    /// number of reader threads — resolves queries against the latest one
    /// without blocking the coalescer.
    ///
    /// Ordering guarantee: a batch's snapshot is published *before* its
    /// tickets complete, so after `ticket.wait()` returns a completion `c`,
    /// `query.epoch() >= c.epoch` always holds (read-your-writes), and
    /// every published epoch equals the prefix of the apply history (= the
    /// WAL) it reflects.
    pub fn start_serving<S>(
        self,
        mut structure: S,
    ) -> Result<(UpdateService<S>, QueryHandle<S::Snap>), ServiceError>
    where
        S: BatchDynamic + Checkpoint + Snapshots + Send + 'static,
    {
        let config = self.config();
        let ckpt_fn = ckpt_fn_for(&config, &structure);
        // Capture the pre-service epoch: `seq` numbers count updates
        // applied *through this service*, while epochs count updates ever
        // applied to the structure — they coincide exactly when the
        // structure starts fresh, and differ by this base otherwise.
        let epoch_base = structure.epoch();
        let reader = structure.enable_snapshots();
        let svc = UpdateService::start_inner(structure, config, epoch_base, None, ckpt_fn)?;
        Ok((svc, QueryHandle { reader }))
    }

    /// Terminal: recover from the configured WAL directory (newest intact
    /// checkpoint + tail segments; see [`crate::replay::recover_dir_with`])
    /// and resume appending where the log left off. An empty or
    /// not-yet-created directory, or one whose first segment never got past
    /// its header, starts fresh from `make()` — so a crash/restart loop
    /// needs no first-run special case.
    pub fn recover_and_start<S, F>(
        self,
        make: F,
    ) -> Result<(UpdateService<S>, RecoveryInfo), ServiceError>
    where
        S: BatchDynamic + Checkpoint + Send + 'static,
        F: FnMut() -> S,
    {
        let (config, rec) = self.recover(make)?;
        let info = rec.info();
        let ckpt_fn = ckpt_fn_for(&config, &rec.structure);
        let svc =
            UpdateService::start_inner(rec.structure, config, 0, Some(rec.next_seq), ckpt_fn)?;
        Ok((svc, info))
    }

    /// Terminal: [`Self::recover_and_start`] plus the snapshot read path —
    /// the full serving-resume in one call.
    pub fn recover_and_start_serving<S, F>(
        self,
        make: F,
    ) -> Result<ServingRecovery<S>, ServiceError>
    where
        S: BatchDynamic + Checkpoint + Snapshots + Send + 'static,
        F: FnMut() -> S,
    {
        let (config, mut rec) = self.recover(make)?;
        let info = rec.info();
        let ckpt_fn = ckpt_fn_for(&config, &rec.structure);
        let epoch_base = rec.structure.epoch();
        let reader = rec.structure.enable_snapshots();
        let svc = UpdateService::start_inner(
            rec.structure,
            config,
            epoch_base,
            Some(rec.next_seq),
            ckpt_fn,
        )?;
        Ok((svc, QueryHandle { reader }, info))
    }

    fn recover<S, F>(&self, mut make: F) -> Result<(ServiceConfig, Recovery<S>), ServiceError>
    where
        S: BatchDynamic + Checkpoint,
        F: FnMut() -> S,
    {
        let config = self.config();
        let Some(wal) = &config.wal else {
            return Err(ServiceError::Wal(
                "recovery requires a WAL directory (ServiceBuilder::wal_dir)".into(),
            ));
        };
        if wal.truncate {
            return Err(ServiceError::Wal(
                "recover + truncate are contradictory: truncate destroys the log \
                 recovery would read"
                    .into(),
            ));
        }
        if holds_no_history(&wal.path, &wal.meta) {
            let rec = Recovery {
                structure: make(),
                checkpoint: None,
                next_seq: 0,
                segments_replayed: 0,
                report: crate::replay::ReplayReport::default(),
                meta: wal.meta.clone(),
                truncated: false,
            };
            return Ok((config, rec));
        }
        let rec = recover_dir_with(&wal.path, make, false).map_err(ServiceError::Wal)?;
        if rec.meta != wal.meta {
            return Err(ServiceError::Wal(format!(
                "WAL dir metadata mismatch: the log records {:?}, the builder \
                 configured {:?} — recovery would resume under the wrong identity",
                rec.meta, wal.meta
            )));
        }
        Ok((config, rec))
    }
}

/// Whether the WAL directory holds no committed history, so recovery starts
/// fresh: the directory is missing or empty, or its only file is
/// `000000.seg` holding nothing but a prefix of the header this
/// configuration writes (a crash between creating the log and its first
/// commit, possibly mid-header). A torn *first batch* after a whole header
/// needs no special case: recovery replays zero batches from it.
fn holds_no_history(dir: &Path, meta: &WalMeta) -> bool {
    let Ok(contents) = list_wal_dir(dir) else {
        return true;
    };
    if !contents.checkpoints.is_empty() {
        return false;
    }
    match &contents.segments[..] {
        [] => true,
        [(0, seg)] => {
            let mut header = Vec::new();
            wal::write_segment_header(&mut header, meta, 0).expect("write to a Vec");
            std::fs::read(seg).is_ok_and(|bytes| header.starts_with(&bytes))
        }
        _ => false,
    }
}

/// The checkpoint serializer for this configuration, or `None` when the
/// WAL is absent, checkpointing is disabled, or the structure does not
/// support it.
fn ckpt_fn_for<S: Checkpoint>(config: &ServiceConfig, structure: &S) -> Option<CkptFn<S>> {
    let wal = config.wal.as_ref()?;
    if wal.checkpoint_every.is_none() || !structure.checkpoint_supported() {
        return None;
    }
    Some(Box::new(|s: &S| {
        let mut buf = Vec::new();
        s.write_checkpoint(&mut buf)?;
        Ok(buf)
    }))
}

/// Serializes a structure's complete state into a checkpoint payload.
/// Built where the `Checkpoint` bound is available (the builder terminals),
/// so the coalescer itself needs no trait bound beyond [`BatchDynamic`].
type CkptFn<S> = Box<dyn Fn(&S) -> std::io::Result<Vec<u8>> + Send>;

/// Counters the off-thread checkpoint writer publishes; folded into
/// [`ServiceStats`] at shutdown.
#[derive(Debug, Default)]
struct CkptStats {
    checkpoints: AtomicU64,
    failures: AtomicU64,
    segments_removed: AtomicU64,
}

/// One checkpoint request: the serialized state after exactly `seq` batches.
struct CkptJob {
    seq: u64,
    payload: Vec<u8>,
}

/// The write side of the WAL: the current segment behind a buffered
/// writer, the append-before-apply rule, and rotation at checkpoint
/// boundaries.
struct WalSink {
    w: std::io::BufWriter<std::fs::File>,
    sync: bool,
    /// Global batch sequence the next append gets (continues across
    /// segments and, after recovery, across process restarts).
    seq: u64,
    dir: PathBuf,
    meta: WalMeta,
    checkpoint_every: Option<u64>,
    /// Updates appended since the last checkpoint/rotation.
    updates_since_ckpt: u64,
    /// Hands serialized checkpoints to the writer thread; `None` when the
    /// structure does not support checkpointing (one segment, no rotation).
    ckpt_tx: Option<mpsc::Sender<CkptJob>>,
    ckpt_join: Option<JoinHandle<()>>,
}

impl Drop for WalSink {
    fn drop(&mut self) {
        // Disconnect first so the writer drains its queue and exits, then
        // wait for the in-flight checkpoint to reach disk — shutdown must
        // not race compaction.
        drop(self.ckpt_tx.take());
        if let Some(j) = self.ckpt_join.take() {
            let _ = j.join();
        }
    }
}

impl WalSink {
    /// Open a segment directory for appending. `resume` is `None` for a
    /// fresh log, which refuses a directory that already holds segments or
    /// checkpoints unless [`WalConfig::truncate`] is set; it is
    /// `Some(next_seq)` when the caller just recovered `next_seq` committed
    /// batches from this directory, and the global batch sequence continues
    /// there. A new segment `next_seq.seg` is always started: appending to a
    /// possibly torn previous segment is never attempted, and by definition
    /// no committed batch lives at or past `next_seq`.
    fn open(
        cfg: &WalConfig,
        resume: Option<u64>,
        checkpointing: bool,
        stats: Arc<CkptStats>,
    ) -> Result<Self, ServiceError> {
        let werr = |what: &str, e: std::io::Error| ServiceError::Wal(format!("{what}: {e}"));
        std::fs::create_dir_all(&cfg.path)
            .map_err(|e| werr(&format!("create WAL dir {:?}", cfg.path), e))?;
        let contents = list_wal_dir(&cfg.path).map_err(ServiceError::Wal)?;
        if cfg.truncate {
            for (_, p) in contents.segments.iter().chain(contents.checkpoints.iter()) {
                std::fs::remove_file(p).map_err(|e| werr(&format!("truncate {p:?}"), e))?;
            }
        } else if resume.is_none()
            && (!contents.segments.is_empty() || !contents.checkpoints.is_empty())
        {
            return Err(ServiceError::Wal(format!(
                "refusing to overwrite existing WAL dir {:?} — recover from it \
                 (ServiceBuilder::recover*), pick another path, or set \
                 WalConfig::truncate",
                cfg.path
            )));
        }
        let resume_seq = resume.unwrap_or(0);
        let seg_path = segment_path(&cfg.path, resume_seq);
        let file = std::fs::File::create(&seg_path)
            .map_err(|e| werr(&format!("create segment {seg_path:?}"), e))?;
        let mut w = std::io::BufWriter::new(file);
        wal::write_segment_header(&mut w, &cfg.meta, resume_seq)
            .and_then(|()| w.flush())
            .and_then(|()| fsync_dir(&cfg.path))
            .map_err(|e| werr("write segment header", e))?;
        let (ckpt_tx, ckpt_join) = if checkpointing && cfg.checkpoint_every.is_some() {
            let (tx, rx) = mpsc::channel::<CkptJob>();
            let dir = cfg.path.clone();
            let join = std::thread::Builder::new()
                .name("pbdmm-ckpt".into())
                .spawn(move || checkpoint_writer_loop(dir, rx, stats))
                .expect("spawn checkpoint thread");
            (Some(tx), Some(join))
        } else {
            (None, None)
        };
        Ok(WalSink {
            w,
            sync: cfg.sync,
            seq: resume_seq,
            dir: cfg.path.clone(),
            meta: cfg.meta.clone(),
            checkpoint_every: cfg.checkpoint_every,
            updates_since_ckpt: 0,
            ckpt_tx,
            ckpt_join,
        })
    }

    /// Post-apply hook: count `updates` toward the checkpoint interval and —
    /// when it is reached — serialize the structure (in-memory, on the
    /// coalescer), rotate to a fresh segment, and hand the payload to the
    /// checkpoint writer thread, which makes it durable and compacts old
    /// segments without ever stalling this thread.
    ///
    /// Serialization failure only skips the checkpoint (recovery replays a
    /// longer tail); rotation I/O failure is a real WAL error.
    fn after_apply<S>(
        &mut self,
        s: &S,
        updates: u64,
        ckpt: Option<&CkptFn<S>>,
        stats: &CkptStats,
    ) -> Result<(), ServiceError> {
        let (Some(every), Some(ckpt), Some(tx)) = (self.checkpoint_every, ckpt, &self.ckpt_tx)
        else {
            return Ok(());
        };
        self.updates_since_ckpt += updates;
        if self.updates_since_ckpt < every {
            return Ok(());
        }
        // The payload is the state after exactly `self.seq` batches — the
        // boundary the new segment starts at.
        let payload = match ckpt(s) {
            Ok(p) => p,
            Err(_) => {
                stats.failures.fetch_add(1, Ordering::Relaxed);
                self.updates_since_ckpt = 0;
                return Ok(());
            }
        };
        let seg_path = segment_path(&self.dir, self.seq);
        let next = std::fs::File::create(&seg_path)
            .map_err(|e| ServiceError::Wal(format!("rotate to {seg_path:?}: {e}")))?;
        let mut next_w = std::io::BufWriter::new(next);
        wal::write_segment_header(&mut next_w, &self.meta, self.seq)
            .and_then(|()| next_w.flush())
            .and_then(|()| fsync_dir(&self.dir))
            .map_err(|e| ServiceError::Wal(format!("write segment header: {e}")))?;
        // Retire the old segment: everything in it is already flushed per
        // append (and fsynced if `sync`); nothing further is owed to it.
        self.w = next_w;
        self.updates_since_ckpt = 0;
        let _ = tx.send(CkptJob {
            seq: self.seq,
            payload,
        });
        Ok(())
    }

    /// Byte offset the next append will start at. The buffer is empty
    /// between appends (every append flushes), so the file length is the
    /// logical end of the log.
    fn mark(&mut self) -> Result<u64, ServiceError> {
        self.w
            .get_ref()
            .metadata()
            .map(|md| md.len())
            .map_err(|e| ServiceError::Wal(format!("stat WAL: {e}")))
    }

    /// Undo the most recent append: truncate the file back to `mark` and
    /// rewind the sequence counter. Used when the batch that was just
    /// logged could not be applied — the log must match the applied state
    /// exactly, or replay would reconstruct a phantom batch.
    fn rollback(&mut self, mark: u64) -> Result<(), ServiceError> {
        use std::io::Seek;
        self.w
            .get_ref()
            .set_len(mark)
            .and_then(|()| self.w.get_mut().seek(std::io::SeekFrom::Start(mark)))
            .map_err(|e| ServiceError::Wal(format!("rollback batch {}: {e}", self.seq - 1)))?;
        self.seq -= 1;
        Ok(())
    }

    /// Append one batch and make it durable (flush, optionally fsync)
    /// *before* the caller applies it.
    fn append(&mut self, batch: &Batch) -> Result<(), ServiceError> {
        wal::write_batch(&mut self.w, self.seq, batch)
            .and_then(|()| self.w.flush())
            .map_err(|e| ServiceError::Wal(format!("append batch {}: {e}", self.seq)))?;
        if self.sync {
            self.w
                .get_ref()
                .sync_data()
                .map_err(|e| ServiceError::Wal(format!("fsync batch {}: {e}", self.seq)))?;
        }
        self.seq += 1;
        Ok(())
    }
}

/// Fsync a directory so renames/creations inside it are durable.
fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_data()
}

/// The checkpoint writer thread: makes each serialized checkpoint durable
/// (tmp → fsync → rename → fsync dir) and then compacts the directory —
/// all off the coalescer, so the hot path never waits on checkpoint I/O.
/// Exits when the coalescer drops its sender (and drains first, so the
/// final checkpoint of a run still lands).
fn checkpoint_writer_loop(dir: PathBuf, rx: mpsc::Receiver<CkptJob>, stats: Arc<CkptStats>) {
    while let Ok(mut job) = rx.recv() {
        // If the coalescer outran us, only the newest pending checkpoint
        // matters — the ones in between are superseded before they ever
        // reach disk.
        while let Ok(newer) = rx.try_recv() {
            job = newer;
        }
        match write_checkpoint_file(&dir, job.seq, &job.payload) {
            Ok(()) => {
                stats.checkpoints.fetch_add(1, Ordering::Relaxed);
                // Compaction failure is not fatal: the files retry after
                // the next checkpoint, and recovery works regardless.
                if let Ok(removed) = compact_dir(&dir) {
                    stats.segments_removed.fetch_add(removed, Ordering::Relaxed);
                }
            }
            Err(_) => {
                stats.failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Durably install one checkpoint file: write to a `.tmp` sibling, fsync,
/// rename into place, fsync the directory. A crash anywhere in this
/// sequence leaves either no `NNNNNN.ckpt` or a complete one — recovery
/// additionally verifies the `# end` trailer, so even a non-atomic rename
/// cannot smuggle in a torn checkpoint.
fn write_checkpoint_file(dir: &Path, seq: u64, payload: &[u8]) -> std::io::Result<()> {
    let tmp = dir.join(format!("{seq:06}.ckpt.tmp"));
    let dst = ckpt_path(dir, seq);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(payload)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, &dst)?;
    fsync_dir(dir)
}

/// Delete log history a retained checkpoint makes redundant. Keeps the two
/// newest checkpoints (the newest plus one fallback in case the newest is
/// later found torn), then deletes every segment fully covered by the
/// *older* retained checkpoint — a segment is dead once its successor's
/// base is ≤ that checkpoint's sequence, because recovery will never
/// replay batches below it. The newest segment (the active tail) is never
/// deleted. Returns the number of segments removed.
fn compact_dir(dir: &Path) -> std::io::Result<u64> {
    let contents =
        list_wal_dir(dir).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let ckpts = &contents.checkpoints;
    if ckpts.len() > 2 {
        for (_, path) in &ckpts[..ckpts.len() - 2] {
            std::fs::remove_file(path)?;
        }
    }
    let Some(&(floor, _)) = ckpts.iter().rev().take(2).next_back() else {
        return Ok(0);
    };
    let mut removed = 0u64;
    for pair in contents.segments.windows(2) {
        let (_, path) = &pair[0];
        let (successor_base, _) = pair[1];
        if successor_base <= floor {
            std::fs::remove_file(path)?;
            removed += 1;
        }
    }
    if removed > 0 || ckpts.len() > 2 {
        fsync_dir(dir)?;
    }
    Ok(removed)
}

/// A batch-coalescing update service over any [`BatchDynamic`] structure.
///
/// See the [crate docs](crate) for the full lifecycle; in short:
///
/// ```
/// use pbdmm_matching::DynamicMatching;
/// use pbdmm_service::ServiceConfig;
///
/// let svc = ServiceConfig::builder().start(DynamicMatching::with_seed(7)).unwrap();
/// let h = svc.handle();
/// let t1 = h.insert(vec![0, 1]);
/// let t2 = h.insert(vec![1, 2]);
/// let id = t1.wait().unwrap().done.id();
/// t2.wait().unwrap();
/// h.delete(id).wait().unwrap();
/// let (m, stats) = svc.shutdown();
/// assert_eq!(m.num_edges(), 1);
/// assert_eq!(stats.updates, 3);
/// ```
pub struct UpdateService<S: BatchDynamic + Send + 'static> {
    tx: Option<mpsc::Sender<Msg>>,
    join: Option<JoinHandle<(S, ServiceStats)>>,
}

/// The read side of a serving deployment: a cloneable, `Send + Sync`
/// handle through which any number of reader threads resolve queries
/// against the **latest published snapshot** — without ever blocking the
/// coalescer or each other. Obtained from [`ServiceBuilder::start_serving`].
///
/// Readers see epochs advance monotonically, one step per applied batch;
/// a snapshot observed after a ticket's `wait()` returned is never older
/// than that ticket's [`Completion::epoch`] (read-your-writes).
///
/// ```
/// use pbdmm_matching::DynamicMatching;
/// use pbdmm_service::ServiceConfig;
///
/// let (svc, query) = ServiceConfig::builder()
///     .start_serving(DynamicMatching::with_seed(7))
///     .unwrap();
/// let c = svc.handle().insert(vec![0, 1]).wait().unwrap();
/// // The batch is already visible: read your writes.
/// assert!(query.epoch() >= c.epoch);
/// let snap = query.snapshot();
/// assert!(snap.is_matched(0) && snap.partner(0) == Some(1));
/// svc.shutdown();
/// ```
#[derive(Debug)]
pub struct QueryHandle<T: Snapshot> {
    reader: SnapshotReader<T>,
}

impl<T: Snapshot> Clone for QueryHandle<T> {
    fn clone(&self) -> Self {
        QueryHandle {
            reader: self.reader.clone(),
        }
    }
}

impl<T: Snapshot> QueryHandle<T> {
    /// The latest published snapshot (cheap: an `Arc` clone; the snapshot
    /// itself is immutable and stays valid for as long as the caller holds
    /// it, regardless of how many batches apply meanwhile).
    pub fn snapshot(&self) -> Arc<T> {
        self.reader.latest()
    }

    /// Epoch of the latest published snapshot: how many updates were
    /// applied when it was captured.
    pub fn epoch(&self) -> u64 {
        self.reader.epoch()
    }

    /// Block until a snapshot **newer than** `epoch` is published or
    /// `timeout` elapses — whichever first — and return the latest snapshot
    /// either way (distinguish progress from timeout by its epoch). This is
    /// the epoch-subscription hook: no polling, one condvar wakeup per
    /// published batch, so a subscriber (e.g. a network connection
    /// streaming `EpochEvent`s) rides the publication pulse directly.
    pub fn wait_for_newer(&self, epoch: u64, timeout: std::time::Duration) -> Arc<T> {
        self.reader.wait_for_newer(epoch, timeout)
    }

    /// What changed since `epoch`: up-to-date, a merged
    /// [`pbdmm_matching::snapshot::Snapshot::Delta`], or a full resync
    /// snapshot if the subscriber fell behind the publication ring. See
    /// [`SnapshotReader::changes_since`] — this is how network
    /// subscriptions stream deltas instead of epoch pings.
    pub fn changes_since(&self, epoch: u64) -> pbdmm_matching::snapshot::Changes<T> {
        self.reader.changes_since(epoch)
    }

    /// The underlying [`SnapshotReader`] (the full read surface: `latest /
    /// epoch / wait_for_newer / changes_since`), cloneable independently of
    /// the handle.
    pub fn reader(&self) -> &SnapshotReader<T> {
        &self.reader
    }
}

impl<S: BatchDynamic + Send + 'static> UpdateService<S> {
    /// Spawn the coalescer thread, which takes ownership of `structure`
    /// (get it back from [`Self::shutdown`]). Fails only if the WAL cannot
    /// be opened.
    fn start_inner(
        mut structure: S,
        config: ServiceConfig,
        epoch_base: u64,
        resume: Option<u64>,
        ckpt_fn: Option<CkptFn<S>>,
    ) -> Result<Self, ServiceError> {
        // The structure shares the service's recorder, so settlement and
        // snapshot-publication spans nest under the coalescer's apply span.
        structure.set_obs(config.obs.clone());
        let ckpt_stats = Arc::new(CkptStats::default());
        let wal_sink = match &config.wal {
            Some(cfg) => Some(WalSink::open(
                cfg,
                resume,
                ckpt_fn.is_some(),
                Arc::clone(&ckpt_stats),
            )?),
            None => None,
        };
        let (tx, rx) = mpsc::channel();
        let join = std::thread::Builder::new()
            .name("pbdmm-coalescer".into())
            .spawn(move || {
                coalescer_loop(
                    structure, config, wal_sink, rx, epoch_base, ckpt_fn, ckpt_stats,
                )
            })
            .expect("spawn coalescer thread");
        Ok(UpdateService {
            tx: Some(tx),
            join: Some(join),
        })
    }

    /// A new producer handle. Handles are cheap to clone and `Send`; the
    /// coalescer drains until every handle (and the service itself) is gone.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            tx: self.tx.clone().expect("service not shut down"),
        }
    }

    /// Stop the service: everything already queued (including updates
    /// racing in from still-alive [`ServiceHandle`] clones) is drained,
    /// batched, and completed, then the coalescer exits and the structure
    /// and run statistics come back. Does **not** require outstanding
    /// handles to be dropped first — a shutdown marker flows through the
    /// ingress, and tickets submitted after it resolve with
    /// [`ServiceError::Closed`].
    pub fn shutdown(mut self) -> (S, ServiceStats) {
        let tx = self.tx.take().expect("service not shut down");
        let _ = tx.send(Msg::Shutdown);
        drop(tx);
        self.join
            .take()
            .expect("service not shut down")
            .join()
            .expect("coalescer thread panicked")
    }
}

/// The coalescer: drain → plan → WAL → apply → complete, until the ingress
/// disconnects (every handle and the service dropped) or the shutdown
/// marker arrives and the backlog queued ahead of it is flushed.
fn coalescer_loop<S: BatchDynamic>(
    mut s: S,
    config: ServiceConfig,
    mut wal: Option<WalSink>,
    rx: mpsc::Receiver<Msg>,
    epoch_base: u64,
    ckpt_fn: Option<CkptFn<S>>,
    ckpt_stats: Arc<CkptStats>,
) -> (S, ServiceStats) {
    let policy = config.policy;
    let max_batch = policy.max_batch.max(1);
    let linger = policy.max_delay;
    let obs = config.obs.clone();
    let mut stats = ServiceStats::default();
    let mut next_seq: u64 = 0;
    // Once the shutdown marker is seen, stop waiting on the clock and just
    // drain whatever is already queued.
    let mut closing = false;
    // Set on the first WAL append failure: the durability contract ("an
    // acknowledged update is on the log") can no longer be met, so the
    // service fail-stops — every subsequent update is refused with the
    // original error instead of being applied un-logged.
    let mut wal_wedged: Option<ServiceError> = None;
    loop {
        // --- Drain one batch's worth of requests. Ops and completion
        // channels ride in parallel vectors so the planner can consume the
        // ops (moving each insertion's vertex list into the batch).
        let mut ops: Vec<Update> = Vec::new();
        let mut done_txs: Vec<mpsc::Sender<Result<Completion, ServiceError>>> = Vec::new();
        let push = |r: Req, ops: &mut Vec<Update>, txs: &mut Vec<_>| {
            ops.push(r.op);
            txs.push(r.done);
        };
        let mut closed = false;
        // Block for the first request (unless already closing).
        while ops.is_empty() && !closed {
            let first = if closing {
                rx.try_recv().map_err(|_| ())
            } else {
                rx.recv().map_err(|_| ())
            };
            match first {
                Ok(Msg::Update(r)) => push(r, &mut ops, &mut done_txs),
                Ok(Msg::Shutdown) => closing = true,
                Err(()) => closed = true,
            }
        }
        if ops.is_empty() {
            break;
        }
        // Greedy drain: take everything already queued (group commit).
        while ops.len() < max_batch {
            match rx.try_recv() {
                Ok(Msg::Update(r)) => push(r, &mut ops, &mut done_txs),
                Ok(Msg::Shutdown) => closing = true,
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    closed = true;
                    break;
                }
            }
        }
        // Linger: with a positive max_delay, hold the non-full batch open
        // until the window expires (skipped when closing or disconnected).
        let mut timer_expired = false;
        if !closing && !closed && !linger.is_zero() {
            let deadline = Instant::now() + linger;
            while ops.len() < max_batch {
                let now = Instant::now();
                if now >= deadline {
                    timer_expired = true;
                    break;
                }
                match rx.recv_timeout(deadline - now) {
                    Ok(Msg::Update(r)) => push(r, &mut ops, &mut done_txs),
                    Ok(Msg::Shutdown) => {
                        closing = true;
                        break;
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        timer_expired = true;
                        break;
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        closed = true;
                        break;
                    }
                }
            }
        }
        if closed || closing {
            stats.flush_close += 1;
            obs.add(Counter::FlushClose, 1);
        } else if ops.len() >= max_batch {
            stats.flush_full += 1;
            obs.add(Counter::FlushFull, 1);
        } else if timer_expired {
            stats.flush_timer += 1;
            obs.add(Counter::FlushTimer, 1);
        } else {
            stats.flush_idle += 1;
            obs.add(Counter::FlushIdle, 1);
        }

        // Fail-stopped: refuse everything drained without applying.
        if let Some(e) = &wal_wedged {
            for r in done_txs {
                let _ = r.send(Err(e.clone()));
            }
            if closed {
                break;
            }
            continue;
        }

        // Busy span: everything from planning to the last completion —
        // the per-batch processing cost, excluding the drain/linger wait
        // above (which is latency budget, not work).
        let _batch_span = obs.span(Phase::Batch);

        // --- Plan: conflict resolution per the apply contract ------------
        let plan_span = obs.span(Phase::Plan);
        let plan = plan_batch(ops, |id| s.contains_edge(id));
        // The batch's delete prefix, for slot → completion mapping below.
        let delete_ids: Vec<EdgeId> = plan
            .batch
            .iter()
            .map_while(|u| match u {
                Update::Delete(id) => Some(*id),
                Update::Insert(_) => None,
            })
            .collect();
        let num_deletes = delete_ids.len();

        // Individually invalid updates resolve now: their outcome does not
        // depend on the batch committing, so a later WAL/apply failure must
        // not repaint them as durability errors. What remains (`waiting`)
        // is every ticket whose fate is tied to the batch.
        let mut waiting: Vec<(mpsc::Sender<Result<Completion, ServiceError>>, Slot)> =
            Vec::with_capacity(done_txs.len());
        for (tx, slot) in done_txs.into_iter().zip(plan.slots.iter().copied()) {
            match slot {
                Slot::RejectUnknown(id) => {
                    stats.rejected += 1;
                    let _ = tx.send(Err(ServiceError::UnknownEdge(id)));
                }
                Slot::RejectEmpty => {
                    stats.rejected += 1;
                    let _ = tx.send(Err(ServiceError::EmptyEdge));
                }
                Slot::InBatch(_) | Slot::DuplicateDelete { .. } => waiting.push((tx, slot)),
            }
        }
        drop(plan_span);

        // --- WAL: append-before-apply -------------------------------------
        // Log end before this append, so a failed apply can roll the
        // phantom batch back out of the log.
        let wal_span = obs.span(Phase::WalAppend);
        let mut wal_mark: Option<u64> = None;
        if !plan.batch.is_empty() {
            if let Some(sink) = wal.as_mut() {
                match sink.mark() {
                    Ok(m) => wal_mark = Some(m),
                    Err(e) => {
                        for (tx, _) in waiting {
                            let _ = tx.send(Err(e.clone()));
                        }
                        wal = None;
                        wal_wedged = Some(e);
                        continue;
                    }
                }
                if let Err(e) = sink.append(&plan.batch) {
                    // Durability contract: an un-logged batch must not be
                    // applied — and once the log is wedged no later batch
                    // can be made durable either, so the service
                    // fail-stops: this drain and every subsequent update
                    // are refused with the WAL error (acknowledged state
                    // stays exactly the replayable committed prefix).
                    for (tx, _) in waiting {
                        let _ = tx.send(Err(e.clone()));
                    }
                    wal = None;
                    wal_wedged = Some(e);
                    continue;
                }
                stats.wal_batches += 1;
            }
        }
        drop(wal_span);

        // --- Apply on the pinned scheduler --------------------------------
        let apply_span = obs.span(Phase::Apply);
        let batch_len = plan.batch.len();
        let outcome = if plan.batch.is_empty() {
            None
        } else {
            let batch = plan.batch;
            let result = match &config.pool {
                Some(pool) => pool.install(|| s.apply(batch)),
                None => s.apply(batch),
            };
            match result {
                Ok(out) => Some(out),
                Err(e) => {
                    // Planner and structure disagreed (should not happen):
                    // the structure is untouched. The batch is already on
                    // the log though — roll it back out so replay never
                    // reconstructs a batch that was not applied; if the
                    // rollback itself fails, the log is lying and the
                    // service must fail-stop.
                    if let (Some(sink), Some(mark)) = (wal.as_mut(), wal_mark) {
                        if let Err(werr) = sink.rollback(mark) {
                            wal = None;
                            wal_wedged = Some(werr);
                        } else {
                            stats.wal_batches -= 1;
                        }
                    }
                    for (tx, _) in waiting {
                        let _ = tx.send(Err(ServiceError::Rejected(e.clone())));
                    }
                    continue;
                }
            }
        };
        drop(apply_span);

        // --- Checkpoint accounting -----------------------------------------
        // The batch is durable and applied; fold it into the checkpoint
        // interval, rotating + scheduling a checkpoint at the boundary.
        // A rotation failure wedges the WAL like any other log I/O failure
        // — but only for *future* batches; this one is already committed.
        if outcome.is_some() {
            if let Some(sink) = wal.as_mut() {
                if let Err(e) =
                    sink.after_apply(&s, batch_len as u64, ckpt_fn.as_ref(), &ckpt_stats)
                {
                    wal = None;
                    wal_wedged = Some(e);
                }
            }
        }

        // --- Complete tickets with their BatchOutcome slices --------------
        // Slot `pos` maps into the outcome by position: positions below `num_deletes` are the delete prefix, the rest
        // line up with `outcome.inserted` in batch order.
        let complete_span = obs.span(Phase::Complete);
        let batch_base = next_seq;
        stats.updates += batch_len as u64;
        if batch_len > 0 {
            stats.batches += 1;
            stats.max_batch_len = stats.max_batch_len.max(batch_len);
            obs.add(Counter::Batches, 1);
            obs.add(Counter::Updates, batch_len as u64);
            obs.record_max(Counter::BatchMax, batch_len as u64);
        }
        next_seq += batch_len as u64;
        // The epoch at which this whole batch became visible: the
        // structure's update count right after the apply — which is also
        // the epoch the snapshot published inside `apply` carries, so
        // completing tickets *after* this point is what makes
        // read-your-writes hold.
        let visible_epoch = epoch_base + next_seq;
        for (tx, slot) in waiting {
            let msg = match slot {
                Slot::InBatch(pos) => {
                    let done = if pos < num_deletes {
                        Done::Deleted(delete_ids[pos])
                    } else {
                        let out = outcome.as_ref().expect("non-empty batch was applied");
                        Done::Inserted(out.inserted[pos - num_deletes])
                    };
                    Ok(Completion {
                        seq: batch_base + pos as u64,
                        epoch: visible_epoch,
                        done,
                    })
                }
                Slot::DuplicateDelete { id, pos } => {
                    stats.dup_deletes += 1;
                    // Share the seq of the delete holding the slot.
                    Ok(Completion {
                        seq: batch_base + pos as u64,
                        epoch: visible_epoch,
                        done: Done::AlreadyDeleted(id),
                    })
                }
                Slot::RejectUnknown(_) | Slot::RejectEmpty => {
                    unreachable!("resolved before the batch stage")
                }
            };
            let _ = tx.send(msg);
        }
        drop(complete_span);
        if closed {
            break;
        }
    }
    // Dropping the sink disconnects the checkpoint writer, which drains its
    // queue (so a final in-flight checkpoint still lands) and is joined —
    // only then are the checkpoint counters final.
    drop(wal);
    stats.checkpoints = ckpt_stats.checkpoints.load(Ordering::Relaxed);
    stats.checkpoint_failures = ckpt_stats.failures.load(Ordering::Relaxed);
    stats.wal_segments_removed = ckpt_stats.segments_removed.load(Ordering::Relaxed);
    (s, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbdmm_matching::verify::check_invariants;
    use pbdmm_matching::DynamicMatching;
    use std::time::Duration;

    fn quick() -> ServiceBuilder {
        ServiceConfig::builder().policy(CoalescePolicy {
            max_batch: 1024,
            max_delay: Duration::from_millis(100),
        })
    }

    #[test]
    fn insert_then_delete_through_tickets() {
        let svc = quick().start(DynamicMatching::with_seed(1)).unwrap();
        let h = svc.handle();
        let tickets: Vec<Ticket> = (0..8).map(|v| h.insert(vec![v, v + 1])).collect();
        let ids: Vec<EdgeId> = tickets
            .into_iter()
            .map(|t| match t.wait().unwrap().done {
                Done::Inserted(id) => id,
                other => panic!("expected insert, got {other:?}"),
            })
            .collect();
        assert_eq!(ids.len(), 8);
        for &id in &ids[..4] {
            assert!(matches!(
                h.delete(id).wait().unwrap().done,
                Done::Deleted(d) if d == id
            ));
        }
        drop(h);
        let (m, stats) = svc.shutdown();
        assert_eq!(m.num_edges(), 4);
        assert_eq!(stats.updates, 12);
        assert_eq!(stats.dup_deletes + stats.rejected, 0);
        check_invariants(&m).unwrap();
    }

    #[test]
    fn coalesced_duplicate_deletes_resolve_idempotently() {
        let svc = quick().start(DynamicMatching::with_seed(2)).unwrap();
        let h = svc.handle();
        let id = h.insert(vec![0, 1]).wait().unwrap().done.id();
        // Both deletes are queued before the 100ms window closes, so they
        // coalesce into one batch: one wins the slot, one is deduplicated.
        let t1 = h.delete(id);
        let t2 = h.delete(id);
        let (c1, c2) = (t1.wait().unwrap(), t2.wait().unwrap());
        assert_eq!(c1.done, Done::Deleted(id));
        assert_eq!(c2.done, Done::AlreadyDeleted(id));
        // The duplicate shares the winner's apply-order position.
        assert_eq!(c1.seq, c2.seq);
        drop(h);
        let (m, stats) = svc.shutdown();
        assert_eq!(m.num_edges(), 0);
        assert_eq!(stats.dup_deletes, 1);
    }

    #[test]
    fn bad_updates_are_rejected_individually() {
        let svc = quick().start(DynamicMatching::with_seed(3)).unwrap();
        let h = svc.handle();
        let good = h.insert(vec![0, 1]);
        let empty = h.insert(vec![]);
        let unknown = h.delete(EdgeId(999));
        assert!(good.wait().is_ok());
        assert_eq!(empty.wait(), Err(ServiceError::EmptyEdge));
        assert_eq!(unknown.wait(), Err(ServiceError::UnknownEdge(EdgeId(999))));
        drop(h);
        let (m, stats) = svc.shutdown();
        assert_eq!(m.num_edges(), 1);
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.updates, 1);
    }

    #[test]
    fn shutdown_drains_backlog_and_closes_later_submits() {
        let svc = quick().start(DynamicMatching::with_seed(4)).unwrap();
        let h = svc.handle();
        let pre = h.insert(vec![0, 1]);
        // Shutdown with the handle still alive: everything queued before the
        // marker is applied, and the call does not deadlock.
        let (m, stats) = svc.shutdown();
        assert!(matches!(pre.wait().unwrap().done, Done::Inserted(_)));
        assert_eq!(m.num_edges(), 1);
        assert_eq!(stats.updates, 1);
        // Submissions after shutdown resolve with Closed.
        assert_eq!(h.insert(vec![2, 3]).wait(), Err(ServiceError::Closed));
        assert_eq!(h.delete(EdgeId(0)).wait(), Err(ServiceError::Closed));
    }

    #[test]
    fn singleton_policy_applies_one_update_per_batch() {
        let svc = ServiceConfig::builder()
            .policy(CoalescePolicy::singleton())
            .start(DynamicMatching::with_seed(5))
            .unwrap();
        let h = svc.handle();
        for v in 0..6u32 {
            h.insert(vec![v, v + 1]).wait().unwrap();
        }
        drop(h);
        let (_, stats) = svc.shutdown();
        assert_eq!(stats.batches, 6);
        assert_eq!(stats.max_batch_len, 1);
        assert!((stats.mean_batch_len() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn query_handle_reads_latest_epoch_and_state() {
        let (svc, q) = quick()
            .start_serving(DynamicMatching::with_seed(8))
            .unwrap();
        assert_eq!(q.epoch(), 0);
        assert_eq!(q.snapshot().num_edges(), 0);
        let h = svc.handle();
        let c = h.insert(vec![0, 1]).wait().unwrap();
        // Read-your-writes: the batch's snapshot was published before the
        // ticket completed.
        assert!(q.epoch() >= c.epoch);
        let snap = q.snapshot();
        assert!(snap.contains_edge(c.done.id()));
        assert!(snap.is_matched(0));
        assert_eq!(snap.partner(0), Some(1));
        snap.check_consistency().unwrap();

        let c2 = h.delete(c.done.id()).wait().unwrap();
        assert!(c2.epoch > c.epoch);
        assert!(!q.snapshot().contains_edge(c.done.id()));
        // The old snapshot is immutable: still shows the edge.
        assert!(snap.contains_edge(c.done.id()));
        drop(h);
        let (m, stats) = svc.shutdown();
        assert_eq!(stats.updates, 2);
        assert_eq!(pbdmm_matching::snapshot::Snapshots::epoch(&m), 2);
        // The handle outlives the service; it serves the final state.
        assert_eq!(q.epoch(), 2);
    }

    #[test]
    fn wait_for_newer_observes_batches_as_they_publish() {
        let (svc, q) = quick()
            .start_serving(DynamicMatching::with_seed(12))
            .unwrap();
        let h = svc.handle();
        // Timeout path: nothing newer than epoch 0 exists yet.
        let snap = q.wait_for_newer(0, Duration::from_millis(5));
        assert_eq!(snap.epoch(), 0);
        // Subscription path: a waiter blocked on epoch 0 wakes when the
        // first batch publishes, and read-your-writes pins its view.
        let waiter = {
            let q = q.clone();
            std::thread::spawn(move || q.wait_for_newer(0, Duration::from_secs(60)))
        };
        let c = h.insert(vec![0, 1]).wait().unwrap();
        let snap = waiter.join().unwrap();
        assert!(snap.epoch() >= 1);
        assert!(snap.epoch() <= c.epoch);
        drop(h);
        svc.shutdown();
    }

    #[test]
    fn completion_epochs_are_batch_visibility_points() {
        // Singleton batches: each update's epoch is its seq + 1 (visible
        // right after its own one-update batch).
        let (svc, q) = ServiceConfig::builder()
            .policy(CoalescePolicy::singleton())
            .start_serving(DynamicMatching::with_seed(9))
            .unwrap();
        let h = svc.handle();
        for v in 0..5u32 {
            let c = h.insert(vec![v, v + 1]).wait().unwrap();
            assert_eq!(c.epoch, c.seq + 1);
            assert!(q.epoch() >= c.epoch);
        }
        drop(h);
        svc.shutdown();
    }

    #[test]
    fn epoch_base_offsets_a_non_fresh_structure() {
        // A structure that already applied updates before serving: seq
        // numbers still start at 0, epochs continue from the structure's
        // history, and read-your-writes holds throughout.
        let mut m = DynamicMatching::with_seed(10);
        let pre = m.insert_edges(&[vec![0, 1], vec![2, 3]]);
        let (svc, q) = quick().start_serving(m).unwrap();
        assert_eq!(q.epoch(), 2);
        assert!(q.snapshot().contains_edge(pre[0]));
        let c = svc.handle().insert(vec![4, 5]).wait().unwrap();
        assert_eq!(c.seq, 0, "seq space is the service's own");
        assert_eq!(c.epoch, 3, "epoch space is the structure's history");
        assert!(q.epoch() >= c.epoch);
        svc.shutdown();
    }

    fn temp_wal_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn meta(seed: u64) -> WalMeta {
        WalMeta {
            structure: "matching".into(),
            seed,
            ids_recycling: false,
        }
    }

    #[test]
    fn segmented_wal_checkpoints_and_recovers() {
        let dir = temp_wal_dir("pbdmm_svc_seg_rotate");
        let svc = ServiceConfig::builder()
            .policy(CoalescePolicy::singleton())
            .wal_dir(&dir, meta(33))
            .checkpoint_every(8)
            .start(DynamicMatching::with_seed(33))
            .unwrap();
        let h = svc.handle();
        for v in 0..40u32 {
            h.insert(vec![2 * v, 2 * v + 1]).wait().unwrap();
        }
        drop(h);
        let (m, stats) = svc.shutdown();
        assert_eq!(m.num_edges(), 40);
        assert!(stats.checkpoints >= 1, "{stats:?}");
        assert_eq!(stats.checkpoint_failures, 0);
        // Recovery loads a checkpoint (not genesis) and lands on the exact
        // final state.
        let rec = crate::replay::recover_matching_from_dir(&dir, false).unwrap();
        assert!(rec.checkpoint.is_some());
        assert_eq!(rec.next_seq, 40);
        assert!(!rec.truncated);
        assert_eq!(
            Snapshots::snapshot(&rec.structure),
            Snapshots::snapshot(&m),
            "recovered state must equal the served state exactly"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_failure_fail_stops_and_keeps_the_committed_prefix() {
        const K: u32 = 5;
        let dir = temp_wal_dir("pbdmm_svc_seg_failstop");
        let svc = ServiceConfig::builder()
            .policy(CoalescePolicy::singleton())
            .wal_dir(&dir, meta(36))
            .checkpoint_every(u64::from(K))
            .start(DynamicMatching::with_seed(36))
            .unwrap();
        // A directory squatting on the name of the segment the rotation
        // after batch K creates makes that `File::create` fail.
        std::fs::create_dir(segment_path(&dir, u64::from(K))).unwrap();
        let h = svc.handle();
        for v in 0..K {
            h.insert(vec![2 * v, 2 * v + 1]).wait().unwrap();
        }
        // The log is wedged: every later update is refused, none applied.
        for v in K..K + 4 {
            let refused = h.insert(vec![2 * v, 2 * v + 1]).wait();
            assert!(matches!(refused, Err(ServiceError::Wal(_))), "{refused:?}");
        }
        assert!(matches!(
            h.delete(EdgeId(0)).wait(),
            Err(ServiceError::Wal(_))
        ));
        drop(h);
        let (m, stats) = svc.shutdown();
        assert_eq!(m.num_edges(), K as usize);
        assert_eq!(stats.updates, u64::from(K));
        assert_eq!(stats.wal_batches, u64::from(K));
        // Recovery reproduces exactly the K committed batches; the
        // unreadable last "segment" is reported as a torn tail.
        let rec = crate::replay::recover_matching_from_dir(&dir, false).unwrap();
        assert_eq!(rec.next_seq, u64::from(K));
        assert!(rec.truncated);
        assert_eq!(Snapshots::snapshot(&rec.structure), Snapshots::snapshot(&m));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_and_resume_continues_the_log() {
        let dir = temp_wal_dir("pbdmm_svc_seg_resume");
        let build = || {
            ServiceConfig::builder()
                .policy(CoalescePolicy::singleton())
                .wal_dir(&dir, meta(34))
                .checkpoint_every(4)
        };
        // First run starts fresh: the directory does not exist yet.
        let (svc, info) = build()
            .recover_and_start(|| DynamicMatching::with_seed(34))
            .unwrap();
        assert_eq!(info.batches, 0);
        assert_eq!(info.checkpoint, None);
        let h = svc.handle();
        let mut ids = Vec::new();
        for v in 0..10u32 {
            ids.push(h.insert(vec![v, v + 100]).wait().unwrap().done.id());
        }
        drop(h);
        svc.shutdown();
        // Second run resumes at batch 10 and keeps appending; recorded ids
        // stay valid across the restart.
        let (svc, info) = build()
            .recover_and_start(|| DynamicMatching::with_seed(34))
            .unwrap();
        assert_eq!(info.batches, 10);
        let h = svc.handle();
        assert!(matches!(
            h.delete(ids[0]).wait().unwrap().done,
            Done::Deleted(d) if d == ids[0]
        ));
        for v in 0..5u32 {
            h.insert(vec![200 + v, 300 + v]).wait().unwrap();
        }
        drop(h);
        let (m2, _) = svc.shutdown();
        assert_eq!(m2.num_edges(), 14);
        // A third recovery reproduces the resumed run's exact final state.
        let rec = crate::replay::recover_matching_from_dir(&dir, false).unwrap();
        assert_eq!(rec.next_seq, 16);
        assert_eq!(
            Snapshots::snapshot(&rec.structure),
            Snapshots::snapshot(&m2)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn builder_refuses_contradictory_recovery_configs() {
        let no_wal = ServiceConfig::builder().recover_and_start(|| DynamicMatching::with_seed(1));
        assert!(matches!(no_wal, Err(ServiceError::Wal(_))));
        let dir = temp_wal_dir("pbdmm_svc_seg_contradict");
        let truncating = ServiceConfig::builder()
            .wal_dir(&dir, meta(1))
            .wal_truncate(true)
            .recover_and_start(|| DynamicMatching::with_seed(1));
        assert!(matches!(truncating, Err(ServiceError::Wal(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fresh_start_refuses_a_dir_with_history() {
        let dir = temp_wal_dir("pbdmm_svc_seg_refuse");
        let svc = ServiceConfig::builder()
            .wal_dir(&dir, meta(35))
            .start(DynamicMatching::with_seed(35))
            .unwrap();
        svc.handle().insert(vec![0, 1]).wait().unwrap();
        svc.shutdown();
        let refused = ServiceConfig::builder()
            .wal_dir(&dir, meta(35))
            .start(DynamicMatching::with_seed(35));
        assert!(matches!(refused, Err(ServiceError::Wal(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seq_numbers_are_dense_in_apply_order() {
        let svc = quick().start(DynamicMatching::with_seed(6)).unwrap();
        let h = svc.handle();
        let tickets: Vec<Ticket> = (0..16).map(|v| h.insert(vec![v, v + 1])).collect();
        let mut seqs: Vec<u64> = tickets.into_iter().map(|t| t.wait().unwrap().seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..16).collect::<Vec<u64>>());
        drop(h);
        svc.shutdown();
    }
}
