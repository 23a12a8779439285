//! Shared pieces of a measured run: parameters, the scratch directory, and
//! the conversions from raw counters to the reported metrics.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use pbdmm::primitives::obs::{Counter, Phase, ProfileReport};
use pbdmm::primitives::pool::PoolStats;

use crate::procfs::ThreadClock;
use crate::report::Run;
use crate::stats::{median, Samples};

/// Parameters of one measured run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub timed: Duration,
    /// Whether the program's recorder and the benchmark's own spans are on.
    pub traced: bool,
    /// How many set-ups to time for `setup_s`: the first is measured, the
    /// rest follow the timed phase.
    pub setup_reps: usize,
}

/// Load threads and pool width: the host's core count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fresh scratch directory for one set-up's WAL, inside the benchmark's
/// own directory of the checkout. Removed by [`remove_dir`].
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Remove a scratch directory and its parent if that is now empty.
pub fn remove_dir(dir: &std::path::Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

/// Time one set-up. A failed set-up fails the run and yields `None`.
pub fn timed_setup<R>(
    run: &mut Run,
    setup: impl FnOnce() -> Result<R, String>,
) -> Option<(R, f64)> {
    let t = Instant::now();
    match setup() {
        Ok(r) => Some((r, t.elapsed().as_secs_f64())),
        Err(e) => {
            run.gate.fail(format!("set-up: {e}"));
            None
        }
    }
}

/// Record `setup_s`: the median over the measured set-up (which took
/// `first` seconds) and `p.setup_reps - 1` more, made after the timed phase
/// so they leave its memory high-water mark alone. `once` sets up, tears
/// down, and returns the set-up's time.
pub fn record_setup(
    run: &mut Run,
    p: &Params,
    first: f64,
    mut once: impl FnMut(&mut Run) -> Option<f64>,
) {
    let mut times = vec![first];
    for _ in 1..p.setup_reps {
        match once(run) {
            Some(t) => times.push(t),
            None => return,
        }
    }
    run.set_sampled("setup_s", median(&times).unwrap_or(0.0), times.len());
}

/// Record a median span in nanoseconds with its sample count; a median the
/// sample count cannot support fails the run.
pub fn record_median_ns(run: &mut Run, name: &'static str, samples: &mut Samples) {
    match samples.percentile(0.5) {
        Ok(ns) => run.set_sampled(name, ns as f64, samples.len()),
        Err(e) => run.gate.fail(format!("{name}: {e}")),
    }
}

/// Record the structure's edge slots per live edge.
pub fn record_slots(run: &mut Run, m: &pbdmm::DynamicMatching) {
    let storage = m.storage_stats();
    run.set(
        "matching.slots_per_live_edge",
        storage.edge_slots as f64 / storage.live_edges.max(1) as f64,
    );
}

/// Record the pool's jobs and steals per batch between two readings.
pub fn record_pool(run: &mut Run, before: PoolStats, after: PoolStats, batches: u64) {
    let batches = batches.max(1) as f64;
    run.set(
        "primitives.pool_jobs_per_batch",
        (after.jobs - before.jobs) as f64 / batches,
    );
    run.set(
        "primitives.pool_steals_per_batch",
        (after.steals - before.steals) as f64 / batches,
    );
}

/// Record per-thread-group CPU and run-queue time between two clocks.
pub fn record_threads(run: &mut Run, start: &ThreadClock, end: &ThreadClock) {
    let groups = end.since(start);
    let get = |g: &str| groups.get(g).copied().unwrap_or((0.0, 0.0));
    run.set("threads.pool.cpu_s", get("pool").0);
    run.set("threads.pool.runq_wait_s", get("pool").1);
    run.set("threads.coalescer.cpu_s", get("coalescer").0);
    run.set("threads.coalescer.runq_wait_s", get("coalescer").1);
    run.set("threads.ckpt.cpu_s", get("ckpt").0);
    run.set("threads.conn.cpu_s", get("conn").0);
    run.set("threads.conn_writer.cpu_s", get("conn_writer").0);
}

/// Record the program recorder's per-phase breakdown over the timed phase
/// (`prof` is the delta of two snapshots). `updates` divides the phase
/// totals; the service phases `plan`, `wal_append`, `apply` and `complete`
/// partition each batch's busy span, and the remainder is
/// `service.unattributed_frac`.
pub fn record_phases(run: &mut Run, prof: &ProfileReport, updates: u64) {
    let per_update = |p: Phase| prof.phase(p).total_ns as f64 / updates.max(1) as f64;
    run.set("service.plan_ns_per_update", per_update(Phase::Plan));
    run.set(
        "service.wal_append_ns_per_update",
        per_update(Phase::WalAppend),
    );
    run.set("service.apply_ns_per_update", per_update(Phase::Apply));
    run.set(
        "service.complete_ns_per_update",
        per_update(Phase::Complete),
    );
    run.set("matching.settle_ns_per_update", per_update(Phase::Settle));
    run.set(
        "matching.snapshot_publish_ns_per_update",
        per_update(Phase::SnapshotPublish),
    );
    let batch_ns = prof.phase(Phase::Batch).total_ns;
    if batch_ns > 0 {
        let parts: u64 = [Phase::Plan, Phase::WalAppend, Phase::Apply, Phase::Complete]
            .iter()
            .map(|&p| prof.phase(p).total_ns)
            .sum();
        run.set(
            "service.busy_frac",
            batch_ns as f64 / prof.wall_ns.max(1) as f64,
        );
        run.set(
            "service.unattributed_frac",
            1.0 - parts as f64 / batch_ns as f64,
        );
    }
    let frames = prof.counter(Counter::FramesDecoded);
    if frames > 0 {
        run.set(
            "net.decode_ns_per_frame",
            prof.phase(Phase::NetDecode).total_ns as f64 / frames as f64,
        );
        run.set(
            "net.dispatch_ns_per_frame",
            prof.phase(Phase::NetDispatch).total_ns as f64 / frames as f64,
        );
    }
}

/// Shortest slice of the timed phase.
pub const SLICE: Duration = Duration::from_secs(1);
/// Fewest acks in a slice: enough for its p90 to have 20 samples beyond.
pub const SLICE_MIN_ACKS: usize = 200;

/// The timed phase, cut into slices of at least [`SLICE`] and
/// [`SLICE_MIN_ACKS`] acks. Throughput and each latency percentile are
/// computed per slice and reported as the median over the slices, so a
/// burst of interference from other tenants of a shared host moves a few
/// slices, not the figure.
#[derive(Debug)]
pub struct Timed {
    start: Instant,
    slice_start: Instant,
    slice_updates: u64,
    ack: Samples,
    read: Samples,
    /// Acknowledged updates over the whole phase.
    pub updates: u64,
    rates: Vec<f64>,
    per_slice: [Vec<f64>; 4],
    counted: [usize; 4],
}

impl Timed {
    /// Start the clock.
    pub fn start() -> Timed {
        let now = Instant::now();
        Timed {
            start: now,
            slice_start: now,
            slice_updates: 0,
            ack: Samples::default(),
            read: Samples::default(),
            updates: 0,
            rates: Vec::new(),
            per_slice: Default::default(),
            counted: [0; 4],
        }
    }

    /// Time since the phase started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// One update's submit→ack latency.
    pub fn ack(&mut self, ns: u64) {
        self.ack.push(ns);
    }

    /// One read's latency.
    pub fn read(&mut self, ns: u64) {
        self.read.push(ns);
    }

    /// `n` updates were acknowledged.
    pub fn acked(&mut self, n: u64) {
        self.updates += n;
        self.slice_updates += n;
    }

    /// Leave `d` (spent on a correctness check) out of the timed phase.
    pub fn exclude(&mut self, d: Duration) {
        self.start += d;
        self.slice_start += d;
    }

    /// Close the current slice if it is long enough. Call between windows.
    pub fn tick(&mut self) {
        if self.slice_start.elapsed() >= SLICE && self.ack.len() >= SLICE_MIN_ACKS {
            self.close_slice();
        }
    }

    fn close_slice(&mut self) {
        let now = Instant::now();
        let secs = (now - self.slice_start).as_secs_f64();
        self.rates.push(self.slice_updates as f64 / secs);
        let mut ack = std::mem::take(&mut self.ack);
        let mut read = std::mem::take(&mut self.read);
        let quantiles = [
            ack.percentile(0.5).map(|ns| (ns, ack.len())),
            ack.percentile(0.9).map(|ns| (ns, ack.len())),
            read.percentile(0.5).map(|ns| (ns, read.len())),
            read.percentile(0.9).map(|ns| (ns, read.len())),
        ];
        for (i, q) in quantiles.into_iter().enumerate() {
            if let Ok((ns, n)) = q {
                self.per_slice[i].push(ns as f64 / 1e3);
                self.counted[i] += n;
            }
        }
        self.slice_start = now;
        self.slice_updates = 0;
    }

    /// End the phase and record `updates_per_s` and the ack and read
    /// percentiles (µs). A final slice shorter than half a [`SLICE`] is
    /// dropped. A metric no slice could support fails the run. Returns the
    /// phase's wall time in seconds.
    pub fn finish(mut self, run: &mut Run) -> f64 {
        let wall = self.start.elapsed().as_secs_f64();
        if self.slice_start.elapsed() >= SLICE / 2 && self.ack.len() >= SLICE_MIN_ACKS {
            self.close_slice();
        }
        match median(&self.rates) {
            Some(v) => run.set_sampled("updates_per_s", v, self.rates.len()),
            None => run.gate.fail("updates_per_s: no complete slice"),
        }
        let names = ["ack_p50_us", "ack_p90_us", "read_p50_us", "read_p90_us"];
        for (i, name) in names.into_iter().enumerate() {
            match median(&self.per_slice[i]) {
                Some(v) => run.set_sampled(name, v, self.counted[i]),
                None => run
                    .gate
                    .fail(format!("{name}: no slice had enough samples")),
            }
        }
        run.meta("slices", self.rates.len());
        let rates: Vec<String> = self.rates.iter().map(|r| format!("{r:.0}")).collect();
        run.meta("slice_rates", rates.join(" "));
        run.meta("timed_s", format!("{wall:.3}"));
        wall
    }
}
