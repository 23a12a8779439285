//! `service_ingest` — rung 3, the in-process service with its WAL.
//!
//! An `UpdateService` started with `start_serving`, logging to a segmented
//! WAL directory without fsync and checkpointing every
//! [`CHECKPOINT_EVERY`] updates. One producer thread (this one) keeps about
//! 32k live edges: each window submits 64 inserts and 64 deletes of the
//! oldest live ids, waits for all 128 tickets, then runs a few snapshot
//! point queries. Batches stay small, so the coalescer's serial spine —
//! plan, WAL append, complete — dominates and the pool idles. At the end
//! the WAL directory is recovered and compared with the served state.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use pbdmm::graph::wal::WalMeta;
use pbdmm::matching::api::DynamicMatchingBuilder;
use pbdmm::matching::snapshot::MatchingSnapshot;
use pbdmm::matching::verify::check_invariants;
use pbdmm::primitives::obs::{Counter, Recorder};
use pbdmm::primitives::pool::ParPool;
use pbdmm::primitives::rng::SplitMix64;
use pbdmm::service::{recover_matching_from_dir, Done, QueryHandle, ServiceHandle};
use pbdmm::{DynamicMatching, EdgeId, ServiceConfig, UpdateService};

use crate::gate::{answer_consistent, ensure, same_state};
use crate::gen::{subseed, EdgeGen};
use crate::measure::{
    nproc, record_median_ns, record_phases, record_pool, record_setup, record_slots,
    record_threads, remove_dir, scratch_dir, timed_setup, Params, Timed,
};
use crate::procfs::{dir_bytes, peak_rss_mib, wchar, ThreadClock};
use crate::report::Run;
use crate::stats::Samples;

/// Vertices.
pub const VERTICES: u32 = 1 << 16;
/// Live edges after the preload, held constant by the window.
pub const LIVE_EDGES: usize = 1 << 15;
/// Insert tickets per window (and as many deletes).
pub const WINDOW_INSERTS: usize = 64;
/// Snapshot point queries after each window.
const READS_PER_WINDOW: usize = 8;
/// WAL checkpoint interval, in updates.
pub const CHECKPOINT_EVERY: u64 = 1 << 16;
/// Tickets in flight per preload round.
const PRELOAD_CHUNK: usize = 4096;
/// Windows run before timing starts.
const WARMUP_WINDOWS: usize = 200;
/// The timed phase runs at least this many windows.
const MIN_WINDOWS: usize = 1000;
/// Every this many windows, one snapshot's consistency is checked; the
/// check's time is left out of the timed phase.
const CHECK_EVERY: usize = 500;
/// Recoveries of the final WAL directory; `recover_s` is their median.
pub const RECOVERIES: usize = 5;

struct Rig {
    svc: UpdateService<DynamicMatching>,
    handle: ServiceHandle,
    query: QueryHandle<MatchingSnapshot>,
    pool: Arc<ParPool>,
    dir: PathBuf,
    gen: EdgeGen,
    /// Live ids, oldest first.
    live: VecDeque<EdgeId>,
}

/// What one window observed.
#[derive(Default)]
struct Window {
    /// Largest visibility epoch among the window's completions.
    epoch: u64,
}

impl Rig {
    fn setup(seed: u64, recorder: &Recorder) -> Result<Rig, String> {
        let dir = scratch_dir("service_ingest");
        let pool = ParPool::with_threads(nproc());
        let structure_seed = subseed(seed, 1);
        let dm = DynamicMatchingBuilder::new()
            .seed(structure_seed)
            .recycle_ids(true)
            .build();
        let meta = WalMeta {
            structure: "matching".into(),
            seed: structure_seed,
            ids_recycling: true,
        };
        let (svc, query) = ServiceConfig::builder()
            .pool(pool.clone())
            .wal_dir(&dir, meta)
            .wal_sync(false)
            .checkpoint_every(CHECKPOINT_EVERY)
            .obs(recorder.clone())
            .start_serving(dm)
            .map_err(|e| format!("start: {e}"))?;
        let handle = svc.handle();
        let mut rig = Rig {
            svc,
            handle,
            query,
            pool,
            dir,
            gen: EdgeGen::new(subseed(seed, 2), VERTICES),
            live: VecDeque::with_capacity(LIVE_EDGES + WINDOW_INSERTS),
        };
        while rig.live.len() < LIVE_EDGES {
            let k = PRELOAD_CHUNK.min(LIVE_EDGES - rig.live.len());
            let tickets: Vec<_> = (0..k).map(|_| rig.handle.insert(rig.gen.edge())).collect();
            for t in tickets {
                let c = t.wait().map_err(|e| format!("preload: {e}"))?;
                rig.live.push_back(c.done.id());
            }
        }
        let mut sink = crate::gate::Gate::default();
        for _ in 0..WARMUP_WINDOWS {
            rig.window(&mut sink, None, None);
        }
        if sink.failed > 0 {
            return Err(format!("warm-up: {}", sink.failures.join("; ")));
        }
        Ok(rig)
    }

    /// Submit one window, wait for every ticket, and record each update's
    /// submit→ack latency in `timed`. `submit` collects the submit-call
    /// spans when traced.
    fn window(
        &mut self,
        gate: &mut crate::gate::Gate,
        mut timed: Option<&mut Timed>,
        mut submit: Option<&mut Samples>,
    ) -> Window {
        let mut tickets = Vec::with_capacity(2 * WINDOW_INSERTS);
        for i in 0..2 * WINDOW_INSERTS {
            let op = if i < WINDOW_INSERTS {
                pbdmm::Update::Insert(self.gen.edge())
            } else {
                let id = self.live.pop_front().expect("live edges never run out");
                pbdmm::Update::Delete(id)
            };
            let is_insert = op.is_insert();
            let ts = Instant::now();
            let t = self.handle.submit(op);
            if let Some(s) = submit.as_deref_mut() {
                s.push(ts.elapsed().as_nanos() as u64);
            }
            tickets.push((ts, is_insert, t));
        }
        let mut w = Window::default();
        for (ts, is_insert, t) in tickets {
            let r = t.wait();
            if let Some(timed) = timed.as_deref_mut() {
                timed.ack(ts.elapsed().as_nanos() as u64);
            }
            match r {
                Ok(c) => {
                    w.epoch = w.epoch.max(c.epoch);
                    match (is_insert, c.done) {
                        (true, Done::Inserted(id)) => self.live.push_back(id),
                        (false, Done::Deleted(_)) => {}
                        (_, done) => {
                            gate.fail(format!("unexpected outcome {done:?}"));
                            continue;
                        }
                    }
                    if let Some(timed) = timed.as_deref_mut() {
                        timed.acked(1);
                    }
                    gate.pass(1);
                }
                Err(e) => gate.fail(format!("update: {e}")),
            }
        }
        w
    }
}

/// Run `service_ingest` once.
pub fn run(p: &Params) -> Run {
    let mut run = Run::default();
    run.meta("workload", "service_ingest");
    run.meta("vertices", VERTICES);
    run.meta("live_edges", LIVE_EDGES);
    run.meta(
        "window",
        format!("{WINDOW_INSERTS} inserts + {WINDOW_INSERTS} FIFO deletes, then {READS_PER_WINDOW} snapshot reads"),
    );
    run.meta(
        "wal",
        "segmented dir, flushed to the OS per batch, no fsync",
    );
    let policy = pbdmm::CoalescePolicy::default();
    run.meta(
        "coalesce",
        format!(
            "group commit, max_batch {}, max_delay {:?}",
            policy.max_batch, policy.max_delay
        ),
    );
    run.meta("checkpoint_every", CHECKPOINT_EVERY);
    run.meta("pool_threads", nproc());
    run.meta("producers", 1);

    let recorder = Recorder::enabled_if(p.traced);
    let Some((mut rig, first_setup)) = timed_setup(&mut run, || Rig::setup(p.seed, &recorder))
    else {
        return run;
    };

    let mut reads = SplitMix64::new(subseed(p.seed, 3));
    let mut submit = Samples::default();
    let (mut load_ns, mut query_ns) = (Samples::default(), Samples::default());
    let mut windows = 0usize;
    let prof0 = recorder.snapshot();
    let pool0 = rig.pool.stats();
    let clock0 = ThreadClock::sample();
    let wchar0 = wchar();
    let mut timed = Timed::start();
    while timed.elapsed() < p.timed || windows < MIN_WINDOWS {
        let w = rig.window(
            &mut run.gate,
            Some(&mut timed),
            p.traced.then_some(&mut submit),
        );
        windows += 1;
        for _ in 0..READS_PER_WINDOW {
            let v = (reads.next_u64() % VERTICES as u64) as u32;
            let ts = Instant::now();
            let snap = rig.query.snapshot();
            let tl = Instant::now();
            let edge = snap.matched_edge_of(v).and_then(|e| snap.edge_vertices(e));
            let te = Instant::now();
            timed.read((te - ts).as_nanos() as u64);
            if p.traced {
                load_ns.push((tl - ts).as_nanos() as u64);
                query_ns.push((te - tl).as_nanos() as u64);
            }
            let ryw = if snap.epoch() < w.epoch {
                Err(format!(
                    "read-your-writes: snapshot epoch {} < acknowledged {}",
                    snap.epoch(),
                    w.epoch
                ))
            } else {
                answer_consistent(v, edge)
            };
            run.gate.check("read", ryw);
        }
        if windows.is_multiple_of(CHECK_EVERY) {
            let t = Instant::now();
            let snap = rig.query.snapshot();
            run.gate
                .check("check_consistency", snap.check_consistency());
            timed.exclude(t.elapsed());
        }
        timed.tick();
    }
    let updates = timed.updates;
    timed.finish(&mut run);
    let written = wchar() - wchar0;
    let clock1 = ThreadClock::sample();
    let pool1 = rig.pool.stats();
    let prof = recorder.snapshot().delta(&prof0);

    run.set(
        "write_bytes_per_update",
        written as f64 / updates.max(1) as f64,
    );
    record_threads(&mut run, &clock0, &clock1);
    if p.traced {
        record_phases(&mut run, &prof, updates);
        record_median_ns(&mut run, "service.submit_ns", &mut submit);
        record_median_ns(&mut run, "snapshot.load_ns", &mut load_ns);
        record_median_ns(&mut run, "snapshot.query_ns", &mut query_ns);
        record_pool(&mut run, pool0, pool1, prof.counter(Counter::Batches));
    }
    run.meta("timed_windows", windows);

    let served_snapshot = rig.query.snapshot();
    drop(rig.handle);
    let (served, stats) = rig.svc.shutdown();
    run.set("service.mean_batch_len", stats.mean_batch_len());
    run.set(
        "service.flush_idle_frac",
        stats.flush_idle as f64 / stats.batches.max(1) as f64,
    );
    run.set("wal.checkpoints", stats.checkpoints as f64);
    run.set("wal.segments_removed", stats.wal_segments_removed as f64);
    record_slots(&mut run, &served);
    run.gate
        .check("check_invariants", check_invariants(&served));
    run.gate
        .check("check_consistency", served_snapshot.check_consistency());
    run.gate.check(
        "final snapshot",
        ensure(
            (served_snapshot.epoch(), served_snapshot.num_edges())
                == (served.epoch(), served.num_edges()),
            || {
                format!(
                    "snapshot at epoch {} with {} edges, structure at {} with {}",
                    served_snapshot.epoch(),
                    served_snapshot.num_edges(),
                    served.epoch(),
                    served.num_edges()
                )
            },
        ),
    );
    run.set(
        "disk_bytes_per_edge",
        dir_bytes(&rig.dir) as f64 / served.num_edges().max(1) as f64,
    );
    recover(&mut run, &rig.dir, &served, RECOVERIES);
    remove_dir(&rig.dir);
    run.set("peak_rss_mb", peak_rss_mib());
    drop(served);
    record_setup(&mut run, p, first_setup, |run| {
        let (rig, secs) = timed_setup(run, || Rig::setup(p.seed, &recorder))?;
        drop(rig.handle);
        rig.svc.shutdown();
        remove_dir(&rig.dir);
        Some(secs)
    });
    run
}

/// Recover the WAL directory `reps` times, check each result against the
/// served state, and record the median time.
pub fn recover(run: &mut Run, dir: &Path, served: &DynamicMatching, reps: usize) {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let rec = recover_matching_from_dir(dir, false);
        times.push(t.elapsed().as_secs_f64());
        match rec {
            Ok(rec) => {
                let info = rec.info();
                run.set("recover.tail_updates", info.report.updates as f64);
                run.set("recover.segments_replayed", info.segments_replayed as f64);
                run.gate
                    .check("recovered state", same_state(served, &rec.structure));
            }
            Err(e) => run.gate.fail(format!("recovery: {e}")),
        }
    }
    run.set_sampled(
        "recover_s",
        crate::stats::median(&times).unwrap_or(0.0),
        times.len(),
    );
}
