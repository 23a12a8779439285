//! `apply_churn` — rung 1, the bare structure.
//!
//! About a million live hyperedges (rank 2–4) over 2^20 vertices, larger
//! than the last-level cache. After the preload every batch deletes 512
//! uniformly chosen live edges and inserts 512 fresh ones, through direct
//! `DynamicMatching::apply` calls on a pool of `nproc` threads, snapshots
//! off. Only `matching` and `primitives` run. Each `apply` call is one ack
//! sample; after each batch, a few point queries against the structure
//! itself are the read samples.

use std::hint::black_box;
use std::time::Instant;

use pbdmm::matching::api::DynamicMatchingBuilder;
use pbdmm::matching::verify::check_invariants;
use pbdmm::primitives::obs::Recorder;
use pbdmm::primitives::pool::ParPool;
use pbdmm::primitives::rng::SplitMix64;
use pbdmm::{Batch, DynamicMatching, EdgeId};

use crate::gate::answer_consistent;
use crate::gen::{subseed, ChurnGen};
use crate::measure::{
    nproc, record_phases, record_pool, record_setup, record_slots, record_threads, timed_setup,
    Params, Timed,
};
use crate::procfs::{peak_rss_mib, ThreadClock};
use crate::report::Run;

/// Vertices.
pub const VERTICES: u32 = 1 << 17;
/// Live edges after the preload, held constant by the churn.
pub const LIVE_EDGES: usize = 1 << 17;
/// Deletes per churn batch.
pub const DELETES: usize = 512;
/// Inserts per churn batch.
pub const INSERTS: usize = 512;
/// Inserts per preload batch.
const PRELOAD_BATCH: usize = 1 << 16;
/// Churn batches run before timing starts.
const WARMUP_BATCHES: usize = 1000;
/// Point queries after each timed batch.
const READS_PER_BATCH: usize = 8;
/// The model-cost counters are summed over exactly this many timed
/// batches, so they repeat exactly for a seed. The timed phase also runs
/// at least this long, so every percentile has at least this many samples.
pub const COUNTED_BATCHES: usize = 1000;

/// The structure under load plus the benchmark's own view of it.
struct Rig {
    dm: DynamicMatching,
    pool: std::sync::Arc<ParPool>,
    gen: ChurnGen,
    /// Live edge ids, in the order the generator's positions index.
    live: Vec<EdgeId>,
}

impl Rig {
    fn setup(seed: u64) -> Result<Rig, String> {
        let pool = ParPool::with_threads(nproc());
        let mut dm = DynamicMatchingBuilder::new()
            .seed(subseed(seed, 1))
            .pool(pool.clone())
            .recycle_ids(true)
            .build();
        let mut gen = ChurnGen::new(subseed(seed, 2), VERTICES);
        let mut live = Vec::with_capacity(LIVE_EDGES);
        while live.len() < LIVE_EDGES {
            let k = PRELOAD_BATCH.min(LIVE_EDGES - live.len());
            let out = dm
                .apply(Batch::new().inserts(gen.preload(k)))
                .map_err(|e| format!("preload: {e}"))?;
            live.extend(out.inserted);
        }
        let mut rig = Rig {
            dm,
            pool,
            gen,
            live,
        };
        for _ in 0..WARMUP_BATCHES {
            let batch = rig.next_batch();
            let out = rig.dm.apply(batch).map_err(|e| format!("warm-up: {e}"))?;
            rig.live.extend(out.inserted);
        }
        Ok(rig)
    }

    /// One churn batch: the deletes are chosen by position before the
    /// structure is touched.
    fn next_batch(&mut self) -> Batch {
        let b = self.gen.batch(self.live.len(), DELETES, INSERTS);
        let deletes: Vec<EdgeId> = b
            .delete_positions
            .iter()
            .map(|&p| self.live.swap_remove(p))
            .collect();
        Batch::new().deletes(deletes).inserts(b.inserts)
    }
}

/// Run `apply_churn` once.
pub fn run(p: &Params) -> Run {
    let mut run = Run::default();
    run.meta("workload", "apply_churn");
    run.meta("vertices", VERTICES);
    run.meta("live_edges", LIVE_EDGES);
    run.meta("batch", format!("{DELETES} deletes + {INSERTS} inserts"));
    run.meta("reads_per_batch", READS_PER_BATCH);
    run.meta("wal", "none");
    run.meta("pool_threads", nproc());

    let Some((mut rig, first_setup)) = timed_setup(&mut run, || Rig::setup(p.seed)) else {
        return run;
    };

    let recorder = Recorder::enabled_if(p.traced);
    rig.dm.set_obs(recorder.clone());
    let prof0 = recorder.snapshot();
    let mut reads = SplitMix64::new(subseed(p.seed, 3));
    let (mut work, mut settle_iters, mut batches) = (0u64, 0u64, 0usize);
    let pool0 = rig.pool.stats();
    let clock0 = ThreadClock::sample();
    let mut timed = Timed::start();
    while timed.elapsed() < p.timed || batches < COUNTED_BATCHES {
        let batch = rig.next_batch();
        let n = batch.len() as u64;
        let ts = Instant::now();
        let out = rig.dm.apply(batch);
        timed.ack(ts.elapsed().as_nanos() as u64);
        match out {
            Ok(out) => {
                rig.live.extend(out.inserted);
                if batches < COUNTED_BATCHES {
                    work += out.report.cost.work;
                    settle_iters += out.report.settle_iterations;
                }
                timed.acked(n);
                run.gate.pass(n);
            }
            Err(e) => {
                run.gate.fail(format!("apply: {e}"));
                break;
            }
        }
        batches += 1;
        for _ in 0..READS_PER_BATCH {
            let v = (reads.next_u64() % VERTICES as u64) as u32;
            let ts = Instant::now();
            let edge = rig
                .dm
                .matched_edge_of(v)
                .and_then(|e| rig.dm.edge_vertices(e));
            timed.read(ts.elapsed().as_nanos() as u64);
            match answer_consistent(v, black_box(edge)) {
                Ok(()) => run.gate.pass(1),
                Err(e) => run.gate.fail(format!("read: {e}")),
            }
        }
        timed.tick();
    }
    let updates = timed.updates;
    timed.finish(&mut run);
    let clock1 = ThreadClock::sample();
    let pool1 = rig.pool.stats();
    let prof = recorder.snapshot().delta(&prof0);

    let counted = batches.min(COUNTED_BATCHES);
    run.set(
        "matching.work_per_update",
        work as f64 / (counted * (DELETES + INSERTS)) as f64,
    );
    run.set(
        "matching.settle_iterations_per_batch",
        settle_iters as f64 / counted as f64,
    );
    record_slots(&mut run, &rig.dm);
    record_pool(&mut run, pool0, pool1, batches as u64);
    record_threads(&mut run, &clock0, &clock1);
    if p.traced {
        record_phases(&mut run, &prof, updates);
    }
    run.meta("timed_batches", batches);
    run.meta("counted_batches", counted);

    run.gate
        .check("check_invariants", check_invariants(&rig.dm));
    run.set("peak_rss_mb", peak_rss_mib());
    drop(rig);
    record_setup(&mut run, p, first_setup, |run| {
        timed_setup(run, || Rig::setup(p.seed)).map(|(_, secs)| secs)
    });
    run
}
