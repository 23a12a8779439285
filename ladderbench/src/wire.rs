//! `wire_mixed` — rung 5, the loopback daemon.
//!
//! An in-process `net::Daemon` on 127.0.0.1 (segmented WAL without fsync,
//! the same checkpoint interval as `service_ingest`) and one
//! `Client::connect` connection. Each window pipelines 64 singleton
//! `SubmitBatch` frames — 32 inserts and 32 deletes of the oldest live ids
//! — then reads the 64 completions in order, then makes 8 `point_query`
//! round trips. The wire protocol, the daemon's connection threads and the
//! socket round trips dominate, with reads beside writes.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use pbdmm::graph::wal::WalMeta;
use pbdmm::matching::api::DynamicMatchingBuilder;
use pbdmm::matching::verify::check_invariants;
use pbdmm::net::{Client, Daemon, DaemonConfig, DaemonReport, Request, Response, UpdateResult};
use pbdmm::primitives::obs::{Counter, ProfileReport, Recorder};
use pbdmm::primitives::pool::ParPool;
use pbdmm::primitives::rng::SplitMix64;
use pbdmm::service::WalConfig;
use pbdmm::{EdgeId, Update};

use crate::gate::{answer_consistent, ensure, Gate};
use crate::gen::{subseed, EdgeGen};
use crate::ingest::{recover, CHECKPOINT_EVERY, LIVE_EDGES, VERTICES};
use crate::measure::{
    nproc, record_median_ns, record_phases, record_pool, record_setup, record_slots,
    record_threads, remove_dir, scratch_dir, timed_setup, Params, Timed,
};
use crate::procfs::{peak_rss_mib, ThreadClock};
use crate::report::Run;
use crate::stats::Samples;

/// Singleton `SubmitBatch` frames per window: half inserts, half deletes.
pub const WINDOW_FRAMES: usize = 64;
/// `point_query` round trips per window.
const QUERIES_PER_WINDOW: usize = 8;
/// Updates per preload frame.
const PRELOAD_FRAME: usize = 1024;
/// Windows run before timing starts.
const WARMUP_WINDOWS: usize = 200;
/// The timed phase runs at least this many windows.
const MIN_WINDOWS: usize = 1000;
/// An ack slower than this counts as a stall.
const STALL_NS: u64 = 10_000_000;

struct Rig {
    client: Client,
    daemon: JoinHandle<DaemonReport>,
    pool: Arc<ParPool>,
    dir: PathBuf,
    gen: EdgeGen,
    live: VecDeque<EdgeId>,
}

/// Latencies one window observed.
#[derive(Default)]
struct WindowSpans {
    epoch: u64,
    stalls: u64,
    send_ns: u64,
    first_ack_ns: u64,
    last_ack_ns: u64,
}

impl Rig {
    fn setup(seed: u64, recorder: &Recorder) -> Result<Rig, String> {
        let dir = scratch_dir("wire_mixed");
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
        let mut wal = WalConfig::dir(&dir, meta);
        wal.checkpoint_every = Some(CHECKPOINT_EVERY);
        let cfg = DaemonConfig {
            addr: "127.0.0.1:0".into(),
            wal: Some(wal),
            pool: Some(pool.clone()),
            obs: recorder.clone(),
            ..DaemonConfig::default()
        };
        let daemon = Daemon::start(dm, cfg)?;
        let addr: SocketAddr = daemon.local_addr();
        let daemon = std::thread::spawn(move || daemon.run());
        let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut rig = Rig {
            client,
            daemon,
            pool,
            dir,
            gen: EdgeGen::new(subseed(seed, 2), VERTICES),
            live: VecDeque::with_capacity(LIVE_EDGES + WINDOW_FRAMES),
        };
        // Pipeline the preload up to the daemon's per-connection in-flight
        // cap, so it does not pay one round trip per frame.
        let frames_in_flight = (DaemonConfig::default().max_inflight / PRELOAD_FRAME).max(1);
        while rig.live.len() < LIVE_EDGES {
            let mut req_ids = Vec::with_capacity(frames_in_flight);
            let mut queued = rig.live.len();
            while req_ids.len() < frames_in_flight && queued < LIVE_EDGES {
                let k = PRELOAD_FRAME.min(LIVE_EDGES - queued);
                queued += k;
                let req_id = rig.client.next_req_id();
                let updates = (0..k).map(|_| Update::Insert(rig.gen.edge())).collect();
                rig.client
                    .send_buffered(&Request::SubmitBatch { req_id, updates })
                    .map_err(|e| format!("preload: {e}"))?;
                req_ids.push(req_id);
            }
            rig.client.flush().map_err(|e| format!("preload: {e}"))?;
            for req_id in req_ids {
                let results = match rig.client.recv_for(req_id) {
                    Ok(Response::Completion { results, .. }) => results,
                    Ok(r) => return Err(format!("preload: unexpected response {r:?}")),
                    Err(e) => return Err(format!("preload: {e}")),
                };
                for r in results {
                    let id = r.id().ok_or_else(|| format!("preload rejected: {r:?}"))?;
                    rig.live.push_back(id);
                }
            }
        }
        let mut sink = Gate::default();
        for _ in 0..WARMUP_WINDOWS {
            rig.window(&mut sink, None);
        }
        if sink.failed > 0 {
            return Err(format!("warm-up: {}", sink.failures.join("; ")));
        }
        Ok(rig)
    }

    /// Pipeline one window of singleton frames and read every completion.
    /// Each update's ack latency runs from the window's first send and is
    /// recorded in `timed`.
    fn window(&mut self, gate: &mut Gate, mut timed: Option<&mut Timed>) -> WindowSpans {
        let mut w = WindowSpans::default();
        let mut sent = Vec::with_capacity(WINDOW_FRAMES);
        let t0 = Instant::now();
        for i in 0..WINDOW_FRAMES {
            let op = if i < WINDOW_FRAMES / 2 {
                Update::Insert(self.gen.edge())
            } else {
                Update::Delete(self.live.pop_front().expect("live edges never run out"))
            };
            let req_id = self.client.next_req_id();
            let is_insert = op.is_insert();
            let req = Request::SubmitBatch {
                req_id,
                updates: vec![op],
            };
            if let Err(e) = self.client.send_buffered(&req) {
                gate.fail(format!("send: {e}"));
                return w;
            }
            sent.push((req_id, is_insert));
        }
        if let Err(e) = self.client.flush() {
            gate.fail(format!("flush: {e}"));
            return w;
        }
        w.send_ns = t0.elapsed().as_nanos() as u64;
        for (k, (req_id, is_insert)) in sent.into_iter().enumerate() {
            let resp = self.client.recv_for(req_id);
            let ns = t0.elapsed().as_nanos() as u64;
            if let Some(timed) = timed.as_deref_mut() {
                timed.ack(ns);
            }
            w.stalls += u64::from(ns > STALL_NS);
            if k == 0 {
                w.first_ack_ns = ns;
            }
            w.last_ack_ns = ns;
            let result = match resp {
                Ok(Response::Completion { epoch, results, .. }) if results.len() == 1 => {
                    w.epoch = w.epoch.max(epoch);
                    results.into_iter().next().expect("one result")
                }
                Ok(r) => {
                    gate.fail(format!("unexpected response {r:?}"));
                    continue;
                }
                Err(e) => {
                    gate.fail(format!("submit: {e}"));
                    continue;
                }
            };
            match (is_insert, result) {
                (true, UpdateResult::Inserted { id, .. }) => self.live.push_back(EdgeId(id)),
                (false, UpdateResult::Deleted { .. }) => {}
                (_, r) => {
                    gate.fail(format!("unexpected result {r:?}"));
                    continue;
                }
            }
            if let Some(timed) = timed.as_deref_mut() {
                timed.acked(1);
            }
            gate.pass(1);
        }
        w
    }

    /// Ask the daemon to drain and collect its final report.
    fn close(mut self, gate: &mut Gate) -> Option<(DaemonReport, PathBuf)> {
        if let Err(e) = self.client.shutdown() {
            gate.fail(format!("shutdown: {e}"));
        }
        drop(self.client);
        match self.daemon.join() {
            Ok(report) => Some((report, self.dir)),
            Err(_) => {
                gate.fail("daemon thread panicked");
                remove_dir(&self.dir);
                None
            }
        }
    }
}

/// Run `wire_mixed` once.
pub fn run(p: &Params) -> Run {
    let mut run = Run::default();
    run.meta("workload", "wire_mixed");
    run.meta("vertices", VERTICES);
    run.meta("live_edges", LIVE_EDGES);
    run.meta(
        "window",
        format!(
            "{WINDOW_FRAMES} pipelined singleton SubmitBatch frames (half FIFO deletes), then {QUERIES_PER_WINDOW} point_query round trips"
        ),
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
    run.meta("connections", 1);

    let recorder = Recorder::enabled_if(p.traced);
    let Some((mut rig, first_setup)) = timed_setup(&mut run, || Rig::setup(p.seed, &recorder))
    else {
        return run;
    };

    let mut reads = SplitMix64::new(subseed(p.seed, 3));
    let (mut send, mut first, mut last) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut windows, mut stalls) = (0usize, 0u64);
    let prof0 = scrape(&mut rig.client, p.traced, &mut run.gate);
    let pool0 = rig.pool.stats();
    let clock0 = ThreadClock::sample();
    let mut timed = Timed::start();
    while timed.elapsed() < p.timed || windows < MIN_WINDOWS {
        let w = rig.window(&mut run.gate, Some(&mut timed));
        windows += 1;
        stalls += w.stalls;
        send.push(w.send_ns);
        first.push(w.first_ack_ns);
        last.push(w.last_ack_ns);
        for _ in 0..QUERIES_PER_WINDOW {
            let v = (reads.next_u64() % VERTICES as u64) as u32;
            let ts = Instant::now();
            let ans = rig.client.point_query(v);
            timed.read(ts.elapsed().as_nanos() as u64);
            match ans {
                Ok(a) if a.epoch < w.epoch => run.gate.fail(format!(
                    "read-your-writes: answer epoch {} < acknowledged {}",
                    a.epoch, w.epoch
                )),
                Ok(a) => run.gate.check(
                    "read",
                    answer_consistent(v, a.matched_edge.map(|_| a.partners.as_slice())),
                ),
                Err(e) => run.gate.fail(format!("point_query: {e}")),
            }
        }
        timed.tick();
    }
    let updates = timed.updates;
    timed.finish(&mut run);
    let clock1 = ThreadClock::sample();
    let pool1 = rig.pool.stats();
    let prof = scrape(&mut rig.client, p.traced, &mut run.gate).delta(&prof0);

    run.set("net.stall_frac", stalls as f64 / updates.max(1) as f64);
    record_threads(&mut run, &clock0, &clock1);
    if p.traced {
        record_phases(&mut run, &prof, updates);
        for (name, s) in [
            ("net.window_send_us", &mut send),
            ("net.window_first_ack_us", &mut first),
            ("net.window_last_ack_us", &mut last),
        ] {
            record_median_ns(&mut run, name, s);
            run.set(name, run.get(name) / 1e3);
        }
        record_pool(&mut run, pool0, pool1, prof.counter(Counter::Batches));
    }
    run.meta("timed_windows", windows);

    let wire = rig.client.stats();
    match &wire {
        Ok(s) => {
            run.gate.check(
                "protocol_errors",
                ensure(s.protocol_errors == 0, || {
                    format!("{} protocol errors", s.protocol_errors)
                }),
            );
            run.gate.check(
                "overloaded",
                ensure(s.overloaded == 0, || {
                    format!("{} Overloaded refusals", s.overloaded)
                }),
            );
        }
        Err(e) => run.gate.fail(format!("stats: {e}")),
    }
    if let Some((report, dir)) = rig.close(&mut run.gate) {
        run.set("service.mean_batch_len", report.service.mean_batch_len());
        run.set(
            "service.flush_idle_frac",
            report.service.flush_idle as f64 / report.service.batches.max(1) as f64,
        );
        record_slots(&mut run, &report.structure);
        if let Ok(s) = &wire {
            let m = &report.structure;
            run.gate.check(
                "served state",
                ensure(
                    (s.epoch, s.num_edges) == (m.epoch(), m.num_edges() as u64),
                    || {
                        format!(
                            "daemon reported epoch {} with {} edges, drained structure has {} with {}",
                            s.epoch,
                            s.num_edges,
                            m.epoch(),
                            m.num_edges()
                        )
                    },
                ),
            );
        }
        run.gate
            .check("check_invariants", check_invariants(&report.structure));
        let mut gate_only = Run::default();
        recover(&mut gate_only, &dir, &report.structure, 1);
        run.gate.absorb(gate_only.gate);
        remove_dir(&dir);
    }
    run.set("peak_rss_mb", peak_rss_mib());
    record_setup(&mut run, p, first_setup, |run| {
        let (rig, secs) = timed_setup(run, || Rig::setup(p.seed, &recorder))?;
        if let Some((_, dir)) = rig.close(&mut run.gate) {
            remove_dir(&dir);
        }
        Some(secs)
    });
    run
}

/// The daemon's cumulative profile (empty when untraced, so the untraced
/// run sends no extra frames).
fn scrape(client: &mut Client, traced: bool, gate: &mut Gate) -> ProfileReport {
    if !traced {
        return ProfileReport::empty();
    }
    client.profile().unwrap_or_else(|e| {
        gate.fail(format!("profile scrape: {e}"));
        ProfileReport::empty()
    })
}
