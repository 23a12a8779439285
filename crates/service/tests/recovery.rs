//! Segmented-WAL recovery properties, end to end through the service.
//!
//! The contract under test: **checkpoint-load + tail-replay reconstructs
//! the exact state a full-history replay would** — same live edge ids
//! (including recycled ones), same matching, same storage occupancy, same
//! epoch — across seeds and both id-allocation modes. And recovery is
//! crash-tolerant at every byte: truncating the newest checkpoint falls
//! back to an older one, truncating the tail segment recovers the longest
//! committed prefix; neither ever turns into an error. A log that never
//! committed a batch restarts as empty history.
//!
//! The driver submits one update at a time and waits for its ticket, so
//! every logged batch is a singleton and batch `k` is exactly update `k`:
//! any recovered `next_seq` maps directly onto a prefix of the recorded
//! update stream, which a directly-driven twin replays for comparison.

use std::path::PathBuf;
use std::time::Duration;

use pbdmm_graph::edge::EdgeId;
use pbdmm_graph::update::Batch;
use pbdmm_graph::wal::{self, WalMeta};
use pbdmm_matching::snapshot::Snapshots;
use pbdmm_matching::verify::check_invariants;
use pbdmm_matching::DynamicMatching;
use pbdmm_primitives::rng::SplitMix64;
use pbdmm_service::{
    recover_matching_from_dir, CoalescePolicy, ServiceConfig, ServiceError, WalConfig,
};

fn fresh(seed: u64, recycling: bool) -> DynamicMatching {
    let mut m = DynamicMatching::with_seed(seed);
    if recycling {
        m.set_recycle_ids(true);
    }
    m
}

fn tdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pbdmm_recovery_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Run a service over a fresh segmented WAL at `dir`, submit `updates`
/// random single updates (waiting on each, so batches are singletons),
/// and return the served structure plus the ops as singleton batches.
fn run_service(
    dir: &PathBuf,
    seed: u64,
    recycling: bool,
    updates: usize,
    every: u64,
) -> (DynamicMatching, Vec<Batch>) {
    let meta = WalMeta {
        structure: "matching".into(),
        seed,
        ids_recycling: recycling,
    };
    let mut wal = WalConfig::dir(dir, meta);
    wal.checkpoint_every = Some(every);
    let svc = ServiceConfig::builder()
        .policy(CoalescePolicy {
            max_batch: 4,
            max_delay: Duration::ZERO,
        })
        .wal(wal)
        .start(fresh(seed, recycling))
        .expect("start service on fresh dir");
    let h = svc.handle();
    let mut rng = SplitMix64::new(seed ^ 0xD1CE);
    let mut live: Vec<EdgeId> = Vec::new();
    let mut ops = Vec::new();
    for _ in 0..updates {
        if !live.is_empty() && rng.bounded(10) < 4 {
            let id = live.swap_remove(rng.bounded(live.len() as u64) as usize);
            h.delete(id).wait().expect("delete own id");
            ops.push(Batch::new().delete(id));
        } else {
            let a = rng.bounded(40) as u32;
            let edge = vec![a, a + 1 + rng.bounded(5) as u32];
            let c = h.insert(edge.clone()).wait().expect("insert");
            live.push(c.done.id());
            ops.push(Batch::new().insert(edge));
        }
    }
    drop(h);
    let (m, stats) = svc.shutdown();
    assert!(stats.checkpoints > 0, "interval {every} never checkpointed");
    assert_eq!(stats.updates as usize, updates);
    (m, ops)
}

/// The full-replay reference: drive a fresh same-seeded twin through the
/// recorded singleton batches directly.
fn replay_prefix(seed: u64, recycling: bool, ops: &[Batch]) -> DynamicMatching {
    let mut m = fresh(seed, recycling);
    for b in ops {
        m.apply(b.clone()).expect("recorded op replays");
    }
    m
}

/// Exact-state equality: ids (occupancy included), matching, snapshot
/// (epoch, edges, matched pairs).
fn assert_same(a: &DynamicMatching, b: &DynamicMatching) {
    assert_eq!(a.storage_stats(), b.storage_stats());
    let mut ia = a.structure().edges.ids().to_vec();
    let mut ib = b.structure().edges.ids().to_vec();
    ia.sort_unstable();
    ib.sort_unstable();
    assert_eq!(ia, ib, "live edge ids must agree exactly");
    assert_eq!(Snapshots::snapshot(a), Snapshots::snapshot(b));
}

/// The newest file in `dir` with the given extension, with its sequence
/// (parsed off the `NNNNNN` stem).
fn newest(dir: &PathBuf, ext: &str) -> (u64, PathBuf) {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    files.sort();
    let path = files
        .pop()
        .unwrap_or_else(|| panic!("no .{ext} in {dir:?}"));
    let seq = path
        .file_stem()
        .and_then(|s| s.to_str())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable segment name {path:?}"));
    (seq, path)
}

#[test]
fn checkpoint_plus_tail_equals_full_replay_across_seeds_and_id_modes() {
    for seed in [3u64, 17, 99] {
        for recycling in [false, true] {
            let dir = tdir(&format!("prop_{seed}_{recycling}"));
            let (served, ops) = run_service(&dir, seed, recycling, 200, 48);
            check_invariants(&served).unwrap();

            let rec = recover_matching_from_dir(&dir, false).expect("recover");
            let ckpt = rec.checkpoint.expect("a checkpoint must have been used");
            assert!(ckpt > 0 && ckpt < 200, "checkpoint {ckpt} out of range");
            assert_eq!(rec.next_seq, 200, "every committed batch reconstructs");
            assert!(!rec.truncated);
            check_invariants(&rec.structure).unwrap();
            // Same state as the structure the service handed back ...
            assert_same(&rec.structure, &served);
            // ... and as a genuine full-history replay of the update
            // stream, ids included — checkpoint restore plus tail replay
            // is indistinguishable from replaying everything.
            let full = replay_prefix(seed, recycling, &ops);
            assert_same(&rec.structure, &full);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn torn_newest_checkpoint_falls_back_at_every_byte() {
    let dir = tdir("torn_ckpt");
    let (served, _ops) = run_service(&dir, 7, false, 120, 40);
    let (_, ckpt_path) = newest(&dir, "ckpt");
    let orig = std::fs::read(&ckpt_path).unwrap();
    assert!(!orig.is_empty());
    // Every proper truncation of the newest checkpoint: recovery must fall
    // back (to the older retained checkpoint, or — at cuts that leave the
    // `# end` trailer intact, like the final newline — still load it) and
    // always reconstruct the exact final state.
    for cut in 0..orig.len() {
        std::fs::write(&ckpt_path, &orig[..cut]).unwrap();
        let rec = recover_matching_from_dir(&dir, false)
            .unwrap_or_else(|e| panic!("cut at byte {cut}: recovery errored: {e}"));
        assert_eq!(rec.next_seq, 120, "cut at byte {cut}");
        check_invariants(&rec.structure).unwrap();
        assert_same(&rec.structure, &served);
    }
    std::fs::write(&ckpt_path, &orig).unwrap();
    let rec = recover_matching_from_dir(&dir, false).unwrap();
    assert_same(&rec.structure, &served);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_tail_segment_recovers_a_committed_prefix_at_every_byte() {
    let dir = tdir("torn_seg");
    let (served, ops) = run_service(&dir, 11, true, 130, 40);
    let (base, seg_path) = newest(&dir, "seg");
    assert!(base > 0 && base < 130, "tail segment base {base}");
    let orig = std::fs::read(&seg_path).unwrap();
    // Every truncation of the tail segment — mid-header, mid-batch,
    // mid-commit-marker — recovers the longest committed prefix, never
    // errors, and the recovered state equals a direct replay of exactly
    // that many updates.
    for cut in 0..orig.len() {
        std::fs::write(&seg_path, &orig[..cut]).unwrap();
        let rec = recover_matching_from_dir(&dir, false)
            .unwrap_or_else(|e| panic!("cut at byte {cut}: recovery errored: {e}"));
        assert!(
            rec.next_seq >= base && rec.next_seq <= 130,
            "cut at byte {cut}: recovered {} batches",
            rec.next_seq
        );
        check_invariants(&rec.structure).unwrap();
        let reference = replay_prefix(11, true, &ops[..rec.next_seq as usize]);
        assert_same(&rec.structure, &reference);
    }
    std::fs::write(&seg_path, &orig).unwrap();
    let rec = recover_matching_from_dir(&dir, false).unwrap();
    assert_eq!(rec.next_seq, 130);
    assert_same(&rec.structure, &served);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_log_that_never_committed_restarts_as_empty_history() {
    // A crash between creating the log and its first commit leaves a sole
    // `000000.seg` holding the header, or a torn prefix of it. Every such
    // cut, the whole header included, must restart at seq 0, and what the
    // restarted service logs must recover.
    let meta = WalMeta {
        structure: "matching".into(),
        seed: 23,
        ids_recycling: false,
    };
    let builder = |dir: &PathBuf| ServiceConfig::builder().wal_dir(dir, meta.clone());
    let dir = tdir("never_committed");
    let (svc, _query) = builder(&dir).start_serving(fresh(23, false)).unwrap();
    drop(svc.shutdown());
    let seg = dir.join("000000.seg");
    let header = std::fs::read(&seg).unwrap();
    assert!(header.starts_with(b"# pbdmm-wal v1"), "header-only segment");

    for cut in 0..=header.len() {
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&seg, &header[..cut]).unwrap();
        // A fresh start still refuses the directory ...
        match builder(&dir).start_serving(fresh(23, false)) {
            Err(ServiceError::Wal(e)) => assert!(e.contains("refusing to overwrite"), "{e}"),
            other => panic!(
                "cut at byte {cut}: fresh start over a log: {:?}",
                other.err()
            ),
        }
        // ... while recovery resumes it as empty history.
        let (svc, query, info) = builder(&dir)
            .recover_and_start_serving(|| fresh(23, false))
            .unwrap_or_else(|e| panic!("cut at byte {cut}: restart failed: {e}"));
        assert_eq!(
            (info.batches, info.checkpoint),
            (0, None),
            "cut at byte {cut}"
        );
        let c = svc.handle().insert(vec![1, 2]).wait().unwrap();
        assert_eq!(c.seq, 0, "cut at byte {cut}");
        assert_eq!(query.epoch(), 1);
        let (served, _) = svc.shutdown();
        let rec = recover_matching_from_dir(&dir, false).unwrap();
        assert_eq!(rec.next_seq, 1, "cut at byte {cut}");
        assert_same(&rec.structure, &served);
    }

    // A torn segment that is not the last one is still corruption: the
    // history after it cannot be replayed.
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(&seg, &header[..header.len() / 2]).unwrap();
    let mut next = Vec::new();
    wal::write_segment_header(&mut next, &meta, 1).unwrap();
    wal::write_batch(&mut next, 1, &Batch::new().insert(vec![3, 4])).unwrap();
    std::fs::write(dir.join("000001.seg"), next).unwrap();
    assert!(builder(&dir)
        .recover_and_start_serving(|| fresh(23, false))
        .is_err());
    assert!(recover_matching_from_dir(&dir, false).is_err());
    std::fs::remove_dir_all(&dir).ok();
}
