//! Unit checks of the benchmark's own machinery: percentiles, `/proc`
//! parsers, generators, the correctness gate and the metric catalogue.

use pbdmm::{Batch, DynamicMatching};
use pbdmm_ladderbench::gate::{answer_consistent, same_state, Gate};
use pbdmm_ladderbench::gen::{ChurnBatch, ChurnGen, EdgeGen, RANK_MAX, RANK_MIN};
use pbdmm_ladderbench::procfs::{parse_io, parse_schedstat, parse_status_kb, thread_group};
use pbdmm_ladderbench::report::{END_TO_END, PER_LAYER};
use pbdmm_ladderbench::stats::{median, percentile_sorted, Samples, MIN_BEYOND};

/// FNV-1a over a stream of words: the fingerprint the determinism tests
/// compare.
#[derive(Debug, Clone, Copy)]
struct StreamHash(u64);

impl Default for StreamHash {
    fn default() -> Self {
        StreamHash(0xcbf2_9ce4_8422_2325)
    }
}

impl StreamHash {
    /// Fold one word in.
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold a churn batch in.
    fn batch(&mut self, b: &ChurnBatch) {
        self.word(b.delete_positions.len() as u64);
        for &p in &b.delete_positions {
            self.word(p as u64);
        }
        for e in &b.inserts {
            self.edge(e);
        }
    }

    /// Fold one hyperedge in.
    fn edge(&mut self, e: &[u32]) {
        self.word(e.len() as u64);
        for &v in e {
            self.word(v as u64);
        }
    }

    /// The fingerprint.
    fn finish(&self) -> u64 {
        self.0
    }
}

#[test]
fn percentile_refuses_fewer_than_ten_samples_beyond_it() {
    let xs: Vec<u64> = (1..=19).collect();
    // p50 of 19 samples is rank 10, which leaves only 9 beyond it.
    assert!(percentile_sorted(&xs, 0.5).is_err());
    let xs: Vec<u64> = (1..=20).collect();
    assert_eq!(percentile_sorted(&xs, 0.5), Ok(10));
    // p90 needs 100 samples: rank 90 leaves 10 beyond.
    let xs: Vec<u64> = (1..=99).collect();
    assert!(percentile_sorted(&xs, 0.9).is_err());
    let xs: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile_sorted(&xs, 0.9), Ok(90));
    // p99 would need 1000.
    let xs: Vec<u64> = (1..=999).collect();
    assert!(percentile_sorted(&xs, 0.99).is_err());
    assert!(percentile_sorted(&[], 0.5).is_err());
    assert_eq!(MIN_BEYOND, 10);
}

#[test]
fn samples_sort_lazily_and_count_the_tail() {
    let mut s = Samples::default();
    for x in (1..=200u64).rev() {
        s.push(x);
    }
    assert_eq!(s.len(), 200);
    assert_eq!(s.percentile(0.5), Ok(100));
    assert_eq!(s.percentile(0.9), Ok(180));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn proc_parsers_read_canned_text() {
    assert_eq!(
        parse_schedstat("280794 994177 2\n"),
        Some((280_794, 994_177))
    );
    assert_eq!(parse_schedstat("garbage"), None);
    let io = "rchar: 3980\nwchar: 123456\nsyscr: 9\nsyscw: 4\nread_bytes: 0\n\
              write_bytes: 4096\ncancelled_write_bytes: 0\n";
    assert_eq!(parse_io(io, "wchar"), Some(123_456));
    assert_eq!(parse_io(io, "rchar"), Some(3980));
    assert_eq!(parse_io(io, "missing"), None);
    let status = "Name:\tladderbench\nVmPeak:\t  600000 kB\nVmHWM:\t  537600 kB\n\
                  VmRSS:\t  500000 kB\nThreads:\t4\n";
    assert_eq!(parse_status_kb(status, "VmHWM"), Some(537_600));
    assert_eq!(parse_status_kb(status, "VmRSS"), Some(500_000));
    assert_eq!(parse_status_kb(status, "VmSwap"), None);
}

#[test]
fn thread_names_map_to_groups() {
    assert_eq!(thread_group("pbdmm-par-0"), Some("pool"));
    assert_eq!(thread_group("pbdmm-par-13"), Some("pool"));
    assert_eq!(thread_group("pbdmm-coalescer"), Some("coalescer"));
    assert_eq!(thread_group("pbdmm-ckpt"), Some("ckpt"));
    assert_eq!(thread_group("pbdmm-conn"), Some("conn"));
    // The kernel keeps 15 bytes of `pbdmm-conn-writer`.
    assert_eq!(thread_group("pbdmm-conn-writ"), Some("conn_writer"));
    assert_eq!(thread_group("pbdmm-acceptor"), None);
    assert_eq!(thread_group("ladderbench"), None);
}

fn churn_stream_hash(seed: u64, live: usize, batches: usize) -> u64 {
    let mut gen = ChurnGen::new(seed, 1 << 12);
    let mut h = StreamHash::default();
    for e in gen.preload(64) {
        h.edge(&e);
    }
    for _ in 0..batches {
        h.batch(&gen.batch(live, 16, 16));
    }
    h.finish()
}

#[test]
fn generators_are_deterministic_per_seed() {
    assert_eq!(churn_stream_hash(7, 500, 50), churn_stream_hash(7, 500, 50));
    assert_ne!(churn_stream_hash(7, 500, 50), churn_stream_hash(8, 500, 50));
    let edges = |seed| {
        let mut g = EdgeGen::new(seed, 100);
        let mut h = StreamHash::default();
        for _ in 0..1000 {
            let e = g.edge();
            assert!((RANK_MIN..=RANK_MAX).contains(&(e.len() as u64)));
            assert!(e.iter().all(|&v| v < 100));
            let mut d = e.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), e.len(), "vertices of an edge are distinct");
            h.edge(&e);
        }
        h.finish()
    };
    assert_eq!(edges(3), edges(3));
    assert_ne!(edges(3), edges(4));
}

/// Drive a structure with a churn stream the way `apply_churn` does and
/// hash the operations it was given.
fn drive(structure_seed: u64, churn_seed: u64) -> (u64, Vec<u64>) {
    let mut dm = DynamicMatching::with_seed(structure_seed);
    dm.set_recycle_ids(true);
    let mut gen = ChurnGen::new(churn_seed, 256);
    let mut h = StreamHash::default();
    let pre = gen.preload(300);
    for e in &pre {
        h.edge(e);
    }
    let mut live = dm.apply(Batch::new().inserts(pre)).unwrap().inserted;
    for _ in 0..40 {
        let b = gen.batch(live.len(), 20, 20);
        h.batch(&b);
        let dels: Vec<_> = b
            .delete_positions
            .iter()
            .map(|&p| live.swap_remove(p))
            .collect();
        let out = dm
            .apply(Batch::new().deletes(dels).inserts(b.inserts))
            .unwrap();
        live.extend(out.inserted);
    }
    let mut matched: Vec<u64> = dm.matching().iter().map(|e| e.0).collect();
    matched.sort_unstable();
    (h.finish(), matched)
}

#[test]
fn delete_choice_never_reads_matching_state() {
    // Two structures with different private coins end up with different
    // matchings, yet receive exactly the same operation stream.
    let (ops_a, matched_a) = drive(1, 99);
    let (ops_b, matched_b) = drive(2, 99);
    assert_ne!(matched_a, matched_b, "the coins must change the matching");
    assert_eq!(ops_a, ops_b);
    // And that stream is the generator's alone: replaying the generator
    // with no structure at all gives the same fingerprint.
    let mut gen = ChurnGen::new(99, 256);
    let mut h = StreamHash::default();
    for e in gen.preload(300) {
        h.edge(&e);
    }
    for _ in 0..40 {
        h.batch(&gen.batch(300, 20, 20));
    }
    assert_eq!(h.finish(), ops_a);
}

#[test]
fn gate_fires_on_a_wrong_expected_state() {
    let mut served = DynamicMatching::with_seed(5);
    served
        .apply(Batch::new().inserts([vec![0, 1], vec![1, 2], vec![2, 3]]))
        .unwrap();
    let mut twin = DynamicMatching::with_seed(5);
    twin.apply(Batch::new().inserts([vec![0, 1], vec![1, 2], vec![2, 3]]))
        .unwrap();
    let mut gate = Gate::default();
    gate.check("twin", same_state(&served, &twin));
    assert_eq!((gate.attempted, gate.failed), (1, 0));

    // One more update: epoch and edge count differ.
    let mut ahead = DynamicMatching::with_seed(5);
    ahead
        .apply(Batch::new().inserts([vec![0, 1], vec![1, 2], vec![2, 3], vec![4, 5]]))
        .unwrap();
    gate.check("ahead", same_state(&served, &ahead));
    assert_eq!((gate.attempted, gate.failed), (2, 1));

    // Same edges, same epoch, different matched edges: a triangle matches
    // exactly one of its edges, and the coins pick which.
    let triangle = |seed| {
        let mut m = DynamicMatching::with_seed(seed);
        m.apply(Batch::new().inserts([vec![0, 1], vec![1, 2], vec![0, 2]]))
            .unwrap();
        m
    };
    let base = triangle(0);
    let other = (1..200)
        .map(triangle)
        .find(|m| m.matching() != base.matching())
        .expect("some seed matches another edge of the triangle");
    let err = same_state(&base, &other).unwrap_err();
    assert!(err.contains("matched-edge sets differ"), "{err}");
    gate.check("other", Err(err));
    assert_eq!((gate.attempted, gate.failed), (3, 2));
    assert!(gate.failed_frac() > 0.0);
    assert_eq!(gate.failures.len(), 2);

    assert!(answer_consistent(3, Some(&[1, 3])).is_ok());
    assert!(answer_consistent(3, None).is_ok());
    assert!(answer_consistent(3, Some(&[1, 2])).is_err());
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = text.split_whitespace().collect();
    for def in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\":\"{}\",\"unit\":\"{}\"", def.name, def.unit);
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        compact.matches("\"name\":").count(),
        END_TO_END.len() + PER_LAYER.len() + pbdmm_ladderbench::WORKLOADS.len()
    );
    for w in pbdmm_ladderbench::WORKLOADS {
        assert!(compact.contains(&format!("\"name\":\"{w}\"")), "{w}");
    }
}
