//! Seeded operation generators. Every choice comes from the seed alone —
//! an oblivious adversary, as the paper's bounds assume. No generator can
//! see the structure: deletes are named by *position* in the benchmark's
//! own list of live ids, and the caller maps a position to the id the
//! structure assigned.

use pbdmm::primitives::rng::SplitMix64;

/// Smallest and largest edge rank (vertices per hyperedge).
pub const RANK_MIN: u64 = 2;
/// See [`RANK_MIN`].
pub const RANK_MAX: u64 = 4;

/// A stream of random hyperedges over `n` vertices, rank uniform in
/// `RANK_MIN..=RANK_MAX`, vertices distinct.
#[derive(Debug, Clone)]
pub struct EdgeGen {
    rng: SplitMix64,
    n: u32,
}

impl EdgeGen {
    /// A generator over vertices `0..n` seeded with `seed`.
    pub fn new(seed: u64, n: u32) -> Self {
        EdgeGen {
            rng: SplitMix64::new(seed),
            n,
        }
    }

    /// The next hyperedge.
    pub fn edge(&mut self) -> Vec<u32> {
        let rank = self.rng.range_inclusive(RANK_MIN, RANK_MAX) as usize;
        let mut vs = Vec::with_capacity(rank);
        while vs.len() < rank {
            let v = self.rng.bounded(self.n as u64) as u32;
            if !vs.contains(&v) {
                vs.push(v);
            }
        }
        vs
    }

    /// The next `k` hyperedges.
    pub fn edges(&mut self, k: usize) -> Vec<Vec<u32>> {
        (0..k).map(|_| self.edge()).collect()
    }
}

/// One churn batch: delete positions (to apply in order with
/// `Vec::swap_remove` on the live-id list) plus fresh insertions.
#[derive(Debug, Clone)]
pub struct ChurnBatch {
    /// Positions into the live list, each valid after the previous one was
    /// swap-removed.
    pub delete_positions: Vec<usize>,
    /// Vertex lists of the insertions.
    pub inserts: Vec<Vec<u32>>,
}

/// Uniform-random churn: each batch deletes `deletes` uniformly chosen live
/// edges and inserts `inserts` fresh ones. The positions depend only on the
/// seed and the live count, which the caller keeps constant.
#[derive(Debug, Clone)]
pub struct ChurnGen {
    pick: SplitMix64,
    edges: EdgeGen,
}

impl ChurnGen {
    /// A churn stream over vertices `0..n`.
    pub fn new(seed: u64, n: u32) -> Self {
        let mut root = SplitMix64::new(seed);
        ChurnGen {
            pick: root.fork(),
            edges: EdgeGen::new(root.next_u64(), n),
        }
    }

    /// Fresh edges for the preload.
    pub fn preload(&mut self, k: usize) -> Vec<Vec<u32>> {
        self.edges.edges(k)
    }

    /// The next batch against a live list of `live` ids.
    pub fn batch(&mut self, live: usize, deletes: usize, inserts: usize) -> ChurnBatch {
        let deletes = deletes.min(live);
        let delete_positions = (0..deletes)
            .map(|i| self.pick.bounded((live - i) as u64) as usize)
            .collect();
        ChurnBatch {
            delete_positions,
            inserts: self.edges.edges(inserts),
        }
    }
}

/// Derive an independent seed for stream `k` of a run seeded `seed`.
pub fn subseed(seed: u64, k: u64) -> u64 {
    SplitMix64::new(seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}
