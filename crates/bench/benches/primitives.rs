//! Substrate bench: the §2 parallel primitives the algorithm is built on —
//! scan, filter, semisort/groupBy, random priorities, bucket sort.

use pbdmm_bench::BenchGroup;
use pbdmm_primitives::permutation::random_priorities;
use pbdmm_primitives::rng::SplitMix64;
use pbdmm_primitives::scan::{exclusive_scan, filter};
use pbdmm_primitives::semisort::group_by;

fn main() {
    let mut group = BenchGroup::new("primitives").sample_size(10);
    let n = 1 << 18;

    let xs: Vec<u64> = (0..n as u64).map(|i| i % 97).collect();
    group.bench(&format!("exclusive_scan/{n}"), Some(n as u64), || {
        exclusive_scan(&xs)
    });
    group.bench(&format!("filter/{n}"), Some(n as u64), || {
        filter(&xs, |&x| x % 3 == 0)
    });

    let pairs: Vec<(u32, u32)> = (0..n as u32).map(|i| (i % 4096, i)).collect();
    group.bench(&format!("group_by/{n}"), Some(n as u64), || {
        group_by(pairs.clone())
    });

    let mut rng = SplitMix64::new(5);
    group.bench(&format!("random_priorities/{n}"), Some(n as u64), || {
        random_priorities(n, &mut rng)
    });

    // Bucket sort vs comparison sort on random priorities (§3's expected-
    // linear claim).
    let mut rng2 = SplitMix64::new(9);
    let random_keys: Vec<u64> = (0..n).map(|_| rng2.next_u64()).collect();
    group.bench(&format!("bucket_sort/{n}"), Some(n as u64), || {
        pbdmm_primitives::sort::bucket_sort_by_key(random_keys.clone(), |&x| x)
    });
    group.bench(&format!("comparison_sort/{n}"), Some(n as u64), || {
        let mut v = random_keys.clone();
        v.sort_unstable();
        v
    });
    group.finish();
}
