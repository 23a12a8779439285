//! Randomized property tests for the parallel primitives against sequential
//! oracles: whatever the fork-join scheduler does, results must equal the
//! obvious single-threaded computation. Cases are generated from fixed seeds
//! (deterministic, reproducible) — a std-only stand-in for proptest.

use pbdmm_primitives::find_next::find_next_in;
use pbdmm_primitives::permutation::{priorities_to_order, random_priorities};
use pbdmm_primitives::rng::SplitMix64;
use pbdmm_primitives::scan::{exclusive_scan, filter, inclusive_scan, pack_indices};
use pbdmm_primitives::semisort::{count_by, group_by, remove_duplicates, sum_by};
use pbdmm_primitives::sort::{bucket_sort_by_key, bucket_sort_ord};

/// Cases per property: 48 by default; the nightly CI job raises it via
/// `PBDMM_PROP_CASES` for deeper sweeps at the same fixed seeds.
fn cases() -> u64 {
    std::env::var("PBDMM_PROP_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(48)
}

/// A random vector length skewed toward both tiny (sequential-path) and
/// large (parallel-path) cases.
fn arb_len(rng: &mut SplitMix64, max: usize) -> usize {
    match rng.bounded(4) {
        0 => rng.bounded(8) as usize,
        1 => rng.bounded(200) as usize,
        _ => rng.bounded(max as u64) as usize,
    }
}

fn arb_vec_u64(rng: &mut SplitMix64, max_len: usize, bound: u64) -> Vec<u64> {
    let n = arb_len(rng, max_len);
    (0..n).map(|_| rng.bounded(bound)).collect()
}

#[test]
fn exclusive_scan_matches_fold() {
    let mut rng = SplitMix64::new(0xA0);
    for _ in 0..cases() {
        let xs = arb_vec_u64(&mut rng, 20_000, 1_000_000);
        let (scan, total) = exclusive_scan(&xs);
        let mut acc = 0u64;
        for (s, &x) in scan.iter().zip(&xs) {
            assert_eq!(*s, acc);
            acc += x;
        }
        assert_eq!(total, acc);
    }
}

#[test]
fn inclusive_scan_is_exclusive_plus_self() {
    let mut rng = SplitMix64::new(0xA1);
    for _ in 0..cases() {
        let xs = arb_vec_u64(&mut rng, 10_000, 1000);
        let inc = inclusive_scan(&xs);
        let (exc, _) = exclusive_scan(&xs);
        for i in 0..xs.len() {
            assert_eq!(inc[i], exc[i] + xs[i]);
        }
    }
}

#[test]
fn filter_matches_iterator_filter() {
    let mut rng = SplitMix64::new(0xA2);
    for _ in 0..cases() {
        let xs: Vec<i64> = arb_vec_u64(&mut rng, 16_000, 100)
            .into_iter()
            .map(|x| x as i64)
            .collect();
        let k = 1 + rng.bounded(9) as i64;
        let got = filter(&xs, |&x| x % k == 0);
        let want: Vec<i64> = xs.iter().copied().filter(|&x| x % k == 0).collect();
        assert_eq!(got, want);
    }
}

#[test]
fn pack_indices_matches_positions() {
    let mut rng = SplitMix64::new(0xA3);
    for _ in 0..cases() {
        let flags: Vec<bool> = arb_vec_u64(&mut rng, 16_000, 2)
            .into_iter()
            .map(|x| x == 1)
            .collect();
        let got = pack_indices(&flags);
        let want: Vec<usize> = flags
            .iter()
            .enumerate()
            .filter_map(|(i, &f)| f.then_some(i))
            .collect();
        assert_eq!(got, want);
    }
}

#[test]
fn group_by_preserves_multiset() {
    let mut rng = SplitMix64::new(0xA4);
    for _ in 0..cases() {
        let n = arb_len(&mut rng, 12_000);
        let pairs: Vec<(u8, u32)> = (0..n)
            .map(|_| (rng.bounded(32) as u8, rng.next_u64() as u32))
            .collect();
        let groups = group_by(pairs.clone());
        let mut got: Vec<(u8, u32)> = groups
            .iter()
            .flat_map(|(k, vs)| vs.iter().map(move |&v| (*k, v)))
            .collect();
        let mut want = pairs;
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}

#[test]
fn sum_by_matches_hashmap_fold() {
    let mut rng = SplitMix64::new(0xA5);
    for _ in 0..cases() {
        let n = arb_len(&mut rng, 12_000);
        let pairs: Vec<(u16, u64)> = (0..n)
            .map(|_| (rng.bounded(100) as u16, rng.bounded(1000)))
            .collect();
        let mut want = std::collections::HashMap::new();
        for &(k, v) in &pairs {
            *want.entry(k).or_insert(0u64) += v;
        }
        let got = sum_by(pairs);
        assert_eq!(got.len(), want.len());
        for (k, v) in got {
            assert_eq!(want.get(&k), Some(&v));
        }
    }
}

#[test]
fn count_by_and_dedup_agree() {
    let mut rng = SplitMix64::new(0xA6);
    for _ in 0..cases() {
        let keys: Vec<u32> = arb_vec_u64(&mut rng, 12_000, 64)
            .into_iter()
            .map(|x| x as u32)
            .collect();
        let counts = count_by(keys.clone());
        let dedup = remove_duplicates(keys.clone());
        assert_eq!(counts.len(), dedup.len());
        let total: u64 = counts.iter().map(|&(_, c)| c).sum();
        assert_eq!(total as usize, keys.len());
        let from_counts: std::collections::HashSet<u32> = counts.iter().map(|&(k, _)| k).collect();
        let from_dedup: std::collections::HashSet<u32> = dedup.into_iter().collect();
        assert_eq!(from_counts, from_dedup);
    }
}

#[test]
fn bucket_sort_equals_comparison_sort() {
    let mut rng = SplitMix64::new(0xA7);
    for _ in 0..cases() {
        let n = arb_len(&mut rng, 10_000);
        let xs: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let got = bucket_sort_by_key(xs.clone(), |&x| x);
        let mut want = xs;
        want.sort_unstable();
        assert_eq!(got, want);
    }
}

#[test]
fn bucket_sort_ord_equals_comparison_sort() {
    let mut rng = SplitMix64::new(0xA8);
    for _ in 0..cases() {
        let n = arb_len(&mut rng, 10_000);
        let pairs: Vec<(u64, u32)> = (0..n)
            .map(|_| (rng.next_u64() >> rng.bounded(64), rng.next_u64() as u32))
            .collect();
        let got = bucket_sort_ord(pairs.clone(), |t| t.0);
        let mut want = pairs;
        want.sort_unstable();
        assert_eq!(got, want);
    }
}

#[test]
fn find_next_equals_linear_scan() {
    let mut rng = SplitMix64::new(0xA9);
    for _ in 0..cases() {
        let xs: Vec<u8> = arb_vec_u64(&mut rng, 500, 4)
            .into_iter()
            .map(|x| x as u8)
            .collect();
        let start = rng.bounded(520) as usize;
        let got = find_next_in(&xs, start, |&x| x == 3);
        let want = (start.min(xs.len())..xs.len()).find(|&j| xs[j] == 3);
        assert_eq!(got, want);
    }
}

#[test]
fn priorities_induce_uniform_support_permutation() {
    let mut rng = SplitMix64::new(0xAA);
    for _ in 0..cases() {
        let n = arb_len(&mut rng, 8000);
        let mut seed_rng = SplitMix64::new(rng.next_u64());
        let pri = random_priorities(n, &mut seed_rng);
        let order = priorities_to_order(&pri);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n as u32).collect::<Vec<_>>());
    }
}
