//! Scheduler-focused coverage: pool reuse, nested fork-join, adaptive-grain
//! boundaries, and determinism of parallel results against the sequential
//! path. Runs with the worker cap pinned to 4 (its own test binary, so the
//! global cap cannot leak into other suites) — on single-core hosts this
//! still exercises splitting, stealing, and the cooperative wait paths.

use pbdmm_primitives::cost::CostHint;
use pbdmm_primitives::pool::{self, ParPool};
use pbdmm_primitives::rng::SplitMix64;
use pbdmm_primitives::{group_by, par};

/// Tests in this binary assert on process-global scheduler state (the
/// forced cap, global-pool job counters), so they run
/// serialized: each takes this lock first.
fn knob_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn force_parallel() {
    par::set_num_threads(4);
    assert!(par::should_par_hint(1 << 20, CostHint::Light));
}

#[test]
fn global_pool_is_reused_across_calls() {
    let _knobs = knob_lock();
    force_parallel();
    let pool = pool::global();
    let jobs_before = pool.stats().jobs;
    for _ in 0..10 {
        let xs: Vec<u64> = (0..50_000).collect();
        assert_eq!(par::par_map(&xs, |x| x + 1).len(), 50_000);
    }
    let after = pool::global();
    // Same pool instance served all ten calls (no churn), and it actually
    // scheduled jobs for them.
    assert!(std::sync::Arc::ptr_eq(&pool, &after));
    assert!(after.stats().jobs > jobs_before);
    assert_eq!(after.threads(), 4);
}

#[test]
fn installed_pool_receives_the_work() {
    let _knobs = knob_lock();
    force_parallel();
    let private = ParPool::with_threads(3);
    let before = private.stats().jobs;
    private.install(|| {
        let xs: Vec<u64> = (0..100_000).collect();
        assert_eq!(par::par_map(&xs, |x| x + 1)[99_999], 100_000);
    });
    assert!(
        private.stats().jobs > before,
        "install scope must route primitives to the installed pool"
    );
}

#[test]
fn nested_par_for_inside_par_for() {
    let _knobs = knob_lock();
    force_parallel();
    // An outer parallel for (`par_apply_disjoint`, Heavy) whose body runs
    // an inner one (`par_tabulate`, Light). Both sit at their class's
    // cutoff, so both really fork.
    let outer = CostHint::Heavy.sequential_cutoff();
    let inner = CostHint::Light.sequential_cutoff();
    let mut totals = vec![0u64; outer];
    let groups: Vec<(usize, ())> = (0..outer).map(|o| (o, ())).collect();
    par::par_apply_disjoint(&mut totals, groups, |total, ()| {
        // Nested data-parallel loop from inside a pool task: must neither
        // deadlock nor lose iterations.
        *total = par::par_tabulate(inner, |i| i as u64).iter().sum();
    });
    let want = (inner as u64 - 1) * inner as u64 / 2;
    assert!(totals.iter().all(|&t| t == want));
}

#[test]
fn adaptive_grain_boundaries_match_sequential() {
    let _knobs = knob_lock();
    force_parallel();
    // n = 0, 1, cutoff-1, cutoff, cutoff+1 for each cost class, through the
    // helper that carries that class: results must be identical whichever
    // side of the sequential cutoff they fall on.
    for hint in [CostHint::Light, CostHint::Medium, CostHint::Heavy] {
        let c = hint.sequential_cutoff();
        for n in [0usize, 1, c - 1, c, c + 1] {
            let want: Vec<u64> = (0..n).map(|i| i as u64 * 3).collect();
            let got = match hint {
                CostHint::Light => par::par_tabulate(n, |i| i as u64 * 3),
                CostHint::Medium => {
                    let xs: Vec<u64> = (0..n as u64).collect();
                    par::par_map(&xs, |x| x * 3)
                }
                CostHint::Heavy => {
                    let mut slots = vec![0u64; n];
                    let groups = (0..n).map(|i| (i, i as u64 * 3)).collect();
                    par::par_apply_disjoint(&mut slots, groups, |slot, x| *slot += x);
                    slots
                }
            };
            assert_eq!(got, want, "n={n} hint={hint:?}");
        }
    }
}

#[test]
fn parallel_results_equal_sequential_results() {
    let _knobs = knob_lock();
    // Seeded determinism: the same inputs produce the same outputs whether
    // the scheduler runs 4-way parallel or on a 1-thread pool.
    force_parallel();
    let mut rng = SplitMix64::new(0xD5EE);
    let xs: Vec<u64> = (0..200_000).map(|_| rng.bounded(10_000)).collect();
    let pairs: Vec<(u32, u32)> = xs.iter().map(|&x| ((x % 512) as u32, x as u32)).collect();
    let run = || {
        let groups = group_by(pairs.clone());
        let mut sorted = xs.clone();
        par::par_sort_by_key(&mut sorted, |&x| x);
        let kept = par::par_filter_map(&xs, |&x| (x % 3 == 0).then_some(x));
        let found = pbdmm_primitives::find_next(3, xs.len(), |i| xs[i] > 9_990);
        (groups, sorted, kept, found)
    };

    let (groups_par, sorted_par, kept_par, found_par) = run();
    let (groups_seq, sorted_seq, kept_seq, found_seq) = ParPool::with_threads(1).install(run);

    assert_eq!(sorted_par, sorted_seq);
    assert_eq!(kept_par, kept_seq);
    assert_eq!(found_par, found_seq);
    // group_by order is unspecified across code paths; compare as multisets.
    let canon = |mut gs: Vec<(u32, Vec<u32>)>| {
        for (_, vs) in &mut gs {
            vs.sort_unstable();
        }
        gs.sort();
        gs
    };
    assert_eq!(canon(groups_par), canon(groups_seq));
}

#[test]
fn explicit_pool_sizes_are_honored() {
    let _knobs = knob_lock();
    for threads in [1usize, 2, 5] {
        let p = ParPool::with_threads(threads);
        assert_eq!(p.threads(), threads);
        let hits = std::sync::atomic::AtomicU64::new(0);
        p.run_range(100_000, 1024, |lo, hi| {
            hits.fetch_add((hi - lo) as u64, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 100_000);
    }
}
