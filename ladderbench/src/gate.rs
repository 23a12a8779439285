//! The correctness gate: every run counts what it attempted and what went
//! wrong. Any failure makes the run report `"correct": false` and exit
//! non-zero.

use pbdmm::DynamicMatching;

/// Failure messages kept for the report; later ones are only counted.
const KEEP: usize = 16;

/// Attempted and failed operations of one run.
#[derive(Debug, Default)]
pub struct Gate {
    /// Operations attempted: updates, reads and checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Gate {
    /// Count `n` operations that succeeded.
    pub fn pass(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < KEEP {
            self.failures.push(what.into());
        }
    }

    /// Count one check by its outcome.
    pub fn check(&mut self, what: &str, r: Result<(), String>) {
        match r {
            Ok(()) => self.pass(1),
            Err(e) => self.fail(format!("{what}: {e}")),
        }
    }

    /// Fold another run's counts in.
    pub fn absorb(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < KEEP {
                self.failures.push(f);
            }
        }
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// `Ok` when `cond` holds, otherwise the message `msg` builds.
pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Whether `got` is the state `expected` holds: same epoch, same live-edge
/// count and exactly the same matched edges.
pub fn same_state(expected: &DynamicMatching, got: &DynamicMatching) -> Result<(), String> {
    if expected.epoch() != got.epoch() {
        return Err(format!(
            "epoch {} != expected {}",
            got.epoch(),
            expected.epoch()
        ));
    }
    if expected.num_edges() != got.num_edges() {
        return Err(format!(
            "{} live edges != expected {}",
            got.num_edges(),
            expected.num_edges()
        ));
    }
    let sorted = |m: &DynamicMatching| {
        let mut v: Vec<u64> = m.matching().iter().map(|e| e.0).collect();
        v.sort_unstable();
        v
    };
    let (want, have) = (sorted(expected), sorted(got));
    if want != have {
        let diff = want
            .iter()
            .filter(|e| have.binary_search(e).is_err())
            .count()
            + have
                .iter()
                .filter(|e| want.binary_search(e).is_err())
                .count();
        return Err(format!(
            "matched-edge sets differ in {diff} edges ({} vs expected {})",
            have.len(),
            want.len()
        ));
    }
    Ok(())
}

/// A point-query answer is self-consistent: a vertex reported matched lies
/// on the edge reported for it.
pub fn answer_consistent(v: u32, edge: Option<&[u32]>) -> Result<(), String> {
    match edge {
        Some(vs) if !vs.contains(&v) => Err(format!("vertex {v} not on its matched edge {vs:?}")),
        _ => Ok(()),
    }
}
