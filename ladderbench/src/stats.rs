//! Order statistics for latency samples.
//!
//! Percentiles use the nearest-rank definition on the sorted samples. A
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! strictly above its rank, so a tail figure always rests on ten or more
//! observations of that tail.

/// Fewest samples that must lie beyond a percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// A set of duration samples, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// An empty set with room for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            ns: Vec::with_capacity(n),
            sorted: true,
        }
    }

    /// Record one sample.
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// The `q`-quantile (`0 < q < 1`) in nanoseconds, by nearest rank.
    /// Refused when fewer than [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&mut self, q: f64) -> Result<u64, String> {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        percentile_sorted(&self.ns, q)
    }
}

/// Nearest-rank `q`-quantile of sorted `xs`; refused when fewer than
/// [`MIN_BEYOND`] samples lie beyond the rank.
pub fn percentile_sorted(xs: &[u64], q: f64) -> Result<u64, String> {
    if !(q > 0.0 && q < 1.0) {
        return Err(format!("percentile {q} is outside (0, 1)"));
    }
    let n = xs.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} needs at least {MIN_BEYOND} samples beyond it; {n} samples leave {beyond}",
            q * 100.0
        ));
    }
    Ok(xs[rank - 1])
}

/// Median of `xs` (mean of the middle pair for an even count). `None` when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}
