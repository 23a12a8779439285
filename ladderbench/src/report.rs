//! The metric catalogue and the run's output: a human-readable table, one
//! `meta:` line of run metadata, and — as the last line — the JSON result.

use std::collections::BTreeMap;

use crate::gate::Gate;

/// One metric: its name and unit.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn d(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// End-to-end metrics: reported by untraced runs of every workload.
pub const END_TO_END: &[Def] = &[
    d("updates_per_s", "1/s"),
    d("ack_p50_us", "us"),
    d("ack_p90_us", "us"),
    d("read_p50_us", "us"),
    d("read_p90_us", "us"),
    d("setup_s", "s"),
    d("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: reported by traced runs. A layer a workload does not
/// run reads 0 there.
pub const PER_LAYER: &[Def] = &[
    d("matching.work_per_update", "count"),
    d("matching.settle_iterations_per_batch", "count"),
    d("matching.slots_per_live_edge", "ratio"),
    d("matching.settle_ns_per_update", "ns"),
    d("matching.snapshot_publish_ns_per_update", "ns"),
    d("primitives.pool_jobs_per_batch", "count"),
    d("primitives.pool_steals_per_batch", "count"),
    d("threads.pool.cpu_s", "s"),
    d("threads.pool.runq_wait_s", "s"),
    d("service.submit_ns", "ns"),
    d("service.mean_batch_len", "count"),
    d("service.flush_idle_frac", "frac"),
    d("service.plan_ns_per_update", "ns"),
    d("service.wal_append_ns_per_update", "ns"),
    d("service.apply_ns_per_update", "ns"),
    d("service.complete_ns_per_update", "ns"),
    d("service.busy_frac", "frac"),
    d("service.unattributed_frac", "frac"),
    d("threads.coalescer.cpu_s", "s"),
    d("threads.coalescer.runq_wait_s", "s"),
    d("threads.ckpt.cpu_s", "s"),
    d("snapshot.load_ns", "ns"),
    d("snapshot.query_ns", "ns"),
    d("wal.checkpoints", "count"),
    d("wal.segments_removed", "count"),
    d("recover.tail_updates", "count"),
    d("recover.segments_replayed", "count"),
    d("recover_s", "s"),
    d("write_bytes_per_update", "B"),
    d("disk_bytes_per_edge", "B"),
    d("net.window_send_us", "us"),
    d("net.window_first_ack_us", "us"),
    d("net.window_last_ack_us", "us"),
    d("net.stall_frac", "frac"),
    d("net.decode_ns_per_frame", "ns"),
    d("net.dispatch_ns_per_frame", "ns"),
    d("threads.conn.cpu_s", "s"),
    d("threads.conn_writer.cpu_s", "s"),
    d("trace.overhead_frac", "ratio"),
    d("failed_frac", "frac"),
];

/// Everything one measured run produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample count behind each percentile or median, by metric name.
    pub samples: BTreeMap<&'static str, usize>,
    /// Run metadata: sizes, policies, intervals.
    pub meta: Vec<(&'static str, String)>,
    /// What was attempted and what failed.
    pub gate: Gate,
}

impl Run {
    /// Record a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a percentile or median together with its sample count.
    pub fn set_sampled(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, value);
        self.samples.insert(name, samples);
    }

    /// Record a metadata field.
    pub fn meta(&mut self, key: &'static str, value: impl ToString) {
        self.meta.push((key, value.to_string()));
    }

    /// A recorded metric (0 when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }
}

/// Print the table, the metadata line and the final JSON line for the
/// metrics in `defs`. `required` metrics must have been measured; a
/// missing or non-finite one fails the run. Returns whether the run is
/// correct.
pub fn emit(run: &mut Run, defs: &[Def], required: bool) -> bool {
    let mut body = Vec::new();
    for def in defs {
        let value = match run.metrics.get(def.name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                run.gate.fail(format!("metric {} is {v}", def.name));
                0.0
            }
            None if required => {
                run.gate
                    .fail(format!("metric {} was not measured", def.name));
                0.0
            }
            None => 0.0,
        };
        body.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(def.name),
            json_num(value),
            json_str(def.unit)
        ));
    }
    print_table(run);
    let correct = run.gate.failed == 0;
    for f in &run.gate.failures {
        println!("FAILED: {f}");
    }
    let meta: Vec<String> = run
        .meta
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .chain(
            run.samples
                .iter()
                .map(|(k, n)| format!("{}: {n}", json_str(&format!("samples.{k}")))),
        )
        .collect();
    println!("meta: {{{}}}", meta.join(", "));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.gate.attempted.max(1),
        run.gate.failed,
        body.join(", ")
    );
    correct
}

/// Every metric the run measured, whether or not `emit` reports it in
/// JSON: an untraced run also shows its recovery and disk figures here.
fn print_table(run: &Run) {
    for def in END_TO_END.iter().chain(PER_LAYER) {
        if !run.metrics.contains_key(def.name) {
            continue;
        }
        let n = run
            .samples
            .get(def.name)
            .map(|n| format!("  (n={n})"))
            .unwrap_or_default();
        println!(
            "{:<42} {:>16.4} {}{n}",
            def.name,
            run.get(def.name),
            def.unit
        );
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
