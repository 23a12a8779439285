//! Readers for the `/proc` counters the benchmark samples from outside the
//! program: per-thread CPU and run-queue time (`task/*/schedstat`), file
//! bytes written (`io`), and peak resident memory (`status`).
//!
//! Every parser takes the file's text, so the tests feed them canned input.

use std::collections::BTreeMap;

/// `(cpu_ns, runq_wait_ns)` from one `schedstat` line: time on the CPU,
/// time runnable but waiting for it, and timeslices (ignored).
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut it = text.split_whitespace();
    let cpu = it.next()?.parse().ok()?;
    let wait = it.next()?.parse().ok()?;
    Some((cpu, wait))
}

/// The value of `key` (e.g. `wchar`) in a `/proc/<pid>/io` text.
pub fn parse_io(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim().parse().ok())?
    })
}

/// The value of `key` (e.g. `VmHWM`) in a `/proc/<pid>/status` text, in
/// KiB.
pub fn parse_status_kb(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        if k.trim() != key {
            return None;
        }
        let mut it = v.split_whitespace();
        let n = it.next()?.parse().ok()?;
        matches!(it.next(), Some("kB") | None).then_some(n)
    })
}

/// Bytes this process has passed to `write`-family calls so far.
pub fn wchar() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|t| parse_io(&t, "wchar"))
        .unwrap_or(0)
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| parse_status_kb(&t, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// The program's thread groups, by the names its threads are given. The
/// kernel truncates a thread name to 15 bytes, so `pbdmm-conn-writer`
/// reads back as `pbdmm-conn-writ`.
pub fn thread_group(comm: &str) -> Option<&'static str> {
    if comm.starts_with("pbdmm-par-") {
        Some("pool")
    } else if comm == "pbdmm-coalescer" {
        Some("coalescer")
    } else if comm == "pbdmm-ckpt" {
        Some("ckpt")
    } else if comm.starts_with("pbdmm-conn-w") {
        Some("conn_writer")
    } else if comm == "pbdmm-conn" {
        Some("conn")
    } else {
        None
    }
}

/// Per-thread schedstat counters of this process at one instant, keyed by
/// thread id.
#[derive(Debug, Clone, Default)]
pub struct ThreadClock {
    threads: BTreeMap<u64, (&'static str, u64, u64)>,
}

impl ThreadClock {
    /// Read `/proc/self/task/*/{comm,schedstat}` for every named program
    /// thread. A thread that exits between the listing and the read is
    /// skipped.
    pub fn sample() -> ThreadClock {
        let mut threads = BTreeMap::new();
        let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
            return ThreadClock { threads };
        };
        for entry in dir.flatten() {
            let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                continue;
            };
            let path = entry.path();
            let Ok(comm) = std::fs::read_to_string(path.join("comm")) else {
                continue;
            };
            let Some(group) = thread_group(comm.trim_end()) else {
                continue;
            };
            let Some((cpu, wait)) = std::fs::read_to_string(path.join("schedstat"))
                .ok()
                .and_then(|t| parse_schedstat(&t))
            else {
                continue;
            };
            threads.insert(tid, (group, cpu, wait));
        }
        ThreadClock { threads }
    }

    /// `(cpu_s, runq_wait_s)` of each thread group between `earlier` and
    /// `self`. Threads born in between count from zero.
    pub fn since(&self, earlier: &ThreadClock) -> BTreeMap<&'static str, (f64, f64)> {
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (tid, &(group, cpu, wait)) in &self.threads {
            let (cpu0, wait0) = earlier.threads.get(tid).map_or((0, 0), |&(_, c, w)| (c, w));
            let slot = out.entry(group).or_default();
            slot.0 += cpu.saturating_sub(cpu0) as f64 / 1e9;
            slot.1 += wait.saturating_sub(wait0) as f64 / 1e9;
        }
        out
    }
}

/// Total size of the regular files directly inside `dir`, in bytes.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A cache level's size from `/sys/devices/system/cpu/cpu0/cache`, e.g.
/// `"2048K"`, or `"unknown"`.
pub fn cache_size(level: u32) -> String {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let Ok(dir) = std::fs::read_dir(base) else {
        return "unknown".into();
    };
    for entry in dir.flatten() {
        let p = entry.path();
        let read = |f: &str| std::fs::read_to_string(p.join(f)).map(|s| s.trim().to_string());
        if read("level").ok().as_deref() == Some(&level.to_string())
            && read("type").ok().as_deref() != Some("Instruction")
        {
            if let Ok(size) = read("size") {
                return size;
            }
        }
    }
    "unknown".into()
}

/// The running kernel's release string, or `"unknown"`.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}
