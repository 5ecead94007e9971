//! Linux `/proc` readings: peak resident set and CPU time of threads.

use std::fs;

/// `VmHWM` of a process in MiB (`pid` "self" for this process).
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line")?;
    Ok(kb / 1024.0)
}

/// Nanoseconds on CPU summed over the threads of `pid`, leaving out the
/// thread `skip_tid` (the benchmark's caller thread when `pid` is this
/// process). Threads that end between listing and reading are skipped.
pub fn cpu_ns(pid: &str, skip_tid: Option<&str>) -> u64 {
    let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter(|t| Some(t.file_name().to_string_lossy().as_ref()) != skip_tid)
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// This thread's id, as named under `/proc/self/task`.
pub fn own_tid() -> Option<String> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    Some(link.file_name()?.to_string_lossy().into_owned())
}
