//! Process and thread accounting read from the OS: CPU clocks with
//! nanosecond resolution, per-thread CPU by thread name, and peak RSS.
//!
//! `/proc/<pid>/task/*/stat` only counts CPU in 10 ms ticks, too coarse
//! for per-op figures, so CPU comes from `clock_gettime` instead: the
//! process clock for totals (it keeps the time of threads that already
//! exited) and the kernel's per-thread CPU clock ids for the split by
//! thread. A thread's clock id is derived from its tid the way glibc's
//! `pthread_getcpuclockid` does; Linux lets any thread of the process
//! read it.

use std::collections::HashMap;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

fn read_clock(clock: i32) -> Option<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call; the function writes only into it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// CPU time (user + system) of the whole process so far, in ns.
pub fn process_cpu_ns() -> u64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID).unwrap_or(0)
}

/// The kernel's CPU clock id for thread `tid` (CPUCLOCK_SCHED, per-thread).
fn thread_clock_id(tid: u32) -> i32 {
    (((!tid) << 3) | 6) as i32
}

/// Thread groups the per-layer split reports, by thread name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadClass {
    /// Runtime workers (`labstor-worker-*`).
    Worker,
    /// Journal flush daemons (`labstor-flush`).
    Flush,
    /// The benchmark's load threads (`lb-client-*`).
    Client,
    /// Everything else (admin thread, main thread).
    Other,
}

/// Name prefix of the benchmark's load threads.
pub const CLIENT_THREAD_PREFIX: &str = "lb-client-";

fn classify(comm: &str) -> ThreadClass {
    // comm is truncated to 15 bytes, so match on prefixes only.
    if comm.starts_with("labstor-worker") {
        ThreadClass::Worker
    } else if comm.starts_with("labstor-flush") {
        ThreadClass::Flush
    } else if comm.starts_with(CLIENT_THREAD_PREFIX) {
        ThreadClass::Client
    } else {
        ThreadClass::Other
    }
}

/// CPU ns of every live thread of this process, keyed by tid.
pub fn thread_cpu() -> HashMap<u32, (ThreadClass, u64)> {
    let mut out = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let comm = std::fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
        if let Some(ns) = read_clock(thread_clock_id(tid)) {
            out.insert(tid, (classify(comm.trim_end()), ns));
        }
    }
    out
}

/// CPU ns spent per thread class between two [`thread_cpu`] samples
/// (threads present in both).
pub fn class_cpu_delta(
    before: &HashMap<u32, (ThreadClass, u64)>,
    after: &HashMap<u32, (ThreadClass, u64)>,
) -> HashMap<ThreadClass, u64> {
    let mut out = HashMap::new();
    for (tid, (class, ns)) in after {
        if let Some((_, was)) = before.get(tid) {
            *out.entry(*class).or_insert(0) += ns.saturating_sub(*was);
        }
    }
    out
}

/// The machine's CPU time so far as `(stolen, total)` clock ticks, from
/// the first line of `/proc/stat`. Stolen time is time in which the
/// hypervisor ran something else while one of this machine's virtual
/// CPUs was ready to run; `(0, 0)` where the kernel does not report it.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    match fields.get(7) {
        Some(&steal) => (steal, fields.iter().sum()),
        None => (0, 0),
    }
}

/// Share of the machine's CPU time stolen between two [`cpu_ticks`]
/// readings (0 when no time passed).
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Peak resident set size of the process so far (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work() {
        let t0 = process_cpu_ns();
        let me = thread_cpu();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > t0);
        let later = thread_cpu();
        let spent: u64 = class_cpu_delta(&me, &later).values().sum();
        assert!(spent > 0, "some thread's CPU clock must have advanced");
        assert!(peak_rss_bytes() > 0);
        let (stolen, total) = cpu_ticks();
        assert!(stolen <= total);
        assert_eq!(steal_share((5, 100), (6, 100)), 0.0);
        assert_eq!(steal_share((5, 100), (6, 110)), 0.1);
    }
}
