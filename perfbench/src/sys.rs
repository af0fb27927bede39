//! Linux process probes: every thread's CPU clock (threads listed from
//! `/proc/self/task`), this thread's CPU clock, peak resident memory,
//! and timer slack.

use std::collections::HashMap;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn prctl(option: i32, ...) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const PR_SET_TIMERSLACK: i32 = 29;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Asks the kernel to wake this thread's sleeps within 1 ns of their
/// deadline instead of the default 50 µs slack, so the open-loop
/// generator sends close to each request's due time without spinning.
pub fn tight_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // only changes this thread's timer slack; the return value is a
    // plain status code.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

fn cpu_clock(clock: i32) -> Option<Duration> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
}

/// CPU time this thread has used (user + system), nanosecond clock.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID).expect("clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed")
}

/// The CPU clock of thread `tid` of this process: Linux encodes it as
/// `(!tid << 3) | 6` (per-thread, scheduler-accurate). Reading it is
/// nanosecond-exact, where `/proc/self/task/*/stat` counts 10 ms ticks.
fn tid_cpu(tid: u32) -> Option<Duration> {
    cpu_clock((!(tid as i32) << 3) | 6)
}

/// The calling thread's kernel id.
pub fn current_tid() -> u32 {
    let link = std::fs::read_link("/proc/thread-self").expect("/proc/thread-self is readable");
    link.file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.parse().ok())
        .expect("/proc/thread-self ends in a thread id")
}

/// CPU seconds (user + system) of every live thread of this process,
/// by thread id.
pub fn task_cpu() -> HashMap<u32, f64> {
    let mut out = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        // None: the thread exited between listing and reading.
        if let Some(cpu) = tid_cpu(tid) {
            out.insert(tid, cpu.as_secs_f64());
        }
    }
    out
}

/// CPU seconds the threads outside `exclude` spent between two
/// [`task_cpu`] snapshots. A thread born after `before` counts whole.
pub fn cpu_between(before: &HashMap<u32, f64>, after: &HashMap<u32, f64>, exclude: &[u32]) -> f64 {
    after
        .iter()
        .filter(|(tid, _)| !exclude.contains(tid))
        .map(|(tid, &t)| t - before.get(tid).copied().unwrap_or(0.0))
        .sum()
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
