//! Readers for the `/proc` files the benchmark samples: process and
//! per-thread CPU time, context switches, resident memory, load average;
//! and the one system call that keeps a child process on one CPU.

use std::fs;

extern "C" {
    // From the C library the standard library already links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The lowest-numbered CPU this process may run on. Which one is a toss-up
/// from inside a VM; in alternating runs on the box this was written on
/// the first was the steadier of its two.
fn first_allowed_cpu() -> Option<usize> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    // "0-1", "1,3-5": the first number is the lowest.
    list.trim().split([',', '-']).next()?.parse().ok()
}

/// Confines this process, and every thread it starts from now on, to one
/// CPU, and returns which. On a VM a wake-up that crosses virtual CPUs
/// goes through the hypervisor, and costs whatever the host's other
/// tenants leave: on the 2-vCPU box this was written on, `upd-blocking`
/// ran at 7k–12k ops/s with its threads on both CPUs and at 25k–27k on
/// one. `None` if the kernel refuses; the repetition then runs unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu = first_allowed_cpu()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of `size_of_val(&mask)` bytes, which
    // the call only reads; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// `USER_HZ`: the unit of the CPU times in `/proc/*/stat`. 100 on every
/// Linux ABI this repository builds for.
const TICKS_PER_S: u64 = 100;

/// Microseconds per `/proc/*/stat` tick.
pub const US_PER_TICK: f64 = 1e6 / TICKS_PER_S as f64;
const NS_PER_TICK: u64 = 1_000_000_000 / TICKS_PER_S;

/// `utime + stime` (ticks) from the text of a `stat` file. The command
/// name sits in parentheses and may hold spaces, so fields are counted
/// from the last `)`.
fn cpu_ticks_of(stat: &str) -> u64 {
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut next = || {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    next() + next()
}

/// CPU time of this process so far (all threads, exited ones included), in
/// ticks. The kernel charges a whole tick to whatever runs when the timer
/// fires, which is exact enough for a thread that computes without pause
/// and a lottery for one that runs in bursts shorter than a tick; for
/// those see [`ThreadSample::cpu_ns`].
pub fn process_cpu_ticks() -> u64 {
    fs::read_to_string("/proc/self/stat").map_or(0, |s| cpu_ticks_of(&s))
}

/// One thread's counters at sampling time.
#[derive(Debug, Clone)]
pub struct ThreadSample {
    /// Thread id.
    pub tid: u64,
    /// Thread name (`replica-0`, `network`, `gen-1`, …).
    pub name: String,
    /// Time on a CPU, ns: the scheduler's own account (`schedstat`), which
    /// is exact for bursty threads; `utime + stime` where the kernel keeps
    /// none.
    pub cpu_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

/// Samples every live thread of this process.
pub fn threads() -> Vec<ThreadSample> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let path = entry.path();
        let Some(tid) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.parse().ok())
        else {
            continue;
        };
        // A thread can exit between the listing and the reads.
        let (Ok(stat), Ok(status)) = (
            fs::read_to_string(path.join("stat")),
            fs::read_to_string(path.join("status")),
        ) else {
            continue;
        };
        let name = stat
            .split_once('(')
            .and_then(|(_, r)| r.rsplit_once(')'))
            .map_or(String::new(), |(n, _)| n.to_string());
        let on_cpu_ns = fs::read_to_string(path.join("schedstat"))
            .ok()
            .and_then(|s| s.split_ascii_whitespace().next()?.parse().ok());
        out.push(ThreadSample {
            tid,
            name,
            cpu_ns: on_cpu_ns.unwrap_or_else(|| cpu_ticks_of(&stat) * NS_PER_TICK),
            ctx_switches: status_field(&status, "voluntary_ctxt_switches:")
                + status_field(&status, "nonvoluntary_ctxt_switches:"),
        });
    }
    out
}

/// The first number after `key` in a `status` file (0 if absent).
fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Resident set size now, MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

fn status_mb(key: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, key) as f64 / 1024.0
}

/// The three load averages of `/proc/loadavg`, as text.
pub fn loadavg() -> String {
    fs::read_to_string("/proc/loadavg")
        .map(|s| {
            s.split_ascii_whitespace()
                .take(3)
                .collect::<Vec<_>>()
                .join(" ")
        })
        .unwrap_or_default()
}

/// The one-minute load average.
pub fn load1() -> f64 {
    loadavg()
        .split_ascii_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let stat = "15312 (a b) c) R 1 2 3 0 -1 4194304 78 0 0 0 7 5 0 0 20 0 1 0 218790";
        assert_eq!(cpu_ticks_of(stat), 12);
    }

    #[test]
    fn pinning_leaves_one_allowed_cpu() {
        // In a thread of its own: the other tests keep their CPUs.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("the kernel accepts an allowed CPU");
            let status = fs::read_to_string("/proc/thread-self/status").unwrap();
            let list = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .unwrap();
            assert_eq!(list.trim(), cpu.to_string());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn own_process_is_readable() {
        assert!(peak_rss_mb() > 0.0);
        assert!(threads().iter().any(|t| t.tid > 0));
    }
}
