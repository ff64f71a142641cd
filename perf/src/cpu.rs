//! CPU time as the kernel accounts it. It charges a thread only for
//! time it ran, so the time a shared host's hypervisor gives the cores
//! to other guests (steal), and the time a thread waits to be woken, is
//! not in it; on such a host that time stretches a wall-clock set-up by
//! up to three times and a pass by up to a quarter.

use std::path::Path;

/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`), fixed at
/// 100 by the Linux user-space ABI.
const USER_HZ: f64 = 100.0;

/// CPU time this process has used so far, every thread together —
/// ended threads included — user plus system, in seconds, at the
/// 10 ms resolution of `/proc/self/stat`.
///
/// # Errors
///
/// Returns a message where `/proc/self/stat` is unavailable.
pub fn process_cpu_s() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name, which may hold
    // spaces: state is the first, utime the 12th, stime the 13th.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(utime), Some(stime)) => Ok((utime + stime) / USER_HZ),
        _ => Err("/proc/self/stat: no utime/stime".into()),
    }
}

/// CPU time of the calling thread, in seconds, at nanosecond resolution.
///
/// # Errors
///
/// Returns a message where `/proc/thread-self/schedstat` is unavailable.
pub fn thread_cpu_s() -> Result<f64, String> {
    Ok(schedstat_ns(Path::new("/proc/thread-self/schedstat"))? as f64 * 1e-9)
}

/// The CPU time of every live thread of this process, by thread id, at
/// nanosecond resolution: for work shorter than `/proc/self/stat`'s
/// 10 ms ticks that runs on several threads.
#[derive(Debug, Clone)]
pub struct ThreadCpu(Vec<(u64, u64)>);

impl ThreadCpu {
    /// Reads every live thread's CPU time.
    ///
    /// # Errors
    ///
    /// Returns a message where `/proc/self/task` is unavailable.
    pub fn read() -> Result<ThreadCpu, String> {
        let tasks =
            std::fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
        let mut times = Vec::new();
        for task in tasks {
            let path = task.map_err(|e| format!("/proc/self/task: {e}"))?.path();
            let Some(tid) = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.parse().ok())
            else {
                continue;
            };
            // A thread may end between the listing and the read.
            if let Ok(ns) = schedstat_ns(&path.join("schedstat")) {
                times.push((tid, ns));
            }
        }
        Ok(ThreadCpu(times))
    }

    /// CPU seconds the process's threads have used since `self` was
    /// read: each live thread's time less what it had then. A thread
    /// started since counts in full; one that ended since is left out.
    ///
    /// # Errors
    ///
    /// Returns a message where `/proc/self/task` is unavailable.
    pub fn since(&self) -> Result<f64, String> {
        let now = ThreadCpu::read()?;
        let ns: u64 = now
            .0
            .iter()
            .map(|&(tid, ns)| {
                let before = self.0.iter().find(|&&(t, _)| t == tid).map_or(0, |t| t.1);
                ns.saturating_sub(before)
            })
            .sum();
        Ok(ns as f64 * 1e-9)
    }
}

/// The run time, in nanoseconds, of a `schedstat` file's thread.
fn schedstat_ns(path: &Path) -> Result<u64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.split_whitespace()
        .next()
        .and_then(|ns| ns.parse().ok())
        .ok_or_else(|| format!("{}: no run time", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Busy-loops until the calling thread has run for `seconds` of CPU
    /// time, however long other threads keep it off a core.
    fn spin(seconds: f64) {
        let start = thread_cpu_s().unwrap();
        let mut x = 0u64;
        while thread_cpu_s().unwrap() - start < seconds {
            for _ in 0..10_000 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            }
        }
    }

    #[test]
    fn cpu_times_grow_with_work() {
        let (process, threads) = (process_cpu_s().unwrap(), ThreadCpu::read().unwrap());
        spin(0.05);
        assert!(process_cpu_s().unwrap() > process);
        assert!(threads.since().unwrap() >= 0.05);
    }

    #[test]
    fn threads_started_since_count_in_full() {
        let before = ThreadCpu::read().unwrap();
        let (spun_tx, spun_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            spin(0.05);
            spun_tx.send(()).unwrap();
            done_rx.recv().unwrap();
        });
        // The worker has spun and is still alive.
        spun_rx.recv().unwrap();
        assert!(before.since().unwrap() >= 0.05);
        done_tx.send(()).unwrap();
        worker.join().unwrap();
    }
}
