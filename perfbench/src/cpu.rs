//! Thread CPU time from Linux `schedstat`, read only at window
//! boundaries: a `/proc` read costs tens of microseconds, which would
//! swamp a small tick if taken per tick.

use std::path::Path;

/// On-CPU nanoseconds of the calling thread, or `None` when `schedstat`
/// is unavailable (never a silent 0).
///
/// The kernel brings a running thread's total up to date only at a
/// scheduler event, so a busy thread's figure can lag by a whole
/// scheduler tick (4 ms at 250 Hz); yielding first makes it current.
pub fn this_thread_ns() -> Option<u64> {
    std::thread::yield_now();
    read_schedstat(Path::new("/proc/thread-self/schedstat"))
}

/// Summed on-CPU nanoseconds of this process's threads whose name starts
/// with `prefix` (under `proc_root`, normally `/proc`), with the number
/// of threads matched. `None` when the task list or any matching
/// thread's `schedstat` cannot be read, or no thread matches.
pub fn threads_ns(proc_root: &Path, prefix: &str) -> Option<(u64, usize)> {
    let tasks = std::fs::read_dir(proc_root.join("self/task")).ok()?;
    let mut total = 0u64;
    let mut matched = 0usize;
    for task in tasks {
        let dir = task.ok()?.path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue; // the thread exited while we listed
        };
        if comm.trim_end().starts_with(prefix) {
            total += read_schedstat(&dir.join("schedstat"))?;
            matched += 1;
        }
    }
    (matched > 0).then_some((total, matched))
}

/// First field of a `schedstat` file: time spent on the CPU, in ns.
fn read_schedstat(path: &Path) -> Option<u64> {
    std::fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_schedstat_is_unavailable_not_zero() {
        let nowhere = Path::new("/nonexistent-proc-root-for-test");
        assert_eq!(threads_ns(nowhere, "da-io"), None);
        assert_eq!(read_schedstat(&nowhere.join("schedstat")), None);
    }

    #[test]
    fn parses_the_first_field() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/cpu-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let f = dir.join("schedstat");
        std::fs::write(&f, "123456 789 10\n").expect("write");
        assert_eq!(read_schedstat(&f), Some(123456));
        std::fs::write(&f, "").expect("write");
        assert_eq!(read_schedstat(&f), None);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
