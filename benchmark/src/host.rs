//! The host the numbers were taken on: fingerprint, the core-count guard and
//! the process's own memory gauges.

use mop_json::{json, Value};

/// A timed fleet is one shard worker fed by a dispatcher, the served loop a
/// client, a server and a worker, and every workload ends on a two-shard
/// cross-check: on fewer cores the wall clock would measure time-slicing.
pub const MIN_NPROC: usize = 2;

/// What the output document records about the machine and the build.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub rustc: String,
    pub profile: &'static str,
    pub commit: String,
}

impl Host {
    /// Reads the fingerprint. `rustc -V` and the commit come from the
    /// environment (`run.sh` exports them): the binary itself starts no
    /// process, and the driver's checkout is not a git repository.
    pub fn fingerprint() -> Self {
        let env = |key: &str| std::env::var(key).ok().filter(|v| !v.is_empty());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env("MOPBENCH_RUSTC").unwrap_or_else(|| "unknown".into()),
            profile: if cfg!(debug_assertions) {
                "debug (numbers not comparable)"
            } else {
                "release lto=thin debug=true"
            },
            commit: env("MOPBENCH_COMMIT").unwrap_or_else(|| "unknown".into()),
        }
    }

    /// `Err` with the refusal message on a host too small to run a worker
    /// beside its dispatcher.
    pub fn guard(&self) -> Result<(), String> {
        if self.nproc < MIN_NPROC {
            return Err(format!(
                "mopbench refuses to run: this host offers {} core(s) and a fleet here is a \
                 dispatcher beside its shard worker ({MIN_NPROC} threads) — the wall clock would \
                 measure time-slicing",
                self.nproc
            ));
        }
        Ok(())
    }

    pub fn to_json(&self) -> Value {
        json!({
            "nproc": self.nproc as i64,
            "rustc": self.rustc.clone(),
            "profile": self.profile,
            "commit": self.commit.clone(),
        })
    }
}

/// The value in kB of a `Key:   1234 kB` line of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

fn status_kb(key: &str) -> Option<u64> {
    parse_status_kb(&std::fs::read_to_string("/proc/self/status").ok()?, key)
}

/// This process's peak resident set (`VmHWM`), in kB.
pub fn vm_hwm_kb() -> Option<u64> {
    status_kb("VmHWM")
}

/// This process's current resident set (`VmRSS`), in kB.
pub fn vm_rss_kb() -> Option<u64> {
    status_kb("VmRSS")
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tmopbench\nVmPeak:\t  204800 kB\nVmHWM:\t   51234 kB\n\
                          VmRSS:\t   40000 kB\nThreads:\t3\n";

    #[test]
    fn status_lines_parse_to_kilobytes() {
        assert_eq!(parse_status_kb(STATUS, "VmHWM"), Some(51_234));
        assert_eq!(parse_status_kb(STATUS, "VmRSS"), Some(40_000));
        // A key that is a prefix of another line must not match it.
        assert_eq!(parse_status_kb(STATUS, "Vm"), None);
        assert_eq!(parse_status_kb(STATUS, "Threads"), None, "not a kB line");
        assert_eq!(parse_status_kb("VmHWM:\tlots kB\n", "VmHWM"), None);
        assert_eq!(parse_status_kb("", "VmHWM"), None);
    }

    #[test]
    fn the_live_process_reports_a_peak() {
        let hwm = vm_hwm_kb().expect("/proc/self/status has VmHWM on Linux");
        assert!(hwm >= vm_rss_kb().unwrap_or(0) / 2 && hwm > 0);
    }

    #[test]
    fn the_guard_refuses_a_single_core() {
        let mut host = Host::fingerprint();
        host.nproc = 1;
        assert!(host.guard().unwrap_err().contains("refuses to run"));
        host.nproc = 2;
        assert!(host.guard().is_ok());
    }
}
