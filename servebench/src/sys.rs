//! Process-level plumbing: the broker child process and the `/proc`
//! readings the harness reports (CPU affinity, peak RSS, steal time).

use fpdm::plinda::TupleSpace;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where the harness keeps its sockets and span files, relative to the
/// directory it runs from.
pub const OUT_DIR: &str = "servebench/out";

/// An `fpdm-spaced` broker running in its own OS process. The process
/// inherits the harness's CPU affinity. Dropping the handle kills and
/// reaps it; `run.py` kills whatever the harness leaves behind.
pub struct BrokerProcess {
    child: Child,
    socket: PathBuf,
}

impl BrokerProcess {
    /// Start the broker executable `exe` on a fresh socket under
    /// [`OUT_DIR`] and wait until its socket appears.
    pub fn spawn(exe: &Path, tag: &str) -> Result<BrokerProcess, String> {
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
        let socket = Path::new(OUT_DIR).join(format!("broker-{}-{tag}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(exe)
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let broker = BrokerProcess { child, socket };
        let deadline = Instant::now() + Duration::from_secs(10);
        while !broker.socket.exists() {
            if Instant::now() > deadline {
                return Err("broker socket did not appear within 10 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(broker)
    }

    /// A new client connection to the broker.
    pub fn connect(&self) -> Result<Arc<TupleSpace>, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match TupleSpace::connect_unix(&self.socket) {
                Ok(space) => return Ok(Arc::new(space)),
                Err(e) if Instant::now() > deadline => return Err(format!("connect broker: {e}")),
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for BrokerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One field of `/proc/<pid>/status`, e.g. `VmHWM` or `Cpus_allowed_list`.
pub fn proc_status(pid: u32, field: &str) -> Option<String> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// Peak resident set (`VmHWM`) of a process in MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    proc_status(pid, "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs this process may run on, as the kernel lists them.
pub fn cpus_allowed(pid: u32) -> String {
    proc_status(pid, "Cpus_allowed_list").unwrap_or_else(|| "?".into())
}

/// Online CPUs of the machine (`cpuN` lines of `/proc/stat`), regardless
/// of this process's affinity.
pub fn machine_cpus() -> usize {
    std::fs::read_to_string("/proc/stat")
        .map(|t| {
            t.lines()
                .filter(|l| {
                    l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit)
                })
                .count()
        })
        .unwrap_or(0)
}

/// `(steal, total)` jiffies of the CPUs in `cpus` (a kernel CPU list such
/// as `1` or `0-1`), from `/proc/stat`.
pub fn steal_jiffies(cpus: &str) -> (u64, u64) {
    let wanted = parse_cpu_list(cpus);
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let mut steal = 0;
    let mut total = 0;
    for line in text.lines() {
        let mut fields = line.split_whitespace();
        let Some(id) = fields.next().and_then(|n| n.strip_prefix("cpu")) else {
            continue;
        };
        if !id.parse::<usize>().is_ok_and(|c| wanted.contains(&c)) {
            continue;
        }
        let vals: Vec<u64> = fields.filter_map(|f| f.parse().ok()).collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice]
        total += vals.iter().take(8).sum::<u64>();
        steal += vals.get(7).copied().unwrap_or(0);
    }
    (steal, total)
}

fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut out = Vec::new();
    for part in list.split(',') {
        match part.split_once('-') {
            Some((a, b)) => {
                if let (Ok(a), Ok(b)) = (a.trim().parse::<usize>(), b.trim().parse::<usize>()) {
                    out.extend(a..=b);
                }
            }
            None => out.extend(part.trim().parse::<usize>().ok()),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("1"), [1]);
        assert_eq!(parse_cpu_list("0-2,5"), [0, 1, 2, 5]);
    }
}
