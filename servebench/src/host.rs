//! The host-speed probe, and the host-speed adjustment of a window's
//! figures.
//!
//! The virtual machine the benchmark runs on shares its host. The CPU the
//! harness is pinned to runs up to a half slower or faster from one spell
//! of seconds or minutes to the next (`NOTES.md`, last section), so runs
//! of the same code differ by more than any bound the benchmark could
//! carry. While the closed loop runs, the harness therefore asks a probe
//! process on the same CPU to time two fixed loops every few requests:
//!
//! * random read-modify-writes over a 16 MiB table (memory), and
//! * round trips of a 64-byte message between two threads over a Unix
//!   socket pair (system calls and context switches).
//!
//! The probe is benchmark code in a process of its own, so no change to
//! the program can make it faster or slower, and its table counts in no
//! measured process's memory. Its *host factor* is the geometric mean of
//! the two loops' speeds, each relative to a fixed reference speed: 1
//! means the reference host, 0.5 a host running at half its speed.
//!
//! The end-to-end figures are stated at the reference speed: each
//! request's latency is multiplied by the host factor around it, and
//! throughput counts requests per second of reference-host time.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Instant;

/// Entries of the memory loop's table: 16 MiB of `u64`, well beyond L2.
const TABLE: usize = 1 << 21;
/// Steps of one memory pass, about 0.3 ms.
const STEPS: usize = 20_000;
/// Round trips of one switch pass; the pass reports their median.
const ROUND_TRIPS: usize = 20;
/// Memory-loop speed of the reference host, in steps per microsecond.
pub const MEMORY_REFERENCE: f64 = 80.0;
/// Switch-loop speed of the reference host, in round trips per
/// millisecond.
pub const SWITCH_REFERENCE: f64 = 150.0;
/// The host factor at a moment is the median of the probes within this
/// many seconds of it.
const HALF_WINDOW_S: f64 = 0.5;

/// The probe process's two loops.
struct Loops {
    table: Vec<u64>,
    passes: u64,
    /// This end of the socket pair; `echo_thread` holds the other.
    echo: UnixStream,
    echo_thread: JoinHandle<()>,
}

impl Loops {
    fn new() -> std::io::Result<Loops> {
        let (echo, mut far) = UnixStream::pair()?;
        let echo_thread = std::thread::spawn(move || {
            let mut buf = [0u8; 64];
            while far.read_exact(&mut buf).is_ok() && far.write_all(&buf).is_ok() {}
        });
        Ok(Loops {
            table: (0..TABLE as u64).collect(),
            passes: 0,
            echo,
            echo_thread,
        })
    }

    /// Close this end of the socket pair and wait for the echo thread.
    fn finish(self) -> Result<(), String> {
        self.echo
            .shutdown(Shutdown::Both)
            .map_err(|e| format!("probe socket shutdown: {e}"))?;
        self.echo_thread
            .join()
            .map_err(|_| "probe echo thread panicked".to_string())
    }

    /// The host factor of one pass of both loops, or `None` when the
    /// memory pass was switched out.
    fn factor(&mut self) -> std::io::Result<Option<f64>> {
        let memory = self.memory();
        let switch = self.switch()?;
        Ok(memory.map(|m| (m / MEMORY_REFERENCE * switch / SWITCH_REFERENCE).sqrt()))
    }

    /// Steps per microsecond, or `None` when the thread was switched out
    /// during the pass.
    fn memory(&mut self) -> Option<f64> {
        self.passes += 1;
        let before = switches();
        let t = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64 ^ self.passes;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & (TABLE - 1);
            self.table[i] = self.table[i].wrapping_add(x);
        }
        black_box(&self.table);
        let secs = t.elapsed().as_secs_f64();
        (switches() == before).then(|| STEPS as f64 / secs / 1e6)
    }

    /// Round trips per millisecond, from the median round trip, which
    /// other threads of the CPU delay less often than the mean.
    fn switch(&mut self) -> std::io::Result<f64> {
        let mut buf = [7u8; 64];
        let mut times = Vec::with_capacity(ROUND_TRIPS);
        for _ in 0..ROUND_TRIPS {
            let t = Instant::now();
            self.echo.write_all(&buf)?;
            self.echo.read_exact(&mut buf)?;
            times.push(t.elapsed().as_secs_f64() * 1e3);
        }
        Ok(1.0 / crate::stats::median(&times))
    }
}

/// Times this thread has been switched onto a CPU (the third field of
/// `/proc/thread-self/schedstat`); 0 where the kernel does not say.
fn switches() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|t| t.split_whitespace().nth(2)?.parse().ok())
        .unwrap_or(0)
}

/// The `probe` mode: answer every byte read from stdin with one pass's
/// host factor as a little-endian `f64` (0 when the pass was switched
/// out), until stdin closes.
pub fn serve() -> Result<(), String> {
    let mut loops = Loops::new().map_err(|e| format!("probe socket pair: {e}"))?;
    let (mut input, mut output) = (std::io::stdin().lock(), std::io::stdout().lock());
    let mut byte = [0u8; 1];
    while input
        .read(&mut byte)
        .map_err(|e| format!("probe stdin: {e}"))?
        == 1
    {
        let factor = loops
            .factor()
            .map_err(|e| format!("probe round trip: {e}"))?
            .unwrap_or(0.0);
        output
            .write_all(&factor.to_le_bytes())
            .and_then(|()| output.flush())
            .map_err(|e| format!("probe stdout: {e}"))?;
    }
    loops.finish()
}

/// The probe process (`servebench probe`), which inherits the harness's
/// CPU. Dropping the handle stops and reaps it.
pub struct Probe {
    child: Child,
    stdin: ChildStdin,
    stdout: ChildStdout,
}

impl Probe {
    pub fn spawn() -> Result<Probe, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("probe")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn probe: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        Ok(Probe {
            child,
            stdin,
            stdout,
        })
    }

    /// The host factor of one pass, or `None` when it was switched out.
    pub fn factor(&mut self) -> Option<f64> {
        let mut answer = [0u8; 8];
        self.stdin
            .write_all(&[1])
            .and_then(|()| self.stdin.flush())
            .and_then(|()| self.stdout.read_exact(&mut answer))
            .expect("probe process answers");
        let factor = f64::from_le_bytes(answer);
        (factor > 0.0).then_some(factor)
    }

    /// The median factor of `n` passes (1 if none ran unswitched).
    pub fn median_factor(&mut self, n: usize) -> f64 {
        let factors: Vec<f64> = (0..n).filter_map(|_| self.factor()).collect();
        if factors.is_empty() {
            1.0
        } else {
            crate::stats::median(&factors)
        }
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Host factors over a window, by time.
#[derive(Default)]
pub struct Timeline {
    /// `(seconds into the window, factor)`, in time order.
    probes: Vec<(f64, f64)>,
}

impl Timeline {
    pub fn push(&mut self, t_s: f64, factor: Option<f64>) {
        if let Some(f) = factor {
            self.probes.push((t_s, f));
        }
    }

    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// This timeline followed by `next`, which starts `offset_s` later.
    pub fn then(mut self, next: Timeline, offset_s: f64) -> Timeline {
        self.probes
            .extend(next.probes.into_iter().map(|(t, f)| (t + offset_s, f)));
        self
    }

    /// Median factor of the whole window.
    pub fn median(&self) -> f64 {
        crate::stats::median(&self.probes.iter().map(|p| p.1).collect::<Vec<_>>())
    }

    /// The host factor at `t_s`: the median of the probes within
    /// [`HALF_WINDOW_S`] of it, else the nearest probe, else 1.
    pub fn at(&self, t_s: f64) -> f64 {
        let lo = self.probes.partition_point(|p| p.0 < t_s - HALF_WINDOW_S);
        let hi = self.probes.partition_point(|p| p.0 <= t_s + HALF_WINDOW_S);
        if lo < hi {
            let near: Vec<f64> = self.probes[lo..hi].iter().map(|p| p.1).collect();
            return crate::stats::median(&near);
        }
        self.probes
            .iter()
            .min_by(|a, b| (a.0 - t_s).abs().total_cmp(&(b.0 - t_s).abs()))
            .map_or(1.0, |p| p.1)
    }

    /// Reference-host seconds between `t0_s` and `t1_s`: wall time
    /// multiplied by the host factor, over 0.1 s steps.
    pub fn reference_seconds(&self, t0_s: f64, t1_s: f64) -> f64 {
        const STEP: f64 = 0.1;
        let mut sum = 0.0;
        let mut t = t0_s;
        while t < t1_s {
            let dt = STEP.min(t1_s - t);
            sum += dt * self.at(t + dt / 2.0);
            t += dt;
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline(probes: &[(f64, f64)]) -> Timeline {
        let mut t = Timeline::default();
        for &(at, f) in probes {
            t.push(at, Some(f));
        }
        t
    }

    #[test]
    fn factor_is_the_median_of_nearby_probes() {
        let t = timeline(&[(0.0, 0.6), (0.2, 1.0), (0.4, 0.8), (3.0, 0.4)]);
        assert_eq!(t.at(0.2), 0.8);
        assert_eq!(t.at(2.0), 0.4, "nearest probe when none is within reach");
        assert!((t.median() - 0.7).abs() < 1e-12);
        assert_eq!(Timeline::default().at(1.0), 1.0);
    }

    #[test]
    fn reference_seconds_scale_with_the_factor() {
        let half = timeline(&[(0.0, 0.5), (10.0, 0.5)]);
        assert!((half.reference_seconds(0.0, 10.0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn probe_loops_run() {
        let mut loops = Loops::new().expect("socket pair");
        // A memory pass may be switched out; one of several is not.
        let factors: Vec<f64> = (0..10).filter_map(|_| loops.factor().unwrap()).collect();
        assert!(!factors.is_empty() && factors.iter().all(|&f| f > 0.0));
        loops.finish().unwrap();
    }
}
