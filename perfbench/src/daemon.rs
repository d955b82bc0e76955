//! The `nearpeerd` child process: spawn, readiness, resource readings
//! from `/proc`, and a stop that always reaps it.

use crate::workload::{K, LANDMARKS};
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running daemon. Dropping it kills the process if it is still alive
/// and waits for it, so no exit path leaves it behind.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// Where it listens (an ephemeral loopback port).
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts `bin` on an ephemeral loopback port and waits for its
    /// readiness line.
    pub fn spawn(bin: &Path, regions: usize) -> io::Result<Self> {
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--idle-secs", "0"])
            .args(["--landmarks", &LANDMARKS.to_string()])
            .args(["--regions", &regions.to_string()])
            .args(["--neighbor-count", &K.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| {
                io::Error::new(e.kind(), format!("cannot start {}: {e}", bin.display()))
            })?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // Built before the readiness read, so an error below still reaps it.
        let mut daemon = Self {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        daemon.stdout.read_line(&mut line)?;
        // "nearpeerd listening on 127.0.0.1:PORT landmarks=.. regions=.."
        daemon.addr = line
            .strip_prefix("nearpeerd listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("nearpeerd did not report readiness: {line:?}"),
                )
            })?;
        Ok(daemon)
    }

    /// The daemon's CPU clock: user plus system time of all its threads,
    /// in nanoseconds (not the 10 ms ticks of `/proc/<pid>/stat`).
    pub fn cpu_clock(&self) -> io::Result<CpuClock> {
        let mut id = 0;
        // SAFETY: `id` is a valid out-pointer for the call.
        match unsafe { clock_getcpuclockid(self.child.id() as i32, &mut id) } {
            0 => Ok(CpuClock(id)),
            e => Err(io::Error::from_raw_os_error(e)),
        }
    }

    /// Peak resident set (`VmHWM`), in KiB.
    pub fn peak_rss_kb(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM"))
    }

    /// Waits up to `grace` for the daemon to exit on its own (after an
    /// acknowledged `Shutdown` and closed connections); one still running
    /// then is killed on drop. An unsuccessful exit is an error.
    pub fn finish(mut self, grace: Duration) -> io::Result<()> {
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("nearpeerd exited with {status}")))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }
}

/// A process CPU-time clock (`clock_getcpuclockid`).
#[derive(Clone, Copy)]
pub struct CpuClock(i32);

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

impl CpuClock {
    /// CPU time used so far, ns (0 once the process is gone).
    pub fn read(self) -> u64 {
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a valid out-pointer of the C layout.
        if unsafe { clock_gettime(self.0, &mut ts) } != 0 {
            return 0;
        }
        ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
