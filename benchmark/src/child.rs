//! Child-process accounting without crates: spawn with
//! `std::process::Command`, reap with `wait4(2)` to get the exit status
//! together with the child's peak RSS and CPU time.

use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Per-invocation limit; a child still running after this is killed and
/// counts as a failed operation.
pub const TIMEOUT: Duration = Duration::from_secs(60);

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs of
/// which the first is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

const SIGKILL: i32 = 9;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// What one child process cost.
#[derive(Debug, Clone, Copy)]
pub struct ChildStats {
    /// Spawn to reaped, in seconds.
    pub wall_s: f64,
    /// Exited with status 0 within [`TIMEOUT`].
    pub ok: bool,
    pub timed_out: bool,
    pub max_rss_kb: i64,
    /// User plus system CPU seconds.
    pub cpu_s: f64,
}

impl ChildStats {
    const FAILED: Self = Self {
        wall_s: 0.0,
        ok: false,
        timed_out: false,
        max_rss_kb: 0,
        cpu_s: 0.0,
    };
}

/// Run `cmd` to completion with stdout discarded and stderr inherited.
/// A child that cannot be spawned is reported as a failed run, not an
/// error: the benchmark counts it and goes on.
pub fn run(cmd: &mut Command) -> ChildStats {
    let start = Instant::now();
    let child = match cmd.stdin(Stdio::null()).stdout(Stdio::null()).spawn() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("benchmark: cannot spawn {:?}: {e}", cmd.get_program());
            return ChildStats::FAILED;
        }
    };
    let pid = child.id() as i32;
    // The watchdog sleeps on the channel: a message (or the sender being
    // dropped) means the child was reaped, a timeout means it hangs.
    let (reaped_tx, reaped_rx) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        let hung = reaped_rx.recv_timeout(TIMEOUT) == Err(mpsc::RecvTimeoutError::Timeout);
        if hung {
            // SAFETY: plain syscall on a pid this process spawned and has
            // not reaped yet (the reaper signals this thread afterwards).
            unsafe { kill(pid, SIGKILL) };
        }
        hung
    });
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `status` and `usage` are live, writable and laid out as the
    // kernel expects (see `Rusage`); `pid` is our own unreaped child.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall_s = start.elapsed().as_secs_f64();
    drop(reaped_tx);
    let timed_out = watchdog.join().expect("watchdog thread does not panic");
    let seconds = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    ChildStats {
        wall_s,
        // Low 7 bits clear: exited, not signalled; next byte: exit code.
        ok: reaped == pid && status & 0x7f == 0 && (status >> 8) & 0xff == 0 && !timed_out,
        timed_out,
        max_rss_kb: usage.maxrss,
        cpu_s: seconds(&usage.utime) + seconds(&usage.stime),
    }
}
