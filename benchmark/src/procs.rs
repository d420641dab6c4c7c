//! The system-under-test processes: spawning `tirm_server` children,
//! reading their CPU time and peak memory from `/proc`, and tearing them
//! down. Every child a round spawns is stopped and waited for before
//! the round returns, also when the round fails.

use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a child may take to announce its listening address.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a child may take to exit after `shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

/// User + system CPU seconds a process (all its threads, exited ones
/// included) has used so far: its POSIX CPU-time clock, which counts in
/// nanoseconds — `/proc/<pid>/stat` counts in 10 ms ticks, which a
/// best-of-rounds estimator turns into values that repeat exactly from
/// run to run. `None` once the process is gone.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    // What `clock_getcpuclockid(3)` computes: the process-wide,
    // scheduler-accounted (`CPUCLOCK_SCHED` = 2) CPU clock of `pid`.
    let clock_id = (!(i32::try_from(pid).ok()?) << 3) | 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points at a live, properly aligned `Timespec` with
    // the C layout of 64-bit Linux (two 64-bit signed fields); it keeps
    // no reference to it. Any clock id is acceptable input: an invalid
    // one makes the call return -1.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// The benchmark reads `/proc` and Linux clock ids: elsewhere there is
/// no CPU time to report.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_seconds(_pid: u32) -> Option<f64> {
    None
}

/// Confines this process, and every thread and child it starts from now
/// on, to the first CPU it may run on; returns that CPU. The benchmark
/// measures on one CPU because a shared VM's second one is there only
/// some of the time (README, N4): what needs both at once then takes up
/// to twice as long for as long as the host pleases.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn pin_to_one_cpu() -> io::Result<usize> {
    /// glibc's `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `sched_getaffinity` writes at most `cpusetsize` bytes
    // through the pointer, which points at a live `CpuSet` of exactly
    // that size; pid 0 is the calling thread. It keeps no reference.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let (word, bits) = allowed
        .iter()
        .enumerate()
        .find(|(_, bits)| **bits != 0)
        .ok_or_else(|| io::Error::other("the affinity mask names no CPU"))?;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bits.trailing_zeros();
    // SAFETY: `sched_setaffinity` reads `cpusetsize` bytes through the
    // pointer, which points at a live `CpuSet` of exactly that size, and
    // keeps no reference; pid 0 is the calling thread. Called before
    // this process starts any other thread, so all of them inherit it.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(word * 64 + bits.trailing_zeros() as usize)
}

/// Affinity is a Linux call; see [`cpu_seconds`].
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn pin_to_one_cpu() -> io::Result<usize> {
    Err(io::Error::other("the benchmark runs on 64-bit Linux only"))
}

/// Peak resident set size of a process in MB (`VmHWM` of
/// `/proc/<pid>/status`, the high-water mark `ru_maxrss` reports).
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Where the `tirm_server` binary is: next to this executable (both are
/// built into the same target directory by `run.sh`).
pub fn server_binary() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let path = exe
        .parent()
        .map(|d| d.join("tirm_server"))
        .ok_or_else(|| io::Error::other("executable has no parent directory"))?;
    if path.is_file() {
        Ok(path)
    } else {
        Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "{} not found: build it with `cargo build --release -p tirm_server` into the \
                 same target directory (benchmark/run.sh does)",
                path.display()
            ),
        ))
    }
}

/// A running `tirm_server` child.
pub struct ServerProc {
    child: Child,
    /// The address the child announced on stderr.
    pub addr: String,
    /// Spawn → listening address announced.
    pub boot_s: f64,
    log: Arc<Mutex<Vec<String>>>,
    reader: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Spawns `bin` with `args` and `envs`, waits until it announces its
    /// listening address on stderr, and keeps draining stderr on a
    /// thread so the child never blocks on a full pipe.
    pub fn spawn(bin: &Path, args: &[String], envs: &[(&str, String)]) -> io::Result<ServerProc> {
        let t0 = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn()?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let log = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = mpsc::channel();
        let reader = {
            let log = log.clone();
            std::thread::spawn(move || {
                for line in BufReader::new(stderr).lines() {
                    let Ok(line) = line else { break };
                    if let Some(addr) = listening_address(&line) {
                        // The spawner may be gone already; nothing to do then.
                        let _ = tx.send(addr);
                    }
                    log.lock().expect("log poisoned").push(line);
                }
            })
        };
        let mut proc = ServerProc {
            child,
            addr: String::new(),
            boot_s: 0.0,
            log,
            reader: Some(reader),
        };
        match proc.await_listening(&rx, t0) {
            Ok(()) => Ok(proc),
            Err(e) => {
                let tail = proc.log_tail();
                proc.kill();
                Err(io::Error::new(
                    e.kind(),
                    format!("tirm_server did not start: {e}\n{tail}"),
                ))
            }
        }
    }

    fn await_listening(&mut self, rx: &Receiver<String>, t0: Instant) -> io::Result<()> {
        match rx.recv_timeout(BOOT_TIMEOUT) {
            Ok(addr) => {
                self.addr = addr;
                self.boot_s = t0.elapsed().as_secs_f64();
                Ok(())
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                Err(io::Error::new(io::ErrorKind::TimedOut, "no listening line"))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err(io::Error::other("exited before listening"))
            }
        }
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The last stderr lines, for error messages.
    pub fn log_tail(&self) -> String {
        let log = self.log.lock().expect("log poisoned");
        let from = log.len().saturating_sub(12);
        log[from..].join("\n")
    }

    /// Waits for the child to exit after a `shutdown` request was sent;
    /// kills it when it overstays. Returns whether it exited cleanly.
    pub fn wait_exit(mut self) -> bool {
        let t0 = Instant::now();
        let clean = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if t0.elapsed() < EXIT_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    self.kill();
                    break false;
                }
            }
        };
        self.join_reader();
        clean
    }

    fn kill(&mut self) {
        // Both fail only when the child is already gone.
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.join_reader();
    }

    fn join_reader(&mut self) {
        if let Some(reader) = self.reader.take() {
            // The reader ends at EOF of the child's stderr; a panic in it
            // only loses log lines.
            let _ = reader.join();
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if self.reader.is_some() {
            self.kill();
        }
    }
}

/// The address in the stderr line a leader (`listening on ADDR …`) or a
/// follower (`… serving reads on ADDR …`) announces itself with.
fn listening_address(line: &str) -> Option<String> {
    let rest = match line.strip_prefix("listening on ") {
        Some(rest) => rest,
        None => line.split_once("serving reads on ")?.1,
    };
    Some(rest.split_ascii_whitespace().next()?.to_string())
}

/// A directory that is removed, with everything in it, when dropped.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `parent/<prefix>-<pid>-<nanos>`.
    pub fn create(parent: &Path, prefix: &str) -> io::Result<TempDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path = parent.join(format!("{prefix}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Nothing useful can be done about a failure at exit.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// utime + stime of `/proc/<pid>/stat`, in seconds (100 ticks per
    /// second, as on every Linux this runs on): the reference the CPU-time
    /// clock is checked against.
    fn stat_cpu_seconds(pid: u32) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
        // The command name is parenthesised and may itself hold spaces.
        let rest = &stat[stat.rfind(')')? + 1..];
        let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
        // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
        let utime: f64 = fields.get(11)?.parse().ok()?;
        let stime: f64 = fields.get(12)?.parse().ok()?;
        Some((utime + stime) / 100.0)
    }

    #[test]
    fn boot_lines_parse() {
        assert_eq!(
            listening_address("listening on 127.0.0.1:4312 (queue depth 64, ...)").as_deref(),
            Some("127.0.0.1:4312")
        );
        assert_eq!(
            listening_address("following 127.0.0.1:1 — serving reads on 127.0.0.1:77 (state dir")
                .as_deref(),
            Some("127.0.0.1:77")
        );
        assert!(listening_address("== tirm_server EPINIONS").is_none());
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(cpu_seconds(pid).is_some());
        // Both clocks count the same thing: they agree to within a few
        // ticks on a process that has just burnt some CPU.
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let (fine, coarse) = (cpu_seconds(pid).unwrap(), stat_cpu_seconds(pid).unwrap());
        assert!((fine - coarse).abs() < 0.1, "{fine} vs {coarse}");
        assert!(peak_rss_mb(pid).is_some_and(|mb| mb > 0.0));
    }
}
