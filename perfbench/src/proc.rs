//! Building, spawning and measuring the `esvm` binary.

use std::env;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Builds `esvm` from the checkout in the working directory and returns
/// the absolute path of the binary.
pub fn build_esvm() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/exper").is_dir() {
        return Err(
            "run from the root of an esvm checkout (no Cargo.toml / crates/exper here)".into(),
        );
    }
    let cargo = env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "esvm-exper",
            "--bin",
            "esvm",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building esvm failed ({status})"));
    }
    let target =
        env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("esvm");
    bin.canonicalize()
        .map_err(|e| format!("built esvm not found at {}: {e}", bin.display()))
}

/// A command for `bin` in the default environment: the engines'
/// thread knobs are removed so every run is sequential.
pub fn esvm_command(bin: &Path, cwd: &Path) -> Command {
    let mut cmd = Command::new(bin);
    for knob in ["ESVM_THREADS", "ESVM_SHARDS", "ESVM_BATCH"] {
        cmd.env_remove(knob);
    }
    cmd.current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    cmd
}

/// Peak resident set (`VmHWM`) of a live process, in MiB.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Processor time (user + system) of every child this process has
/// reaped, in seconds, from `/proc/self/stat`. Under paravirtual steal
/// accounting the kernel leaves out the time the hypervisor ran other
/// guests on the child's processor.
pub fn reaped_children_cpu_s() -> Result<f64, String> {
    /// `USER_HZ`, the unit of the times in `/proc`: fixed at 100 on Linux.
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3;
    // cutime and cstime are fields 16 and 17.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(16 - 3), ticks(17 - 3)) {
        (Some(user), Some(system)) => Ok((user + system) / TICKS_PER_S),
        _ => Err(format!("unexpected /proc/self/stat: {stat:?}")),
    }
}

/// Time a thread has run on a processor, in seconds, from its
/// `schedstat` file (nanoseconds); steal is left out as for
/// [`reaped_children_cpu_s`].
fn schedstat_s(path: &Path) -> Result<f64, String> {
    let stat =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    stat.split_whitespace()
        .next()
        .and_then(|ns| ns.parse::<f64>().ok())
        .map(|ns| ns * 1e-9)
        .ok_or_else(|| format!("unexpected {}: {stat:?}", path.display()))
}

/// Processor time of the calling thread, in seconds.
pub fn thread_cpu_s() -> Result<f64, String> {
    schedstat_s(Path::new("/proc/thread-self/schedstat"))
}

/// Processor time of the live threads of process `pid`, in seconds.
pub fn process_cpu_s(pid: u32) -> Result<f64, String> {
    let tasks = format!("/proc/{pid}/task");
    let entries = std::fs::read_dir(&tasks).map_err(|e| format!("reading {tasks}: {e}"))?;
    let mut sum = 0.0;
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {tasks}: {e}"))?;
        sum += schedstat_s(&entry.path().join("schedstat"))?;
    }
    Ok(sum)
}

/// A child that is killed and reaped if it is dropped unfinished.
pub struct Running {
    child: Option<Child>,
}

impl Running {
    /// Spawns `cmd`.
    pub fn spawn(cmd: &mut Command) -> Result<Self, String> {
        let child = cmd.spawn().map_err(|e| format!("cannot start esvm: {e}"))?;
        Ok(Self { child: Some(child) })
    }

    /// The live child.
    pub fn child(&mut self) -> &mut Child {
        self.child.as_mut().expect("child is present until finish")
    }

    /// Waits for the child to exit on its own and collects its output;
    /// a non-zero exit is an error carrying its stderr.
    pub fn finish(mut self) -> Result<Output, String> {
        let child = self.child.take().expect("child is present until finish");
        let out = child
            .wait_with_output()
            .map_err(|e| format!("waiting for esvm: {e}"))?;
        if out.status.success() {
            Ok(out)
        } else {
            Err(format!(
                "esvm exited with {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ))
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One run of a command to completion.
pub struct Timed {
    /// Spawn to exit, in seconds.
    pub seconds: f64,
    /// Processor time the command used, in seconds.
    pub cpu_seconds: f64,
    /// Highest `VmHWM` seen while polling, in MiB (0 when not polled).
    pub peak_rss_mb: f64,
    /// Its standard output.
    pub stdout: String,
}

/// Runs `cmd` to completion, timing spawn to exit. With `poll_rss` a
/// second thread reads the child's `VmHWM` every 5 ms until it exits;
/// `VmHWM` only rises, so the last read is the peak up to that poll.
pub fn run_timed(cmd: &mut Command, poll_rss: bool) -> Result<Timed, String> {
    let cpu_before = reaped_children_cpu_s()?;
    let start = Instant::now();
    let running = Running::spawn(cmd)?;
    let pid = running.child.as_ref().map_or(0, Child::id);
    let done = AtomicBool::new(false);
    let (out, seconds, peak_rss_mb) = thread::scope(|s| {
        let poller = poll_rss.then(|| {
            s.spawn(|| {
                let mut peak = 0.0f64;
                while !done.load(Ordering::SeqCst) {
                    if let Some(mb) = vm_hwm_mb(pid) {
                        peak = peak.max(mb);
                    }
                    thread::sleep(Duration::from_millis(5));
                }
                peak
            })
        });
        let out = running.finish();
        let seconds = start.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        let peak = poller.map_or(0.0, |p| p.join().expect("rss poller panicked"));
        (out, seconds, peak)
    });
    Ok(Timed {
        seconds,
        cpu_seconds: reaped_children_cpu_s()? - cpu_before,
        peak_rss_mb,
        stdout: String::from_utf8_lossy(&out?.stdout).into_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reaped_child_adds_its_processor_time() {
        let before = reaped_children_cpu_s().unwrap();
        let status = Command::new("sh")
            .args(["-c", "i=0; while [ $i -lt 300000 ]; do i=$((i+1)); done"])
            .status()
            .unwrap();
        assert!(status.success());
        let used = reaped_children_cpu_s().unwrap() - before;
        assert!(used >= 0.05, "the child used {used} s");
    }

    #[test]
    fn thread_time_counts_work_and_not_sleep() {
        let t = thread_cpu_s().unwrap();
        thread::sleep(Duration::from_millis(100));
        let slept = thread_cpu_s().unwrap() - t;
        let t = thread_cpu_s().unwrap();
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(100) {
            std::hint::black_box(start);
        }
        let worked = thread_cpu_s().unwrap() - t;
        assert!(
            slept < 0.01 && worked > 0.02,
            "slept {slept} s, worked {worked} s"
        );
        assert!(process_cpu_s(std::process::id()).unwrap() >= worked);
    }
}
