//! What the benchmark records about, and cleans up in, its environment.

use std::path::{Path, PathBuf};
use std::process::Command;

use approxhadoop::runtime::engine::WorkerSpec;

/// Name of the worker binary (a sibling of the benchmark executable).
pub const WORKER_BIN: &str = "bench-worker";

/// The environment a results file was produced in. On a 2-core box
/// every timing reads differently than on 16 cores, so a number without
/// this stamp cannot be compared with anything.
#[derive(Debug, Clone, serde::Serialize)]
pub struct EnvStamp {
    /// `std::thread::available_parallelism` of the host.
    pub nproc: usize,
    /// `rustc -V`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// Whether the work tree differed from `commit`.
    pub dirty: bool,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
}

impl EnvStamp {
    /// Captures the stamp (spawns `rustc` and `git`, each waited for).
    pub fn capture() -> EnvStamp {
        let status = stdout_of("git", &["status", "--porcelain"]);
        EnvStamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: stdout_of("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            commit: stdout_of("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            dirty: status.is_some_and(|s| !s.is_empty()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}

fn stdout_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Extracts `VmHWM` from the text of `/proc/<pid>/status`, in MiB.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let value: f64 = fields.next()?.parse().ok()?;
    match fields.next()? {
        "kB" => Some(value / 1024.0),
        _ => None,
    }
}

/// A per-run scratch directory inside the checkout, removed when the
/// guard drops — on success, on a failed check and on a panic alike.
/// `TMPDIR` is pointed at it so the engine's own default scratch
/// location (used by `JobService::submit_process`, which takes no
/// directory) also stays inside the checkout.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `<out_dir>/scratch-<pid>`; call before spawning threads
    /// (it sets an environment variable).
    pub fn create(out_dir: &Path) -> std::io::Result<Scratch> {
        let dir = out_dir.join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        let dir = dir.canonicalize()?;
        std::env::set_var("TMPDIR", &dir);
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The worker binary (a sibling of the running executable) set to run
/// the registered job `job`.
pub fn worker(job: &str) -> Result<WorkerSpec, String> {
    WorkerSpec::sibling(WORKER_BIN, job)
        .map_err(|e| format!("{e}; build every binary of the package first (run.sh does)"))
}

/// Pids of worker processes that are still children of this process.
/// The engine must have reaped every worker by the time a job returns,
/// so anything found here outlived its job.
pub fn leftover_workers() -> Vec<u32> {
    let me = std::process::id();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .is_some_and(|stat| parse_stat(&stat) == Some((WORKER_BIN, me)))
        })
        .collect()
}

/// `(comm, ppid)` from the text of `/proc/<pid>/stat`. The command name
/// is parenthesised and may itself contain spaces or parentheses, so
/// the fields after it are located from the *last* `)`.
fn parse_stat(stat: &str) -> Option<(&str, u32)> {
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    let ppid = stat[close + 1..].split_whitespace().nth(1)?.parse().ok()?;
    Some((&stat[open + 1..close], ppid))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_kib_to_mib() {
        let status =
            "Name:\tapprox-bench\nVmPeak:\t  999999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t 1024 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t 12 pages\n"), None);
    }

    #[test]
    fn own_status_has_a_peak() {
        assert!(peak_rss_mib().is_some_and(|mib| mib > 0.0));
    }

    #[test]
    fn stat_survives_odd_command_names() {
        assert_eq!(
            parse_stat("42 (bench-worker) S 7 42 42 0"),
            Some(("bench-worker", 7))
        );
        assert_eq!(parse_stat("42 (a (b) c) R 9 1 1"), Some(("a (b) c", 9)));
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn scratch_is_removed_on_drop() {
        let base = std::env::temp_dir().join(format!("approx-bench-test-{}", std::process::id()));
        let scratch = Scratch::create(&base).unwrap();
        let dir = scratch.path().to_path_buf();
        std::fs::write(dir.join("spill.run"), b"x").unwrap();
        drop(scratch);
        assert!(!dir.exists());
        let _ = std::fs::remove_dir_all(&base);
    }
}
