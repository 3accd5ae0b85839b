//! Host plumbing: where the repository and its build output live, the
//! `exp_all` build, the per-invocation scratch directory, and peak RSS.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The repository root this benchmark was built from (its package sits one
/// directory below the root).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// Cargo's target directory for the repository: `$CARGO_TARGET_DIR`
/// (a relative value is taken from the repository root, where the build
/// runs) or `<root>/target`.
pub fn target_dir() -> PathBuf {
    let root = repo_root();
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) if !dir.is_empty() => root.join(dir),
        _ => root.join("target"),
    }
}

/// Builds the repository's `exp_all` (release) from source and returns its
/// path. A no-op build takes well under a second.
pub fn build_exp_all() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let root = repo_root();
    let target = target_dir();
    let status = Command::new(cargo)
        .current_dir(&root)
        .args(["build", "--release", "--offline", "-q", "-p", "ehs-sim"])
        .args(["--bin", "exp_all", "--manifest-path"])
        .arg(root.join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", &target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building exp_all failed ({status})"));
    }
    let exe = target
        .join("release")
        .join(format!("exp_all{}", std::env::consts::EXE_SUFFIX));
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!(
            "exp_all was built but {} is missing",
            exe.display()
        ))
    }
}

/// A directory deleted (with everything in it) when dropped. All output of
/// one invocation — `exp_all` results and caches, probe caches — goes here,
/// under the build output directory, never into tracked files.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates a fresh `<target>/ehs-bench-tmp/<pid>-<nanos>`.
    pub fn create() -> std::io::Result<Self> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path = target_dir()
            .join("ehs-bench-tmp")
            .join(format!("{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            // Succeeds only once no other invocation is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Number of files named `*.run` in `dir` and the total bytes of all files
/// in it (not recursive) — a run cache's entry count and size.
pub fn run_cache_stats(dir: &Path) -> (u64, u64) {
    let mut entries = 0;
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if let Ok(meta) = entry.metadata() {
            if meta.is_file() {
                bytes += meta.len();
                if entry.file_name().to_string_lossy().ends_with(".run") {
                    entries += 1;
                }
            }
        }
    }
    (entries, bytes)
}

/// Whose peak resident set size [`peak_rss_mb`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Who {
    /// This process.
    SelfProcess,
    /// The largest of this process's waited-for children.
    Children,
}

/// Peak resident set size in MB (`getrusage` `ru_maxrss`), or `None` where
/// the call is unavailable.
pub fn peak_rss_mb(who: Who) -> Option<f64> {
    rusage::max_rss_kib(match who {
        Who::SelfProcess => 0,
        Who::Children => -1,
    })
    .map(|kib| kib as f64 / 1024.0)
}

#[cfg(target_os = "linux")]
mod rusage {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    struct Timeval {
        sec: c_long,
        usec: c_long,
    }

    /// `struct rusage` from `<sys/resource.h>`: two timevals, then fourteen
    /// `long` counters of which `ru_maxrss` (KiB on Linux) is the first.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: c_long,
        rest: [c_long; 13],
    }

    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }

    pub fn max_rss_kib(who: c_int) -> Option<u64> {
        let mut usage = std::mem::MaybeUninit::<Rusage>::zeroed();
        // SAFETY: `usage` points to writable memory laid out as the C
        // `struct rusage` (repr(C), field types from the Linux ABI), and
        // `who` is RUSAGE_SELF (0) or RUSAGE_CHILDREN (-1).
        let rc = unsafe { getrusage(who, usage.as_mut_ptr()) };
        if rc != 0 {
            return None;
        }
        // SAFETY: getrusage returned 0, so it filled the whole struct (and
        // it was zero-initialized before that in any case).
        let usage = unsafe { usage.assume_init() };
        u64::try_from(usage.maxrss).ok()
    }
}

#[cfg(not(target_os = "linux"))]
mod rusage {
    pub fn max_rss_kib(_who: i32) -> Option<u64> {
        None
    }
}
