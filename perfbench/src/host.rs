//! Host fingerprint, peak memory and the benchmark's scratch directory.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The repository root: the directory holding this package.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("the package lives in the repo").into()
}

/// The benchmark's scratch root, `.bench_work` under the repository root.
pub fn work_root() -> PathBuf {
    repo_root().join(".bench_work")
}

/// Creates [`work_root`] and makes it the process's temp directory, so the
/// paged store's spill files stay inside the checkout too. Call before any
/// other thread starts.
///
/// # Errors
/// Returns a message if the directory cannot be created.
pub fn use_work_root_as_tmpdir() -> Result<(), String> {
    let root = work_root();
    std::fs::create_dir_all(&root).map_err(|e| format!("cannot create {}: {e}", root.display()))?;
    std::env::set_var("TMPDIR", &root);
    Ok(())
}

/// Worker count every workload sizes itself to: the cores this process may
/// use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What two results must share before their numbers may be compared: the
/// host (core count and CPU model), the compiler that built this binary,
/// the code (git revision
/// and a digest of every source file the benchmark builds) and the workload
/// with its parameters.
pub fn fingerprint(workload: &str, seed: u64, seconds: f64, params: &str) -> String {
    let root = repo_root();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // A source export without `.git` has no revision; never let git walk up
    // into whatever directory encloses it.
    let git_rev = if root.join(".git").exists() { git_head(&root) } else { "none".into() };
    format!(
        "{{\"cores\": {}, \"cpu\": {:?}, \"rustc\": {:?}, \"git_rev\": {:?}, \
         \"source_digest\": \"{:016x}\", \"workload\": {:?}, \"seed\": {}, \
         \"seconds\": {}, \"params\": {:?}}}",
        nproc(),
        cpu,
        env!("PERFBENCH_RUSTC_VERSION"),
        git_rev,
        source_digest(&root),
        workload,
        seed,
        seconds,
        params,
    )
}

/// The abbreviated commit `git` reports for `dir`, or `"unknown"`.
fn git_head(dir: &Path) -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(dir)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a digest over the path and bytes of every file the benchmark binary
/// is built from, in path order: identifies the code when git cannot.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "src", "vendor", "perfbench/src"] {
        collect_files(&root.join(dir), &mut files);
    }
    for file in [
        "Cargo.toml",
        "Cargo.lock",
        "perfbench/Cargo.toml",
        "perfbench/Cargo.lock",
        "perfbench/build.rs",
    ] {
        files.push(root.join(file));
    }
    files.sort();
    let mut hash = Fnv::new();
    for file in files {
        if let Ok(bytes) = std::fs::read(&file) {
            hash.write(file.strip_prefix(root).unwrap_or(&file).to_string_lossy().as_bytes());
            hash.write(&bytes);
        }
    }
    hash.finish()
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else if path.is_file() {
            out.push(path);
        }
    }
}

/// 64-bit FNV-1a, used for source and result digests.
pub struct Fnv(u64);

impl Fnv {
    /// A fresh hasher.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}
