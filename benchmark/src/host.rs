//! What the benchmark reports about where it ran and what it ran on: cpu
//! model, core count, peak memory, git revision, and the repository-size
//! counters (`repo.loc`, `repo.pub_items`) ROADMAP aim 2 tracks beside the
//! timings.

use crate::json::Json;
use std::fs;
use std::path::{Path, PathBuf};

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker/client threads every workload uses: `min(nproc, 4)`.  Passed to
/// `FdbServer::new` explicitly; `FDB_THREADS` is ignored.
pub fn bench_threads() -> usize {
    nproc().min(4)
}

/// The cpu model string from `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A `kB` field of `/proc/self/status` in MB (0 when unreadable, e.g. off
/// Linux).
fn status_mb(field: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// The repository root: the parent of this crate's directory when the
/// benchmark runs from a checkout (`benchmark/` under the current
/// directory), else the build-time location.
pub fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if cwd.join("benchmark").join("Cargo.toml").is_file() {
        return cwd;
    }
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or(cwd, Path::to_path_buf)
}

/// Where result and span files go (`benchmark/out/`, git-ignored).
pub fn out_dir() -> PathBuf {
    repo_root().join("benchmark").join("out")
}

/// The checked-out git revision, read from `.git` without spawning a
/// process; `"unknown"` outside a git checkout (the acceptance driver's
/// copy is not one).
pub fn git_revision() -> String {
    let git = repo_root().join(".git");
    let head = match fs::read_to_string(git.join("HEAD")) {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head; // detached HEAD holds the hash itself
    };
    if let Ok(hash) = fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Repository-size counters over `crates/*/src`, excluding
/// `crates/fdb-bench` and `#[cfg(test)]` modules.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepoCounters {
    /// Non-blank, non-comment lines.
    pub loc: u64,
    /// `pub fn|struct|enum|trait|const|type` items.
    pub pub_items: u64,
}

/// Counts one source text.  A `#[cfg(test)]` attribute followed by a `mod`
/// block ends the counted part of the file: by this repository's
/// convention the unit-test module is the last item of its file.
pub fn count_source(text: &str) -> RepoCounters {
    let mut counters = RepoCounters::default();
    let mut lines = text.lines().map(str::trim).peekable();
    while let Some(line) = lines.next() {
        if line == "#[cfg(test)]" && lines.peek().is_some_and(|next| next.starts_with("mod ")) {
            break;
        }
        if line.is_empty() || line.starts_with("//") {
            continue;
        }
        counters.loc += 1;
        // `pub const fn` counts once, under `const `.
        const ITEMS: [&str; 7] = [
            "fn ",
            "struct ",
            "enum ",
            "trait ",
            "const ",
            "type ",
            "unsafe fn ",
        ];
        if let Some(rest) = line.strip_prefix("pub ") {
            if ITEMS.iter().any(|kw| rest.starts_with(kw)) {
                counters.pub_items += 1;
            }
        }
    }
    counters
}

fn count_dir(dir: &Path, counters: &mut RepoCounters) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            count_dir(&path, counters);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            if let Ok(text) = fs::read_to_string(&path) {
                let file = count_source(&text);
                counters.loc += file.loc;
                counters.pub_items += file.pub_items;
            }
        }
    }
}

/// The counters of the engine crates under `root/crates`.
pub fn repo_counters(root: &Path) -> RepoCounters {
    let mut counters = RepoCounters::default();
    let Ok(entries) = fs::read_dir(root.join("crates")) else {
        return counters;
    };
    for entry in entries.filter_map(Result::ok) {
        if entry.file_name() != "fdb-bench" {
            count_dir(&entry.path().join("src"), &mut counters);
        }
    }
    counters
}

/// The host and source description every result file carries.
pub fn describe() -> Json {
    let counters = repo_counters(&repo_root());
    Json::obj([
        ("cpu_model", Json::str(cpu_model())),
        ("nproc", Json::num(nproc() as f64)),
        ("threads", Json::num(bench_threads() as f64)),
        // The benchmark builds the engine with cargo's default features:
        // `simd` and `fault-injection` are off.
        ("features", Json::str("default")),
        ("git_revision", Json::str(git_revision())),
        ("repo.loc", Json::num(counters.loc as f64)),
        ("repo.pub_items", Json::num(counters.pub_items as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_code_and_public_items_outside_test_modules() {
        let text = "\
//! docs
use std::fmt;

/// A thing.
pub struct Thing;
pub(crate) fn hidden() {}
pub fn shown() {
    // comment
    let x = 1;
}
pub const LIMIT: usize = 3;
pub const fn fixed() -> usize { 3 }
pub use other::Name;
    pub trait Indented {}

#[cfg(test)]
mod tests {
    pub fn not_counted() {}
}
";
        let counters = count_source(text);
        assert_eq!(counters.pub_items, 5, "struct, fn, const, const fn, trait");
        assert_eq!(counters.loc, 10);
    }

    #[test]
    fn this_repository_has_engine_code_to_count() {
        let counters = repo_counters(&repo_root());
        assert!(
            counters.loc > 10_000 && counters.pub_items > 100,
            "{counters:?}"
        );
    }
}
