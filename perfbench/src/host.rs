//! The host header printed with every result: machine shape, the
//! resolved evaluation-pool width, every `MOLOC_*` variable that is
//! set, and which code ran.

use std::path::Path;

use crate::util::Fnv;

pub struct Host {
    available_parallelism: usize,
    cpu_model: Option<String>,
    pool_width: usize,
    moloc_env: Vec<(String, String)>,
    commit: Option<String>,
    source_fnv: u64,
}

impl Host {
    /// Probes the host. Refuses (with the reason) a malformed `MOLOC_*`
    /// setting or an evaluation pool wider than the machine.
    pub fn probe() -> Result<Host, String> {
        moloc_eval::parallel::validate_env().map_err(|e| e.to_string())?;
        let available_parallelism = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let pool_width = moloc_eval::parallel::thread_count();
        if pool_width > available_parallelism {
            return Err(format!(
                "evaluation pool width {pool_width} exceeds available_parallelism {available_parallelism}"
            ));
        }
        let mut moloc_env: Vec<(String, String)> = std::env::vars_os()
            .filter_map(|(k, v)| Some((k.into_string().ok()?, v.to_string_lossy().into_owned())))
            .filter(|(k, _)| k.starts_with("MOLOC_"))
            .collect();
        moloc_env.sort();
        Ok(Host {
            available_parallelism,
            cpu_model: cpu_model(),
            pool_width,
            moloc_env,
            commit: git_commit(),
            source_fnv: source_digest(),
        })
    }

    pub fn to_json(&self) -> String {
        let env: Vec<String> = self
            .moloc_env
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v)))
            .collect();
        format!(
            "{{\"available_parallelism\":{},\"cpu_model\":{},\"pool_width\":{},\"moloc_env\":{{{}}},\"commit\":{},\"source_fnv\":\"{:016x}\"}}",
            self.available_parallelism,
            quoted(self.cpu_model.as_deref()),
            self.pool_width,
            env.join(","),
            quoted(self.commit.as_deref()),
            self.source_fnv
        )
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

fn quoted(s: Option<&str>) -> String {
    s.map_or_else(|| "null".into(), |s| format!("\"{}\"", escape(s)))
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// The checked-out commit when the benchmark runs inside a git work
/// tree (read from `.git` directly; no subprocess).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// FNV-1a over the workspace sources and this benchmark's sources, in
/// path order: identifies the code that ran when no git metadata is
/// present (the benchmark may run from a plain export of the tree).
fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "perfbench/src",
        "perfbench/Cargo.toml",
    ] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = Fnv::default();
    for path in files {
        if let Ok(bytes) = std::fs::read(&path) {
            h.eat_bytes(path.to_string_lossy().as_bytes());
            h.eat_bytes(&bytes);
        }
    }
    h.finish()
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            collect(&entry.path(), out);
        }
    }
}
