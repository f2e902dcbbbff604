//! Experiment output container, and the BENCH row writer every
//! benchmark example shares.

use serde::Serialize;
use serde_json::Value;

/// One experiment's rendered output plus a JSON artifact.
#[derive(Clone, Debug, Serialize)]
pub struct ExperimentReport {
    /// Stable id, e.g. "table4" or "fig2".
    pub id: String,
    pub title: String,
    /// Human-readable rendering (tables/plots).
    pub text: String,
    /// Machine-readable results.
    pub json: serde_json::Value,
}

impl ExperimentReport {
    pub fn new(id: &str, title: &str, text: String, json: serde_json::Value) -> Self {
        ExperimentReport { id: id.to_string(), title: title.to_string(), text, json }
    }

    /// Full printable block.
    pub fn printable(&self) -> String {
        format!("==== {} — {} ====\n{}\n", self.id.to_uppercase(), self.title, self.text)
    }
}

/// Append `rows` to the JSON array in the BENCH file at `path` (a
/// missing or unparsable file starts a new array) and rewrite the file
/// pretty-printed. Every object row is stamped with its provenance:
/// `commit` (`git rev-parse --short HEAD` run beside the file, or
/// `"unknown"` without git), `cores` (the host's available parallelism)
/// and `profile` (`release` or `debug`). A BENCH row is a record, not a
/// gate: a file that holds something other than an array is left
/// alone, and a failed write is reported, never fatal.
pub fn append_bench_rows(path: &str, rows: Vec<Value>) {
    let existing = std::fs::read_to_string(path).ok().and_then(|s| serde_json::from_str(&s).ok());
    let Value::Array(mut runs) = existing.unwrap_or(Value::Array(Vec::new())) else {
        eprintln!("[bench] {path} does not hold a JSON array; {} row(s) not written", rows.len());
        return;
    };
    let n = rows.len();
    let commit = head_commit(std::path::Path::new(path));
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get()) as u64;
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    runs.extend(rows.into_iter().map(|mut row| {
        if let Some(fields) = row.as_object_mut() {
            fields.insert("commit".into(), Value::from(commit.as_str()));
            fields.insert("cores".into(), Value::from(cores));
            fields.insert("profile".into(), Value::from(profile));
        }
        row
    }));
    let written = serde_json::to_string_pretty(&Value::Array(runs))
        .map_err(|e| e.to_string())
        .and_then(|body| std::fs::write(path, body).map_err(|e| e.to_string()));
    match written {
        Ok(()) => eprintln!("[bench] appended {n} row(s) to {path}"),
        Err(e) => eprintln!("[bench] could not write {path}: {e}"),
    }
}

/// The short hash of the commit checked out around `file`, or
/// `"unknown"` when git or a repository is absent.
fn head_commit(file: &std::path::Path) -> String {
    let dir = file.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(".".as_ref());
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(dir)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|hash| hash.trim().to_string())
        .filter(|hash| !hash.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_rows_append_to_an_array_and_leave_other_files_alone() {
        let dir = std::env::temp_dir().join(format!("hsp-bench-rows-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let path = path.to_str().unwrap();
        append_bench_rows(path, vec![serde_json::json!({ "bench": "a", "n": 1 })]);
        append_bench_rows(path, vec![serde_json::json!({ "bench": "b" }), serde_json::json!({})]);
        let runs: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let runs = runs.as_array().unwrap();
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].get("bench").and_then(|b| b.as_str()), Some("a"));
        // Every row carries its provenance. The temp dir is outside any
        // repository, so the commit reads "unknown" there.
        for row in runs {
            let commit = row.get("commit").and_then(|c| c.as_str()).unwrap();
            assert!(!commit.is_empty());
            assert!(row.get("cores").and_then(|c| c.as_u64()).unwrap() >= 1);
            let profile = row.get("profile").and_then(|p| p.as_str());
            assert_eq!(profile, Some(if cfg!(debug_assertions) { "debug" } else { "release" }));
        }
        // Inside a repository the commit is the checked-out short hash.
        let here = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
        let commit = head_commit(std::path::Path::new(here));
        assert!(commit == "unknown" || commit.chars().all(|c| c.is_ascii_hexdigit()), "{commit}");
        std::fs::write(path, "{\"not\": \"an array\"}").unwrap();
        append_bench_rows(path, vec![serde_json::json!({})]);
        assert_eq!(std::fs::read_to_string(path).unwrap(), "{\"not\": \"an array\"}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
