//! `BENCH.json` records and the git revision they are stamped with:
//! the `bench` harness and `focal-loadgen` write the same record
//! schema, and `focal-serve` stamps the same revision into response
//! provenance.

use crate::json_escape;
use std::fmt::Write as _;

/// One timed kernel, as it appears in `BENCH.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Kernel name, e.g. `defect_sim/uniform/die10mm`.
    pub kernel: String,
    /// Median wall-clock nanoseconds per operation.
    pub ns_per_op: f64,
    /// Iterations per timed trial.
    pub iters: u64,
    /// Worker threads the process ran with (`FOCAL_THREADS`).
    pub threads: usize,
    /// Git revision the measurement was taken at (`unknown` outside a
    /// checkout).
    pub git_rev: String,
}

/// Serializes the records as the `BENCH.json` document: a JSON array of
/// flat records, one per kernel, newest file wins (the perf trajectory
/// lives in CI artifacts, not in-repo history).
#[must_use]
pub fn to_bench_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"kernel\": \"{}\", \"ns_per_op\": {}, \"iters\": {}, \"threads\": {}, \"git_rev\": \"{}\"}}",
            json_escape(&r.kernel),
            r.ns_per_op,
            r.iters,
            r.threads,
            json_escape(&r.git_rev)
        );
        out.push_str(if i + 1 == records.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n");
    out
}

/// `git rev-parse --short HEAD` of the current directory, or
/// `"unknown"` when git or the checkout is unavailable. Stamped into
/// benchmark records and `focal-serve` response provenance.
#[must_use]
pub fn detect_git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_is_schema_shaped() {
        let records = vec![
            BenchRecord {
                kernel: "a/b".into(),
                ns_per_op: 12.5,
                iters: 100,
                threads: 4,
                git_rev: "abc1234".into(),
            },
            BenchRecord {
                kernel: "c".into(),
                ns_per_op: 3.0,
                iters: 1,
                threads: 1,
                git_rev: "unknown".into(),
            },
        ];
        let json = to_bench_json(&records);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains(
            "{\"kernel\": \"a/b\", \"ns_per_op\": 12.5, \"iters\": 100, \
             \"threads\": 4, \"git_rev\": \"abc1234\"}"
        ));
        assert_eq!(json.matches("\"kernel\"").count(), 2);
    }

    #[test]
    fn empty_record_list_serializes_to_empty_array() {
        assert_eq!(to_bench_json(&[]), "[\n]\n");
    }
}
