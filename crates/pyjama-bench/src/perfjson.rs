//! Hand-rolled JSON emission for machine-readable bench artifacts.
//!
//! The bench harnesses write human tables (`bench_results/*.txt`) and raw
//! CSVs (`bench_results/*.csv`); dashboards and regression bots want one
//! small JSON document with just the headline numbers. This module builds
//! that document without a serde dependency: the values are flat
//! (strings/numbers/nested objects), so a tiny escaping writer is enough.
//!
//! [`fold_headlines`] re-reads the *existing* CSV artifacts and extracts
//! one headline metric per experiment, so the emitted document summarises
//! the whole `bench_results/` directory, not only the bench that wrote it.
//! Missing CSVs are skipped — the folder is grown incrementally and a
//! partial checkout must not fail the writing bench.

use std::fmt::Write as _;
use std::path::Path;

/// A JSON object under construction. Keys are emitted in insertion order.
#[derive(Default)]
pub struct JsonObj {
    body: String,
}

impl JsonObj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn sep(&mut self) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
    }

    /// Adds a string field (escaped).
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.sep();
        let _ = write!(self.body, "{}:{}", quote(key), quote(value));
        self
    }

    /// Adds a numeric field. Non-finite values are emitted as `null`
    /// (JSON has no NaN/Infinity).
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.sep();
        if value.is_finite() {
            // Trim to a stable short form: integers stay integral.
            if value == value.trunc() && value.abs() < 1e15 {
                let _ = write!(self.body, "{}:{}", quote(key), value as i64);
            } else {
                let _ = write!(self.body, "{}:{:.4}", quote(key), value);
            }
        } else {
            let _ = write!(self.body, "{}:null", quote(key));
        }
        self
    }

    /// Adds an unsigned integer field.
    pub fn uint(&mut self, key: &str, value: u64) -> &mut Self {
        self.sep();
        let _ = write!(self.body, "{}:{}", quote(key), value);
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.sep();
        let _ = write!(self.body, "{}:{}", quote(key), value);
        self
    }

    /// Adds a nested object field.
    pub fn obj(&mut self, key: &str, value: JsonObj) -> &mut Self {
        self.sep();
        let _ = write!(self.body, "{}:{}", quote(key), value.finish());
        self
    }

    /// Renders the object.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// Quotes and escapes a JSON string.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The CPUs the bench process could use: `available_parallelism` and the
/// affinity list (`Cpus_allowed_list` of `/proc/self/status`, `"unknown"`
/// where that file is absent). A ratio measured on 2 CPUs and one measured
/// on 64 are different results, so a bench document carries this.
pub fn env() -> JsonObj {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let mut out = JsonObj::new();
    out.uint(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
    )
    .str(
        "cpu_affinity",
        cpus_allowed_list(&status).unwrap_or("unknown"),
    );
    out
}

/// The `Cpus_allowed_list` value of a `/proc/<pid>/status` text.
fn cpus_allowed_list(status: &str) -> Option<&str> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(str::trim)
}

/// Reads one CSV and returns `(header, rows)` split on commas. Returns
/// `None` when the file is missing or empty.
fn read_csv(path: &Path) -> Option<(Vec<String>, Vec<Vec<String>>)> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut lines = text.lines();
    let header: Vec<String> = lines.next()?.split(',').map(str::to_string).collect();
    let rows = lines
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.split(',').map(str::to_string).collect())
        .collect();
    Some((header, rows))
}

/// Column value of `row` under `name`, parsed as f64.
fn col(header: &[String], row: &[String], name: &str) -> Option<f64> {
    let i = header.iter().position(|h| h == name)?;
    row.get(i)?.parse().ok()
}

/// Folds the headline number of every known CSV artifact in `dir` into one
/// JSON object. Each experiment contributes the single figure its gate is
/// written against; absent files contribute nothing.
pub fn fold_headlines(dir: &Path) -> JsonObj {
    let mut out = JsonObj::new();

    // pj_vm.csv: the VM-vs-interpreter gate is a minimum speedup across the
    // `>=10`-gated kernels.
    if let Some((h, rows)) = read_csv(&dir.join("pj_vm.csv")) {
        let min = rows
            .iter()
            .filter(|r| r.last().is_some_and(|g| g.starts_with(">=")))
            .filter_map(|r| col(&h, r, "speedup"))
            .fold(f64::INFINITY, f64::min);
        if min.is_finite() {
            out.num("pj_vm_min_speedup", min);
        }
    }

    // c10k.csv: sustained request throughput of the reactor experiment.
    if let Some((h, rows)) = read_csv(&dir.join("c10k.csv")) {
        if let Some(v) = rows.first().and_then(|r| col(&h, r, "throughput_rps")) {
            out.num("c10k_throughput_rps", v);
        }
    }

    // overload_shed.csv: gate,metric,value triplets — the hot-read cost.
    if let Some((_, rows)) = read_csv(&dir.join("overload_shed.csv")) {
        for r in &rows {
            if r.len() == 3 && r[0] == "read" && r[1] == "ns_per_op" {
                if let Ok(v) = r[2].parse() {
                    out.num("config_read_ns_per_op", v);
                }
            }
        }
    }

    // fig9_http_throughput.csv: best pyjama-variant request rate.
    if let Some((h, rows)) = read_csv(&dir.join("fig9_http_throughput.csv")) {
        let best = rows
            .iter()
            .filter(|r| r.first().is_some_and(|v| v == "pyjama"))
            .filter_map(|r| col(&h, r, "throughput_rps"))
            .fold(f64::NEG_INFINITY, f64::max);
        if best.is_finite() {
            out.num("http_pyjama_peak_rps", best);
        }
    }

    // post_hotpath.csv: the recycled-vs-fresh posting speedup at the gate
    // worker count (written by the same bench that calls this fold).
    if let Some((h, rows)) = read_csv(&dir.join("post_hotpath.csv")) {
        let gate = rows
            .iter()
            .filter(|r| r.first().is_some_and(|v| v == "recycled"))
            .filter_map(|r| col(&h, r, "speedup"))
            .fold(f64::NEG_INFINITY, f64::max);
        if gate.is_finite() {
            out.num("post_hotpath_speedup", gate);
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_flat_and_nested_objects() {
        let mut inner = JsonObj::new();
        inner.uint("n", 3).bool("ok", true);
        let mut o = JsonObj::new();
        o.str("name", "post_hotpath").num("x", 1.5).obj("inner", inner);
        assert_eq!(
            o.finish(),
            r#"{"name":"post_hotpath","x":1.5000,"inner":{"n":3,"ok":true}}"#
        );
    }

    #[test]
    fn integral_floats_stay_integral_and_nonfinite_is_null() {
        let mut o = JsonObj::new();
        o.num("i", 4.0).num("bad", f64::NAN);
        assert_eq!(o.finish(), r#"{"i":4,"bad":null}"#);
    }

    #[test]
    fn escapes_control_characters() {
        let mut o = JsonObj::new();
        o.str("k", "a\"b\\c\nd");
        assert_eq!(o.finish(), "{\"k\":\"a\\\"b\\\\c\\nd\"}");
    }

    #[test]
    fn env_records_cpu_count_and_affinity() {
        let status = "Name:\tbench\nCpus_allowed:\t3\nCpus_allowed_list:\t0-1\n";
        assert_eq!(cpus_allowed_list(status), Some("0-1"));
        assert_eq!(cpus_allowed_list("Name:\tbench\n"), None);
        let json = env().finish();
        let cpus = std::thread::available_parallelism().unwrap().get();
        assert!(
            json.starts_with(&format!("{{\"available_parallelism\":{cpus},")),
            "{json}"
        );
        assert!(json.contains("\"cpu_affinity\":\""), "{json}");
    }

    #[test]
    fn folds_known_csvs_and_skips_missing() {
        let dir = std::env::temp_dir().join("pj_perfjson_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("pj_vm.csv"),
            "kernel,vm_ms,interp_ms,speedup,gate\nfib,1.0,15.0,15.0,>=10\nslow,2.0,2.2,1.1,<=1.5x-slowdown\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("post_hotpath.csv"),
            "arm,workers,posts,ns_per_post,allocs_per_post,speedup\nrecycled,4,1000,800,0.00,1.45\nfresh,4,1000,1160,4.10,1.00\n",
        )
        .unwrap();
        let _ = std::fs::remove_file(dir.join("c10k.csv"));
        let json = fold_headlines(&dir).finish();
        assert!(json.contains("\"pj_vm_min_speedup\":15"), "{json}");
        assert!(json.contains("\"post_hotpath_speedup\":1.45"), "{json}");
        assert!(!json.contains("c10k"), "{json}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
