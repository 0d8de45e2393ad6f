//! The benchmark's metric table and its output.
//!
//! Every run prints one `metric` line per value (name, value, unit,
//! better-direction, optional note), which `fhbench compare` reads back,
//! and ends with one JSON object: the gated end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics every workload prints; `BENCHMARK.json` gates on
/// exactly these (a test keeps the two in step). Time and memory bounds
/// are 0.25, the largest allowed, because on a shared 2-core host the
/// same job list's wall time moves by 5–25% (quartile spread over ten
/// runs) with the host's load; see the README.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", Lower, 0.25),
    def("job_p50_s", "s", Lower, 0.25),
    def("gates_per_s", "gates/s", Higher, 0.25),
    def("gates_ratio", "ratio", Lower, 0.02),
    def("depth_ratio", "ratio", Lower, 0.02),
    def("peak_rss_mb", "MB", Lower, 0.25),
];

/// End-to-end metrics that exist on one workload only (or are 0 on
/// correct code), so they cannot sit in the gated set that every run
/// must print. They are printed and compared with these bounds.
pub const CLASS: &[Def] = &[
    def("hit_p50_s", "s", Lower, 0.25),
    def("miss_p50_s", "s", Lower, 0.25),
    def("hit_tail_s", "s", Lower, 0.25),
    def("proved_frac", "ratio", Higher, 0.02),
    def("fail_frac", "ratio", Lower, 0.0),
];

/// Per-layer metrics every traced run prints (0 where a workload does
/// not reach the layer). Times are means per call of the layer, counts
/// are means per job unless the name says otherwise.
pub const PER_LAYER: &[Def] = &[
    // io
    def("io.read_s", "s", Lower, 0.0),
    def("io.write_s", "s", Lower, 0.0),
    def("io.blif_encode_s", "s", Lower, 0.0),
    // migd + obs::json
    def("migd.request_encode_s", "s", Lower, 0.0),
    def("migd.request_decode_s", "s", Lower, 0.0),
    def("migd.result_decode_s", "s", Lower, 0.0),
    def("migd.request_bytes", "B", Lower, 0.0),
    def("migd.result_bytes", "B", Lower, 0.0),
    def("migd.outside_job_s", "s", Lower, 0.0),
    // cli::service + fcache
    def("service.run_job_hit_s", "s", Lower, 0.0),
    def("service.run_job_miss_s", "s", Lower, 0.0),
    def("service.flush_s", "s", Lower, 0.0),
    def("fcache.file_bytes", "B", Lower, 0.0),
    def("cache.result_hit_rate", "ratio", Higher, 0.0),
    def("cache.sig_hit_rate", "ratio", Higher, 0.0),
    def("cache.rejected", "count", Lower, 0.0),
    // cli pipeline
    def("pass.strash_s", "s", Lower, 0.0),
    def("pass.algebraic_s", "s", Lower, 0.0),
    def("pass.fhash_tfd_s", "s", Lower, 0.0),
    def("pass.fhash_b_s", "s", Lower, 0.0),
    def("pass.cec_s", "s", Lower, 0.0),
    // cuts
    def("cuts.refresh_s", "s", Lower, 0.0),
    def("cuts.refreshes", "count", Lower, 0.0),
    def("cuts.arena_mb", "MB", Lower, 0.0),
    def("cuts.enumerate_s", "s", Lower, 0.0),
    // truth + npndb + core
    def("npn.canonizations", "count", Lower, 0.0),
    def("npn.canonize_s", "s", Lower, 0.0),
    def("npn.pipeline_canonizations", "count", Lower, 0.0),
    def("fhash.cuts_scored", "count", Lower, 0.0),
    def("fhash.replacements", "count", Higher, 0.0),
    def("fhash.converge_rounds", "count", Lower, 0.0),
    def("fhash.useful_ratio", "ratio", Higher, 0.0),
    // mig shard/wave: self time of the program's own spans
    def("self.propose_s", "s", Lower, 0.0),
    def("self.commit_s", "s", Lower, 0.0),
    def("self.commit_sim_s", "s", Lower, 0.0),
    def("self.commit_reconcile_s", "s", Lower, 0.0),
    def("self.commit_finalize_s", "s", Lower, 0.0),
    def("self.replace_node_s", "s", Lower, 0.0),
    def("self.sched_partition_s", "s", Lower, 0.0),
    def("sched.commit_waves", "count", Lower, 0.0),
    def("sched.proposed_regions", "count", Lower, 0.0),
    def("shard.conflicted_proposals", "count", Lower, 0.0),
    def("sched.wave_fallbacks", "count", Lower, 0.0),
    def("mig.bytes_per_node", "B", Lower, 0.0),
    def("mig.dead_slot_pct", "%", Lower, 0.0),
    def("job.cpu_per_wall", "ratio", Higher, 0.0),
    // algebraic
    def("alg.merges", "count", Higher, 0.0),
    // cec + sat
    def("cec.sat_s", "s", Lower, 0.0),
    def("cec.sat_calls", "count", Lower, 0.0),
    def("cec.sim_checks", "count", Lower, 0.0),
    def("cec.proved", "count", Higher, 0.0),
    def("cec.unknown", "count", Lower, 0.0),
    // obs
    def("trace.overhead_ratio", "ratio", Lower, 0.0),
];

/// Looks a metric up in every table.
pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END
        .iter()
        .chain(CLASS)
        .chain(PER_LAYER)
        .find(|d| d.name == name)
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub values: BTreeMap<&'static str, f64>,
    pub notes: BTreeMap<&'static str, String>,
    /// Free-form report lines (per-job rows, shares with their base).
    pub lines: Vec<String>,
    /// The traced pass's spans as JSON lines, written out at the end.
    pub spans: Option<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(find(name).is_some(), "undeclared metric {name}");
        self.values.insert(name, value);
    }

    pub fn note(&mut self, name: &'static str, note: String) {
        self.notes.insert(name, note);
    }

    /// Prints the free report lines.
    pub fn print_lines(&self) {
        for l in &self.lines {
            println!("{l}");
        }
    }

    /// Prints the report: free lines, one `metric` line per value, and
    /// the final JSON object over `gated`.
    pub fn print(&self, workload: &str, gated: &[Def]) {
        self.print_lines();
        for d in END_TO_END.iter().chain(CLASS).chain(PER_LAYER) {
            if let Some(v) = self.values.get(d.name) {
                let note = self.notes.get(d.name).map_or("", String::as_str);
                println!(
                    "metric {workload} {} {v} {} {} {note}",
                    d.name,
                    d.unit,
                    d.better.as_str()
                );
            }
        }
        let metrics: Vec<String> = gated
            .iter()
            .map(|d| {
                let v = self.values.get(d.name).copied().unwrap_or(0.0);
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    d.name,
                    json_num(v),
                    d.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip form
/// gives; non-finite values (never expected) print as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1000.0
}

fn proc_status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// User + system CPU seconds this process has used, all threads.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (100 Hz).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::Value;

    /// `BENCHMARK.json` and this table must agree on the gated metrics.
    #[test]
    fn benchmark_json_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let v = obs::json::parse(&text).expect("valid JSON");
        let list = |k: &str| v.get(k).and_then(Value::as_arr).expect("array").to_vec();
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, d) in e2e.iter().zip(END_TO_END) {
            assert_eq!(j.get("name").and_then(Value::as_str), Some(d.name));
            assert_eq!(j.get("unit").and_then(Value::as_str), Some(d.unit));
            assert_eq!(
                j.get("better").and_then(Value::as_str),
                Some(d.better.as_str())
            );
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(d.bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, d) in layers.iter().zip(PER_LAYER) {
            assert_eq!(j.get("name").and_then(Value::as_str), Some(d.name));
            assert_eq!(j.get("unit").and_then(Value::as_str), Some(d.unit));
            assert_eq!(
                j.get("better").and_then(Value::as_str),
                Some(d.better.as_str())
            );
        }
        let workloads = list("workloads");
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        let all: Vec<&str> = crate::plan::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, all);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(CLASS)
            .chain(PER_LAYER)
            .map(|d| d.name)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
