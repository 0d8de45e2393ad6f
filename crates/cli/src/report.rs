//! The `--json-report` document: per-pass reports plus the whole-run
//! metric totals, hand-rolled against the same grammar `obs::json`
//! parses so reports round-trip without a serde dependency.

use crate::PassReport;
use mig::Mig;
use obs::json::escape;
use std::fmt::Write;

/// Appends a metrics object (`{"name":value,...}`) rendering the
/// nonzero entries of a delta: counters and gauges by registry name,
/// histograms expanded to `.count` / `.sum_ns` (or `.sum`).
fn write_metrics_object(out: &mut String, d: &obs::Delta) {
    out.push('{');
    let mut first = true;
    let mut emit = |out: &mut String, name: &str, value: i64| {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{name}\":{value}");
    };
    for &m in obs::metrics::ALL {
        let def = m.def();
        match def.kind {
            obs::Kind::Counter => {
                let v = d.get(m);
                if v != 0 {
                    emit(out, def.name, v as i64);
                }
            }
            obs::Kind::Gauge => {
                let v = d.geti(m);
                if v != 0 {
                    emit(out, def.name, v);
                }
            }
            obs::Kind::DurationNs => {
                let n = d.hist_count(m);
                if n != 0 {
                    emit(out, &format!("{}.count", def.name), n as i64);
                    emit(
                        out,
                        &format!("{}.sum_ns", def.name),
                        d.hist_sum_ns(m) as i64,
                    );
                }
            }
        }
    }
    out.push('}');
}

/// Renders the per-pass reports, the final circuit shape and the
/// whole-run metric totals as one JSON document. `run_delta` is the
/// process-registry diff over the run; it carries what no single pass
/// scope sees — the end-of-run storage gauges (`mig.bytes_per_node`,
/// `mig.dead_slot_pct`) and the persistent-cache counters (`cache.*`)
/// recorded at load/flush time — as the top-level `"metrics"` object.
pub fn json_report(
    input_path: &str,
    reports: &[PassReport],
    result: &Mig,
    run_delta: &obs::Delta,
) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"input\":\"{}\",\"passes\":[", escape(input_path));
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"pass\":\"{}\",\"size_before\":{},\"size_after\":{},\
             \"depth_before\":{},\"depth_after\":{},\"runtime_ns\":{},\
             \"note\":\"{}\",\"metrics\":",
            escape(&r.pass),
            r.size_before,
            r.size_after,
            r.depth_before,
            r.depth_after,
            (r.runtime * 1e9) as u64,
            escape(&r.note),
        );
        write_metrics_object(&mut out, &r.metrics);
        out.push('}');
    }
    let _ = write!(
        out,
        "],\"size\":{},\"depth\":{},\"metrics\":",
        result.num_gates(),
        result.depth()
    );
    write_metrics_object(&mut out, run_delta);
    out.push('}');
    out.push('\n');
    out
}
