//! `fhbench compare A.log B.log`: compares two sets of runs.
//!
//! Each file is the concatenated standard output of any number of runs
//! (any workloads). For every workload × end-to-end metric it prints
//! each set's median and quartiles and a verdict under the metric's
//! bound: `agree`, `better` or `worse` by more than the bound, or
//! `unresolved` when either set's quartile spread is wider than the
//! bound, so that no difference within the noise reads as a result.

use crate::metrics::{self, Better, Def};
use crate::stats;
use std::collections::BTreeMap;

type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Collects `metric <workload> <name> <value> ...` lines.
pub fn parse_runs(text: &str) -> Samples {
    let mut out = Samples::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if let ["metric", workload, name, value, ..] = f.as_slice() {
            if let Ok(v) = value.parse::<f64>() {
                out.entry((workload.to_string(), name.to_string()))
                    .or_default()
                    .push(v);
            }
        }
    }
    out
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Agree,
    Better,
    Worse,
    Unresolved,
}

/// Relative quartile spread; 0 for fewer than two samples.
fn spread(v: &[f64]) -> f64 {
    let m = stats::median(v).unwrap_or(0.0);
    match stats::quartiles(v) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        Some((q1, q3)) if q3 != q1 => f64::INFINITY,
        _ => 0.0,
    }
}

pub fn verdict(def: &Def, a: &[f64], b: &[f64]) -> Verdict {
    if spread(a) > def.bound || spread(b) > def.bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (
        stats::median(a).unwrap_or(0.0),
        stats::median(b).unwrap_or(0.0),
    );
    let worse_by = match def.better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    let limit = def.bound * ma.abs();
    if worse_by > limit {
        Verdict::Worse
    } else if -worse_by > limit {
        Verdict::Better
    } else {
        Verdict::Agree
    }
}

fn describe(v: &[f64]) -> String {
    let m = stats::median(v).unwrap_or(0.0);
    match stats::quartiles(v) {
        Some((q1, q3)) => format!("{m:.6} [{q1:.6}, {q3:.6}] n={}", v.len()),
        None => format!("{m:.6} n={}", v.len()),
    }
}

pub fn main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: fhbench compare <runs-A.log> <runs-B.log>");
        return 2;
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (a, b) = match (read(a), read(b)) {
        (Ok(a), Ok(b)) => (parse_runs(&a), parse_runs(&b)),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("fhbench compare: {e}");
            return 2;
        }
    };
    println!("workload metric unit bound | A median [q1, q3] | B median [q1, q3] | verdict");
    let mut worse = 0;
    for ((workload, name), va) in &a {
        let Some(def) = metrics::find(name) else {
            continue;
        };
        let gated = metrics::END_TO_END
            .iter()
            .chain(metrics::CLASS)
            .any(|d| d.name == def.name);
        let Some(vb) = b.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        if !gated {
            continue;
        }
        let v = verdict(def, va, vb);
        worse += usize::from(v == Verdict::Worse);
        println!(
            "{workload} {name} {} {} | {} | {} | {v:?}",
            def.unit,
            def.bound,
            describe(va),
            describe(vb)
        );
    }
    i32::from(worse > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_metric_lines_only() {
        let text = "job 0 x\nmetric arith_opt job_p50_s 1.5 s lower\nmetric arith_opt job_p50_s 1.7 s lower\n{\"correct\":true}\n";
        let s = parse_runs(text);
        assert_eq!(s[&("arith_opt".into(), "job_p50_s".into())], vec![1.5, 1.7]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn verdicts_follow_bounds_and_direction() {
        let job = metrics::find("job_p50_s").unwrap(); // lower, bound 0.25
        let a = [1.0, 1.01, 0.99, 1.0];
        assert_eq!(verdict(job, &a, &[1.15, 1.14, 1.16, 1.15]), Verdict::Agree);
        assert_eq!(verdict(job, &a, &[1.3, 1.31, 1.29, 1.3]), Verdict::Worse);
        assert_eq!(verdict(job, &a, &[0.7, 0.71, 0.69, 0.7]), Verdict::Better);
        assert_eq!(verdict(job, &a, &[0.5, 1.5, 0.7, 1.3]), Verdict::Unresolved);
        let rate = metrics::find("gates_per_s").unwrap(); // higher
        assert_eq!(
            verdict(rate, &[100.0, 100.0], &[70.0, 70.0]),
            Verdict::Worse
        );
        let fail = metrics::find("fail_frac").unwrap(); // bound 0
        assert_eq!(verdict(fail, &[0.0, 0.0], &[0.0, 0.0]), Verdict::Agree);
        assert_eq!(verdict(fail, &[0.0, 0.0], &[0.1, 0.1]), Verdict::Worse);
    }
}
