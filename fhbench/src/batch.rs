//! `arith_opt` and `ctrl_verify`: one closed-loop caller that runs each
//! job (read the input file, run the pipeline, write BLIF) and waits for
//! it before starting the next.

use crate::check;
use crate::layers::{self, Traced};
use crate::metrics::{self, Outcome};
use crate::plan::{self, Plan, SETUP_SAMPLES};
use crate::spans::Recorder;
use crate::stats;
use mig::Mig;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Generated inputs, written to the run directory.
pub struct Inputs {
    pub migs: Vec<Mig>,
    pub paths: Vec<PathBuf>,
}

/// Set-up: generate every input (`benchgen` + AIG round trip) and write
/// it as BLIF.
pub fn setup(plan: &Plan, dir: &Path) -> Result<Inputs, String> {
    let mut inputs = Inputs {
        migs: Vec::new(),
        paths: Vec::new(),
    };
    for (k, spec) in plan.inputs.iter().enumerate() {
        let m = plan::generate(spec);
        let path = dir.join(format!("in{k}.blif"));
        io::write_mig_path(&path, &m).map_err(|e| format!("{}: {e}", path.display()))?;
        inputs.migs.push(m);
        inputs.paths.push(path);
    }
    Ok(inputs)
}

/// One `setup_s` sample: `plan.setups_per_sample` set-ups in a row,
/// timed together. Returns the last one's inputs and the mean time per
/// set-up.
fn setup_sample(plan: &Plan, dir: &Path) -> Result<(Inputs, f64), String> {
    let t = Instant::now();
    let mut inputs = setup(plan, dir)?;
    for _ in 1..plan.setups_per_sample {
        inputs = setup(plan, dir)?;
    }
    let per_setup = t.elapsed().as_secs_f64() / plan.setups_per_sample as f64;
    Ok((inputs, per_setup))
}

impl Inputs {
    /// Structural digests of the generated circuits.
    pub fn digests(&self) -> Vec<u64> {
        self.migs.iter().map(check::digest).collect()
    }
}

/// What one job measured.
pub struct JobRec {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub in_gates: usize,
    pub in_depth: u32,
    pub out_gates: usize,
    pub out_depth: u32,
    /// `cec` verdict: `Some(true)` proved, `Some(false)` UNKNOWN.
    pub proved: Option<bool>,
    /// Peak resident set (`VmHWM`) of the process that ran the job
    /// (timed pass).
    pub rss_mb: f64,
    pub reports: Vec<cli::PassReport>,
    pub error: Option<String>,
}

/// One job as run: read the input file, run the pipeline, write BLIF,
/// timed from read to write.
struct Executed {
    wall_s: f64,
    cpu_s: f64,
    input: Mig,
    output: Mig,
    reports: Vec<cli::PassReport>,
}

fn execute(
    in_path: &Path,
    out_path: &Path,
    passes: &[cli::Pass],
    threads: usize,
    rec: &mut Recorder,
) -> Result<Executed, String> {
    let cpu0 = metrics::cpu_seconds();
    let t0 = Instant::now();
    let (input, output, reports) = rec.span("job", |r| -> Result<_, String> {
        let input = r
            .span("io.read", |_| io::read_mig_path(in_path))
            .map_err(|e| e.to_string())?;
        let (output, reports) = r
            .span("pipeline", |_| {
                cli::run_pipeline_jobs(&input, passes, threads)
            })
            .map_err(|e| e.to_string())?;
        r.span("io.write", |_| io::write_mig_path(out_path, &output))
            .map_err(|e| e.to_string())?;
        Ok((input, output, reports))
    })?;
    Ok(Executed {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: metrics::cpu_seconds() - cpu0,
        input,
        output,
        reports,
    })
}

impl JobRec {
    fn new(e: &Executed, rss_mb: f64) -> JobRec {
        JobRec {
            wall_s: e.wall_s,
            cpu_s: e.cpu_s,
            in_gates: e.input.num_gates(),
            in_depth: e.input.depth(),
            out_gates: e.output.num_gates(),
            out_depth: e.output.depth(),
            proved: cec_verdict(&e.reports),
            rss_mb,
            reports: Vec::new(),
            error: None,
        }
    }

    fn failed(error: String) -> JobRec {
        JobRec {
            wall_s: 0.0,
            cpu_s: 0.0,
            in_gates: 0,
            in_depth: 0,
            out_gates: 0,
            out_depth: 0,
            proved: None,
            rss_mb: 0.0,
            reports: Vec::new(),
            error: Some(error),
        }
    }

    /// The one-line form a job process prints.
    fn to_line(&self) -> String {
        let verdict = match self.proved {
            Some(true) => "proved",
            Some(false) => "unknown",
            None => "-",
        };
        format!(
            "{} {} {} {} {} {} {} {verdict}",
            self.wall_s,
            self.cpu_s,
            self.in_gates,
            self.in_depth,
            self.out_gates,
            self.out_depth,
            self.rss_mb
        )
    }

    fn from_line(line: &str) -> Option<JobRec> {
        let f: Vec<&str> = line.split_whitespace().collect();
        let [wall, cpu, ig, id, og, od, rss, verdict] = f.as_slice() else {
            return None;
        };
        Some(JobRec {
            wall_s: wall.parse().ok()?,
            cpu_s: cpu.parse().ok()?,
            in_gates: ig.parse().ok()?,
            in_depth: id.parse().ok()?,
            out_gates: og.parse().ok()?,
            out_depth: od.parse().ok()?,
            proved: match *verdict {
                "proved" => Some(true),
                "unknown" => Some(false),
                _ => None,
            },
            rss_mb: rss.parse().ok()?,
            reports: Vec::new(),
            error: None,
        })
    }
}

/// Checks a finished job: its `cec` verdict, when its circuit must
/// prove, and its written output, re-read and compared with its input.
fn check_job(
    plan: &Plan,
    inputs: &Inputs,
    i: usize,
    out_path: &Path,
    proved: Option<bool>,
) -> Result<(), String> {
    let input = plan.jobs[i].input;
    if plan.proves[input] && proved != Some(true) {
        return Err(format!(
            "cec did not prove {}, which proves on every run",
            plan.inputs[input]
        ));
    }
    let back = io::read_mig_path(out_path).map_err(|e| e.to_string())?;
    if check::same_function(&inputs.migs[input], &back, plan.seed ^ i as u64) {
        Ok(())
    } else {
        Err("output differs from input on simulation".to_string())
    }
}

/// `fhbench job <in> <out> <threads> <pipeline>`: runs one job in this
/// fresh process and prints its measurements as one line. Only a fresh
/// process gives a job's own peak RSS: in one long-lived process, the
/// allocator's per-thread arenas keep what earlier `-j 2` jobs freed, and
/// the resident set left before a job grew from 14 MB to 196 MB over one
/// `arith_opt` run, even with `malloc_trim` and a `VmHWM` reset.
pub fn job_main(args: &[String]) -> i32 {
    let [input, output, threads, pipeline] = args else {
        eprintln!("usage: fhbench job <in> <out> <threads> <pipeline>");
        return 2;
    };
    let run = || -> Result<String, String> {
        let threads = threads
            .parse()
            .map_err(|_| format!("bad thread count {threads:?}"))?;
        let passes = cli::parse_pipeline(pipeline).map_err(|e| e.to_string())?;
        let e = execute(
            Path::new(input),
            Path::new(output),
            &passes,
            threads,
            &mut Recorder::new(false),
        )?;
        Ok(JobRec::new(&e, metrics::peak_rss_mb()).to_line())
    };
    match run() {
        Ok(line) => {
            println!("{line}");
            0
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// The timed pass: each job in its own process (`fhbench job`), waited
/// for before the next starts, and checked afterwards. The set-up is
/// sampled again at `SETUP_SAMPLES - 1` evenly spaced points of the job
/// list, outside the jobs' time, so the median of `setup_s` covers the
/// whole run, not one moment of it; every repeat must generate the same
/// inputs.
fn run_timed(
    plan: &Plan,
    inputs: &Inputs,
    dir: &Path,
    setup_s: &mut Vec<f64>,
) -> Result<Vec<JobRec>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let threads = plan.threads.to_string();
    let n = plan.jobs.len();
    let mut out = Vec::with_capacity(n);
    let digests = inputs.digests();
    for (i, job) in plan.jobs.iter().enumerate() {
        for _ in (1..SETUP_SAMPLES).filter(|k| k * n / SETUP_SAMPLES == i) {
            let (again, s) = setup_sample(plan, dir)?;
            if again.digests() != digests {
                return Err("a repeated set-up generated different inputs".into());
            }
            setup_s.push(s);
        }
        let out_path = dir.join(format!("out{i}.blif"));
        let child = std::process::Command::new(&exe)
            .arg("job")
            .arg(&inputs.paths[job.input])
            .arg(&out_path)
            .arg(&threads)
            .arg(plan.pipelines[job.pipeline])
            .output()
            .map_err(|e| format!("job process: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let rec = match JobRec::from_line(stdout.trim()) {
            Some(mut r) if child.status.success() => {
                r.error = check_job(plan, inputs, i, &out_path, r.proved).err();
                r
            }
            _ => JobRec::failed(format!(
                "job process {}: {}",
                child.status,
                String::from_utf8_lossy(&child.stderr).trim()
            )),
        };
        std::fs::remove_file(&out_path).ok();
        out.push(rec);
    }
    Ok(out)
}

/// The traced pass, in this process: the program's trace is on during
/// each job, its events and registry delta are collected, and the probes
/// run after it.
fn run_traced(
    plan: &Plan,
    inputs: &Inputs,
    dir: &Path,
    rec: &mut Recorder,
    traced: &mut Traced,
) -> Result<Vec<JobRec>, String> {
    let passes = cli::parse_pipeline(plan.pipelines[0]).map_err(|e| e.to_string())?;
    let mut out = Vec::with_capacity(plan.jobs.len());
    for (i, job) in plan.jobs.iter().enumerate() {
        let out_path = dir.join(format!("out{i}.blif"));
        rec.set_job(i);
        obs::trace::start();
        let before = obs::metrics::global_snapshot();
        let result = execute(
            &inputs.paths[job.input],
            &out_path,
            &passes,
            plan.threads,
            rec,
        );
        traced
            .deltas
            .push(obs::metrics::global_snapshot().since(&before));
        traced.add_events(&obs::trace::finish(), 1);
        let r = match result {
            Err(e) => JobRec::failed(e),
            Ok(e) => {
                traced.probe(rec, &e.input, &e.output);
                let mut r = JobRec::new(&e, 0.0);
                r.error = check_job(plan, inputs, i, &out_path, r.proved).err();
                r.reports = e.reports;
                r
            }
        };
        std::fs::remove_file(&out_path).ok();
        out.push(r);
    }
    Ok(out)
}

/// Rounds of the catalog the traced pass covers.
const TRACED_ROUNDS: usize = 2;

/// Indices of the jobs of the first [`TRACED_ROUNDS`] rounds' worth of
/// each input, in list order: the same mix as the whole list, in a
/// fraction of its time, so that a traced run stays well inside its
/// time limit.
fn traced_rounds(plan: &Plan) -> Vec<usize> {
    let mut quota = vec![0; plan.inputs.len()];
    for j in &plan.jobs {
        quota[j.input] += 1;
    }
    for q in &mut quota {
        *q = *q * TRACED_ROUNDS.min(plan.rounds) / plan.rounds;
    }
    (0..plan.jobs.len())
        .filter(|&i| {
            let q = &mut quota[plan.jobs[i].input];
            let keep = *q > 0;
            *q -= usize::from(keep);
            keep
        })
        .collect()
}

fn cec_verdict(reports: &[cli::PassReport]) -> Option<bool> {
    let r = reports.iter().find(|r| r.pass.starts_with("cec"))?;
    Some(r.note.starts_with("equivalent"))
}

/// The end-to-end metrics of one pass over the job list (set-up and
/// peak RSS are added by the caller).
pub fn summarize(plan: &Plan, jobs: &[JobRec], o: &mut Outcome) {
    let ok: Vec<&JobRec> = jobs.iter().filter(|j| j.error.is_none()).collect();
    o.attempted = jobs.len();
    o.failed = jobs.len() - ok.len();
    let walls: Vec<f64> = ok.iter().map(|j| j.wall_s).collect();
    o.set("job_p50_s", stats::median(&walls).unwrap_or(0.0));
    let gates: f64 = ok.iter().map(|j| j.in_gates as f64).sum();
    o.set("gates_per_s", gates / walls.iter().sum::<f64>().max(1e-9));
    let ratio = |f: fn(&JobRec) -> (f64, f64)| {
        stats::geomean_ratio(&ok.iter().map(|j| f(j)).collect::<Vec<_>>())
    };
    o.set(
        "gates_ratio",
        ratio(|j| (j.out_gates as f64, j.in_gates as f64)),
    );
    o.set(
        "depth_ratio",
        ratio(|j| (f64::from(j.out_depth), f64::from(j.in_depth))),
    );
    let verdicts: Vec<bool> = ok.iter().filter_map(|j| j.proved).collect();
    if !verdicts.is_empty() {
        let proved = verdicts.iter().filter(|&&p| p).count();
        o.set("proved_frac", proved as f64 / verdicts.len() as f64);
        o.note("proved_frac", format!("{proved}/{} proved", verdicts.len()));
    }
    o.set("fail_frac", o.failed as f64 / o.attempted.max(1) as f64);
    // Per input, the median peak RSS of its job processes; the largest.
    let rss = (0..plan.inputs.len())
        .filter_map(|k| {
            let v: Vec<f64> = plan
                .jobs
                .iter()
                .zip(jobs)
                .filter(|(j, r)| j.input == k && r.error.is_none())
                .map(|(_, r)| r.rss_mb)
                .collect();
            stats::median(&v)
        })
        .fold(0.0, f64::max);
    o.set("peak_rss_mb", rss);
    o.note(
        "peak_rss_mb",
        "largest per-input median over the job processes".into(),
    );
    for (i, (job, r)) in plan.jobs.iter().zip(jobs).enumerate() {
        let status = match (&r.error, r.proved) {
            (Some(e), _) => format!("FAILED: {e}"),
            (None, Some(true)) => "ok, cec proved".into(),
            (None, Some(false)) => "ok, cec unknown".into(),
            (None, None) => "ok".into(),
        };
        o.lines.push(format!(
            "job {i} {} wall {:.4} s cpu {:.2} s rss {:.1} MB gates {} -> {} depth {} -> {} {status}",
            plan.inputs[job.input],
            r.wall_s,
            r.cpu_s,
            r.rss_mb,
            r.in_gates,
            r.out_gates,
            r.in_depth,
            r.out_depth
        ));
    }
}

/// A whole batch run: set-up, the timed pass, and with `trace` a second,
/// traced pass over two rounds for the per-layer metrics.
pub fn run(plan: &Plan, dir: &Path, trace: bool) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let (inputs, first) = setup_sample(plan, dir)?;
    let mut setup_s = vec![first];
    o.lines.push(format!(
        "job_list_hash {:016x}",
        plan.hash(&inputs.digests())
    ));

    let jobs = run_timed(plan, &inputs, dir, &mut setup_s)?;
    o.set("setup_s", stats::median(&setup_s).unwrap_or(0.0));
    o.note(
        "setup_s",
        format!(
            "median of {} samples spread over the run, each the mean of {} set-ups in a row",
            setup_s.len(),
            plan.setups_per_sample
        ),
    );
    summarize(plan, &jobs, &mut o);
    let wall: f64 = jobs.iter().map(|j| j.wall_s).sum();
    let cpu: f64 = jobs.iter().map(|j| j.cpu_s).sum();
    if !trace {
        return Ok(o);
    }

    // The traced pass repeats two rounds of the timed one, so the trace
    // overhead compares the same jobs, untraced and traced. Paired runs
    // gave the same job times in a child process and in this one.
    let p50 = |walls: Vec<f64>| stats::median(&walls).unwrap_or(0.0);
    let subset = traced_rounds(plan);
    let untraced_p50 = p50(subset.iter().map(|&i| jobs[i].wall_s).collect());
    let tplan = Plan {
        jobs: subset.iter().map(|&i| plan.jobs[i]).collect(),
        ..plan.clone()
    };
    let mut rec = Recorder::new(true);
    let mut traced = Traced::default();
    let tjobs = run_traced(&tplan, &inputs, dir, &mut rec, &mut traced)?;
    o.attempted += tjobs.len();
    o.failed += tjobs.iter().filter(|j| j.error.is_some()).count();
    traced.finish(&mut o, tjobs.len());
    layers::pass_times(&mut o, tjobs.iter().map(|j| j.reports.as_slice()));
    let folds = crate::spans::fold_spans(rec.spans());
    let per_job = |name: &str| {
        folds
            .get(name)
            .map_or(0.0, |f| f.total_ns as f64 / 1e9 / f.count as f64)
    };
    o.set("io.read_s", per_job("io.read"));
    o.set("io.write_s", per_job("io.write"));
    o.set("job.cpu_per_wall", cpu / wall.max(1e-9));
    o.note(
        "job.cpu_per_wall",
        format!("{cpu:.2} CPU s / {wall:.2} wall s, timed job processes"),
    );
    o.set(
        "cec.proved",
        tjobs.iter().filter(|j| j.proved == Some(true)).count() as f64,
    );
    o.set(
        "cec.unknown",
        tjobs.iter().filter(|j| j.proved == Some(false)).count() as f64,
    );
    let traced_p50 = p50(tjobs.iter().map(|j| j.wall_s).collect());
    o.set("trace.overhead_ratio", traced_p50 / untraced_p50.max(1e-9));
    o.note(
        "trace.overhead_ratio",
        format!(
            "job_p50_s {traced_p50:.4} s traced / {untraced_p50:.4} s untraced, same {} jobs",
            subset.len()
        ),
    );

    // Where the mean traced job's wall time went.
    let w = plan.workload.name();
    let base = "job";
    let job_s = per_job("job");
    let mut parts = vec![
        ("io.read", o.values["io.read_s"]),
        ("io.write", o.values["io.write_s"]),
    ];
    for (m, _) in layers::PASSES {
        parts.push((m.trim_end_matches("_s"), o.values[m]));
    }
    let attributed: f64 = parts.iter().map(|(_, v)| v).sum();
    parts.push(("other", job_s - attributed));
    // Self times of the scheduler's phases, inside the passes above.
    for (m, _) in layers::SELF_SPANS {
        parts.push((m.trim_end_matches("_s"), o.values[m]));
    }
    for (part, v) in parts {
        o.lines.push(layers::share(w, part, v, base, job_s));
    }
    o.spans = Some(rec.to_jsonl());
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Workload;

    #[test]
    fn traced_rounds_keep_the_mix_and_the_order() {
        for w in [Workload::ArithOpt, Workload::CtrlVerify] {
            let plan = Plan::new(w, 5, 25);
            let t = traced_rounds(&plan);
            assert!(t.windows(2).all(|p| p[0] < p[1]), "in list order");
            for k in 0..plan.inputs.len() {
                let count = |idx: &mut dyn Iterator<Item = usize>| {
                    idx.filter(|&i| plan.jobs[i].input == k).count()
                };
                let all = count(&mut (0..plan.jobs.len()));
                assert_eq!(
                    count(&mut t.iter().copied()) * plan.rounds,
                    all * TRACED_ROUNDS
                );
            }
        }
    }
}
