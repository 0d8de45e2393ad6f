//! `fhbench`: the end-to-end and per-layer benchmark of the MIG
//! functional-hashing optimizer. See `README.md` beside this package.
//!
//! ```text
//! fhbench --workload <arith_opt|ctrl_verify|service_mix> --seed N --seconds S --trace 0|1
//! fhbench compare <runs-A.log> <runs-B.log>
//! ```

mod batch;
mod check;
mod compare;
mod layers;
mod metrics;
mod plan;
mod service;
mod spans;
mod stats;

use plan::{Plan, Workload};
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: fhbench --workload <arith_opt|ctrl_verify|service_mix> \
                     --seed N --seconds S --trace 0|1\n       fhbench compare <runs-A.log> <runs-B.log>";

/// Scratch and span output, relative to the working directory.
const WORK_DIR: &str = ".fhbench";

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1, 10, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?,
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Removes the run directory however the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the work directory only when spans were written to it.
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

fn run(opts: &Opts) -> Result<i32, String> {
    let plan = Plan::new(opts.workload, opts.seed, opts.seconds);
    let dir = RunDir(Path::new(WORK_DIR).join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("{}: {e}", dir.0.display()))?;
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "fhbench workload={} seed={} seconds={} trace={} jobs={} planned_hits={} threads_per_job={} host_cores={cores}",
        plan.workload,
        plan.seed,
        opts.seconds,
        u8::from(opts.trace),
        plan.sessions * plan.jobs.len(),
        plan.planned_hits(),
        plan.threads,
    );
    let mut o = match opts.workload {
        Workload::ArithOpt | Workload::CtrlVerify => batch::run(&plan, &dir.0, opts.trace)?,
        Workload::ServiceMix => service::run(&plan, &dir.0, opts.trace)?,
    };
    if let Some(spans) = o.spans.take() {
        let path = Path::new(WORK_DIR).join(format!("spans-{}-{}.jsonl", plan.workload, plan.seed));
        std::fs::write(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
        o.lines.push(format!("spans {}", path.display()));
    }
    // A gated metric that reads 0 means a layer stopped doing its work
    // (no hits served, no job timed); printing it would pass as the best
    // possible value.
    if let Some(d) = metrics::END_TO_END.iter().find(|d| {
        !o.values
            .get(d.name)
            .is_some_and(|v| v.is_finite() && *v > 0.0)
    }) {
        o.print_lines();
        return Err(format!("end-to-end metric {} is 0 or missing", d.name));
    }
    let gated = if opts.trace {
        for d in metrics::PER_LAYER {
            o.values.entry(d.name).or_insert(0.0);
        }
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    o.print(plan.workload.name(), gated);
    Ok(i32::from(o.failed > 0))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => std::process::exit(compare::main(&args[1..])),
        Some("job") => std::process::exit(batch::job_main(&args[1..])),
        _ => {}
    }
    let code = match parse(&args) {
        Err(e) => {
            eprintln!("fhbench: {e}\n{USAGE}");
            2
        }
        Ok(opts) => run(&opts).unwrap_or_else(|e| {
            eprintln!("fhbench: {e}");
            1
        }),
    };
    std::process::exit(code);
}
