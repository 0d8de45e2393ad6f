//! `service_mix`: an in-process `migd` daemon with one worker, serving a
//! `cli::daemon::PipelineRunner` over an `OptService` with a fresh, empty
//! cache file, and one closed-loop client that sends each request with
//! `migd::submit` only after the previous one answered.

use crate::check;
use crate::layers::{self, timed, Traced};
use crate::metrics::{self, Outcome};
use crate::plan::{self, Job, Plan, SETUP_SAMPLES};
use crate::spans::Recorder;
use crate::stats;
use cli::service::OptService;
use mig::Mig;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Generated inputs: the circuit, its BLIF text as written to disk and
/// read back, and the size the program sees after parsing that text.
pub struct Inputs {
    pub migs: Vec<Mig>,
    pub texts: Vec<String>,
    pub sizes: Vec<(usize, u32)>,
}

fn make_inputs(plan: &Plan, dir: &Path) -> Result<Inputs, String> {
    let mut inputs = Inputs {
        migs: Vec::new(),
        texts: Vec::new(),
        sizes: Vec::new(),
    };
    for (k, spec) in plan.inputs.iter().enumerate() {
        let m = plan::generate(spec);
        let path = dir.join(format!("in{k}.blif"));
        io::write_mig_path(&path, &m).map_err(|e| format!("{}: {e}", path.display()))?;
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let parsed = parse_blif(&text)?;
        inputs.sizes.push((parsed.num_gates(), parsed.depth()));
        inputs.migs.push(m);
        inputs.texts.push(text);
    }
    Ok(inputs)
}

fn parse_blif(text: &str) -> Result<Mig, String> {
    io::blif::Blif::parse(text)
        .and_then(|b| b.to_mig())
        .map_err(|e| format!("blif: {e}"))
}

/// A running daemon and the service behind it.
struct Daemon {
    socket: PathBuf,
    server: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Builds the service over a fresh cache file in `dir`, starts
    /// `migd::serve` with one worker and waits until `migd::ping`
    /// answers.
    fn start(dir: &Path) -> Result<Daemon, String> {
        let service = Arc::new(OptService::new(Some(dir.join("cache.bin"))));
        let runner = Arc::new(cli::daemon::PipelineRunner::new(service));
        let socket = dir.join("d.sock");
        let path = socket.clone();
        let server = std::thread::spawn(move || migd::serve(&path, 1, runner));
        let t = Instant::now();
        while !migd::ping(&socket).unwrap_or(false) {
            if server.is_finished() {
                let why = match server.join() {
                    Ok(Err(e)) => e.to_string(),
                    _ => "server stopped".into(),
                };
                return Err(format!("daemon on {}: {why}", socket.display()));
            }
            if t.elapsed() > Duration::from_secs(30) {
                return Err(format!("daemon on {}: no answer to ping", socket.display()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(Daemon { socket, server })
    }

    fn stop(self) -> Result<(), String> {
        migd::shutdown(&self.socket).map_err(|e| format!("shutdown: {e}"))?;
        match self.server.join() {
            Ok(r) => r.map_err(|e| format!("daemon: {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

/// One request as the client saw it.
pub struct Req {
    pub latency_s: f64,
    pub runtime_s: f64,
    pub cached: bool,
    pub in_size: (usize, u32),
    pub out_size: (usize, u32),
    pub error: Option<String>,
}

fn request(plan: &Plan, inputs: &Inputs, i: usize) -> migd::JobRequest {
    let job = plan.jobs[i];
    migd::JobRequest {
        id: format!("j{i}"),
        pipeline: plan.pipelines[job.pipeline].to_string(),
        threads: plan.threads,
        format: "blif".into(),
        circuit: inputs.texts[job.input].clone(),
    }
}

/// Checks a served circuit against the job's input.
fn check_served(plan: &Plan, inputs: &Inputs, i: usize, circuit: &str) -> Result<Mig, String> {
    let out = parse_blif(circuit)?;
    if check::same_function(&inputs.migs[plan.jobs[i].input], &out, plan.seed ^ i as u64) {
        Ok(out)
    } else {
        Err("served circuit differs from input on simulation".into())
    }
}

/// Checks that a request was served from the result tier exactly when
/// the plan says so. A broken result tier turns every hit into a miss;
/// that must fail the run, not pass as a run with no slow hits.
fn check_class(job: &Job, cached: bool) -> Result<(), String> {
    match (job.planned_hit, cached) {
        (true, false) => Err("planned hit was not served from the cache".into()),
        (false, true) => Err("planned miss was served from the cache".into()),
        _ => Ok(()),
    }
}

/// Sends the job list through the daemon, one request at a time.
fn run_requests(
    plan: &Plan,
    inputs: &Inputs,
    d: &Daemon,
    mut traced: Option<&mut Traced>,
) -> Vec<Req> {
    let mut out = Vec::with_capacity(plan.jobs.len());
    for i in 0..plan.jobs.len() {
        let req = request(plan, inputs, i);
        let in_size = inputs.sizes[plan.jobs[i].input];
        let before = obs::metrics::global_snapshot();
        let t0 = Instant::now();
        let res = migd::submit(&d.socket, &req, |_| {});
        let latency_s = t0.elapsed().as_secs_f64();
        if let Some(t) = traced.as_deref_mut() {
            t.deltas
                .push(obs::metrics::global_snapshot().since(&before));
        }
        let mut r = Req {
            latency_s,
            runtime_s: 0.0,
            cached: false,
            in_size,
            out_size: (0, 0),
            error: None,
        };
        match res {
            Err(e) => r.error = Some(format!("submit: {e}")),
            Ok(res) if !res.outcome.ok => r.error = Some(res.outcome.error),
            Ok(res) => {
                r.runtime_s = res.outcome.runtime_ns as f64 / 1e9;
                r.cached = res.outcome.cached;
                let served = check_class(&plan.jobs[i], r.cached)
                    .and_then(|()| check_served(plan, inputs, i, &res.outcome.circuit));
                match served {
                    Ok(m) => r.out_size = (m.num_gates(), m.depth()),
                    Err(e) => r.error = Some(e),
                }
            }
        }
        out.push(r);
    }
    out
}

/// Latencies of the answered requests, split by the `cached` flag the
/// server returned: `(hits, misses)`.
pub fn classify(reqs: &[Req]) -> (Vec<f64>, Vec<f64>) {
    let ok = reqs.iter().filter(|r| r.error.is_none());
    let (hits, misses): (Vec<&Req>, Vec<&Req>) = ok.partition(|r| r.cached);
    (
        hits.iter().map(|r| r.latency_s).collect(),
        misses.iter().map(|r| r.latency_s).collect(),
    )
}

/// Fresh inputs and a started daemon in `dir`.
fn setup(plan: &Plan, dir: &Path) -> Result<(Inputs, Daemon), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let inputs = make_inputs(plan, dir)?;
    let daemon = Daemon::start(dir)?;
    Ok((inputs, daemon))
}

fn summarize(plan: &Plan, reqs: &[Req], o: &mut Outcome) {
    o.attempted = reqs.len();
    o.failed = reqs.iter().filter(|r| r.error.is_some()).count();
    let (hits, misses) = classify(reqs);
    let p50 = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    o.set("hit_p50_s", p50(&hits));
    o.note(
        "hit_p50_s",
        format!(
            "{} hits observed, {} planned",
            hits.len(),
            plan.planned_hits()
        ),
    );
    o.set("miss_p50_s", p50(&misses));
    o.note("miss_p50_s", format!("{} misses", misses.len()));
    o.set("job_p50_s", p50(&hits));
    o.note(
        "job_p50_s",
        "cache hits, the majority class (equals hit_p50_s)".into(),
    );
    if let Some(t) = stats::tail(&hits, 10) {
        o.set("hit_tail_s", t.value);
        o.note(
            "hit_tail_s",
            format!(
                "p{:.1} of {} hits, {} beyond",
                t.percentile, t.samples, t.beyond
            ),
        );
    }
    let ok: Vec<&Req> = reqs.iter().filter(|r| r.error.is_none()).collect();
    let gates: f64 = ok.iter().map(|r| r.in_size.0 as f64).sum();
    let latency: f64 = ok.iter().map(|r| r.latency_s).sum();
    o.set("gates_per_s", gates / latency.max(1e-9));
    let ratio = |f: fn(&Req) -> (f64, f64)| {
        stats::geomean_ratio(&ok.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    o.set(
        "gates_ratio",
        ratio(|r| (r.out_size.0 as f64, r.in_size.0 as f64)),
    );
    o.set(
        "depth_ratio",
        ratio(|r| (f64::from(r.out_size.1), f64::from(r.in_size.1))),
    );
    o.set("fail_frac", o.failed as f64 / o.attempted.max(1) as f64);
    for (i, (job, r)) in plan.jobs.iter().cycle().zip(reqs).enumerate() {
        let status = match &r.error {
            Some(e) => format!("FAILED: {e}"),
            None if r.cached => "hit".into(),
            None => "miss".into(),
        };
        o.lines.push(format!(
            "job {i} {} | {} latency {:.4} s server {:.4} s gates {} -> {} {status}",
            plan.inputs[job.input],
            plan.pipelines[job.pipeline],
            r.latency_s,
            r.runtime_s,
            r.in_size.0,
            r.out_size.0
        ));
    }
}

/// Reads one step's value out of [`Steps`].
type Step = fn(&Steps) -> f64;

/// Steps of one request replayed in-process, in seconds.
#[derive(Default)]
struct Steps {
    render_request: f64,
    parse_request: f64,
    blif_decode: f64,
    run_job: f64,
    flush: f64,
    blif_encode: f64,
    render_result: f64,
    parse_result: f64,
    request_bytes: usize,
    result_bytes: usize,
    cached: bool,
    /// The whole replayed request (the `job` span).
    job: f64,
}

/// Replays the job list against a fresh in-process `OptService`, one
/// span per protocol step: `render_request` → `parse_request` → BLIF
/// decode → `run_job` → `flush` → BLIF encode → `render_result` →
/// `parse_result`. Returns each request's steps and its pass reports.
fn replay(
    plan: &Plan,
    inputs: &Inputs,
    dir: &Path,
    rec: &mut Recorder,
    traced: &mut Traced,
) -> Result<Vec<(Steps, Vec<cli::PassReport>)>, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let service = OptService::new(Some(dir.join("cache.bin")));
    let mut out = Vec::new();
    for i in 0..plan.jobs.len() {
        rec.set_job(i);
        let req = migd::Request::Job(request(plan, inputs, i));
        let mut s = Steps::default();
        let t_job = Instant::now();
        let job = rec.span("job", |r| -> Result<_, String> {
            let (line, d) = timed(r, "migd.render_request", || migd::render_request(&req));
            s.render_request = d;
            s.request_bytes = line.len();
            let (parsed, d) = timed(r, "migd.parse_request", || migd::parse_request(&line));
            s.parse_request = d;
            let Ok(migd::Request::Job(job)) = parsed else {
                return Err("request did not parse back".into());
            };
            let (input, d) = timed(r, "io.blif_decode", || parse_blif(&job.circuit));
            s.blif_decode = d;
            let input = input?;
            let passes = cli::parse_pipeline(&job.pipeline).map_err(|e| e.to_string())?;
            let (run, d) = timed(r, "service.run_job", || {
                service.run_job(&input, &passes, job.threads, None)
            });
            s.run_job = d;
            let (result, reports, cached) = run.map_err(|e| e.to_string())?;
            s.cached = cached;
            let (flushed, d) = timed(r, "service.flush", || service.flush());
            s.flush = d;
            flushed.map_err(|e| format!("flush: {e}"))?;
            let (circuit, d) = timed(r, "io.blif_encode", || {
                io::blif::Blif::from_mig(&result, "migopt").to_text()
            });
            s.blif_encode = d;
            let outcome = migd::JobOutcome {
                ok: true,
                size: result.num_gates() as u64,
                depth: u64::from(result.depth()),
                runtime_ns: 0,
                cached,
                circuit,
                error: String::new(),
            };
            let (line, d) = timed(r, "migd.render_result", || {
                migd::render_result(&job.id, &outcome)
            });
            s.render_result = d;
            s.result_bytes = line.len();
            let (parsed, d) = timed(r, "migd.parse_result", || migd::parse_result(&line));
            s.parse_result = d;
            let served = parsed.ok_or("result did not parse back")?;
            Ok((input, result, served.outcome.circuit, reports))
        });
        s.job = t_job.elapsed().as_secs_f64();
        let (input, result, circuit, reports) = job?;
        check_class(&plan.jobs[i], s.cached)?;
        check_served(plan, inputs, i, &circuit)?;
        if !s.cached {
            traced.probe(rec, &input, &result);
        }
        out.push((s, reports));
    }
    Ok(out)
}

/// A whole `service_mix` run. Each `setup_s` sample times
/// `plan.setups_per_sample` set-ups in a row, each building fresh inputs
/// and a fresh daemon (stopping a daemon is not timed); the last daemon
/// of `plan.sessions` evenly spaced samples also serves the job list.
/// With `trace`, one traced session and the decomposed in-process replay
/// follow.
pub fn run(plan: &Plan, dir: &Path, trace: bool) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let mut setup_s = Vec::new();
    let mut reqs = Vec::new();
    let mut cpu = 0.0;
    let mut hash = String::new();
    let stride = (SETUP_SAMPLES / plan.sessions).max(1);
    let session_dir = dir.join("session");
    for k in 0..SETUP_SAMPLES.max(plan.sessions * stride) {
        let mut timed_s = 0.0;
        let mut last = None;
        for _ in 0..plan.setups_per_sample {
            if let Some((_, daemon)) = last.take() {
                Daemon::stop(daemon)?;
                std::fs::remove_dir_all(&session_dir).ok();
            }
            let t = Instant::now();
            last = Some(setup(plan, &session_dir)?);
            timed_s += t.elapsed().as_secs_f64();
        }
        setup_s.push(timed_s / plan.setups_per_sample as f64);
        let (inputs, daemon) = last.expect("at least one set-up per sample");
        if k % stride == 0 && k / stride < plan.sessions {
            let digests: Vec<u64> = inputs.migs.iter().map(check::digest).collect();
            hash = format!("job_list_hash {:016x}", plan.hash(&digests));
            let cpu0 = metrics::cpu_seconds();
            reqs.extend(run_requests(plan, &inputs, &daemon, None));
            cpu += metrics::cpu_seconds() - cpu0;
        }
        daemon.stop()?;
        std::fs::remove_dir_all(&session_dir).ok();
    }
    o.lines.push(hash);
    o.set("setup_s", stats::median(&setup_s).unwrap_or(0.0));
    o.note(
        "setup_s",
        format!(
            "median of {} samples spread over the run, each the mean of {} set-ups in a row",
            setup_s.len(),
            plan.setups_per_sample
        ),
    );
    summarize(plan, &reqs, &mut o);
    o.set("peak_rss_mb", metrics::peak_rss_mb());
    if !trace {
        return Ok(o);
    }

    // Traced daemon pass on fresh state: registry deltas per request and
    // the program's spans, folded over the pass.
    let untraced_p50 = o.values["miss_p50_s"];
    let mut traced = Traced::default();
    let (inputs, daemon) = setup(plan, &dir.join("traced"))?;
    obs::trace::start();
    let treqs = run_requests(plan, &inputs, &daemon, Some(&mut traced));
    let events = obs::trace::finish();
    daemon.stop()?;
    let (_, tmisses) = classify(&treqs);
    traced.add_events(&events, tmisses.len());
    o.attempted += treqs.len();
    o.failed += treqs.iter().filter(|r| r.error.is_some()).count();
    let traced_p50 = stats::median(&tmisses).unwrap_or(0.0);
    o.set("trace.overhead_ratio", traced_p50 / untraced_p50.max(1e-9));
    o.note(
        "trace.overhead_ratio",
        format!("miss_p50_s {traced_p50:.4} s traced / {untraced_p50:.4} s untraced"),
    );

    let mut rec = Recorder::new(true);
    let replay_dir = dir.join("replay");
    let steps = replay(plan, &inputs, &replay_dir, &mut rec, &mut traced)?;
    traced.finish(&mut o, treqs.len());
    let file_bytes = std::fs::metadata(replay_dir.join("cache.bin")).map_or(0, |m| m.len());
    o.set("fcache.file_bytes", file_bytes as f64);
    layers::pass_times(
        &mut o,
        steps
            .iter()
            .filter(|(s, _)| !s.cached)
            .map(|(_, r)| r.as_slice()),
    );

    let mean = |f: Step, hit: Option<bool>| {
        let v: Vec<f64> = steps
            .iter()
            .filter(|(s, _)| hit.is_none_or(|h| s.cached == h))
            .map(|(s, _)| f(s))
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    o.set("migd.request_encode_s", mean(|s| s.render_request, None));
    o.set("migd.request_decode_s", mean(|s| s.parse_request, None));
    o.set("migd.result_decode_s", mean(|s| s.parse_result, None));
    o.set("migd.request_bytes", mean(|s| s.request_bytes as f64, None));
    o.set("migd.result_bytes", mean(|s| s.result_bytes as f64, None));
    let outside: Vec<f64> = reqs
        .iter()
        .filter(|r| r.error.is_none())
        .map(|r| r.latency_s - r.runtime_s)
        .collect();
    o.set(
        "migd.outside_job_s",
        outside.iter().sum::<f64>() / outside.len().max(1) as f64,
    );
    o.note(
        "migd.outside_job_s",
        "client latency minus server runtime_ns, untraced pass".into(),
    );
    o.set("service.run_job_hit_s", mean(|s| s.run_job, Some(true)));
    o.set("service.run_job_miss_s", mean(|s| s.run_job, Some(false)));
    o.set("service.flush_s", mean(|s| s.flush, None));
    o.set("io.read_s", mean(|s| s.blif_decode, None));
    o.note("io.read_s", "BLIF decode of the request circuit".into());
    o.set("io.blif_encode_s", mean(|s| s.blif_encode, None));
    o.set(
        "job.cpu_per_wall",
        cpu / reqs.iter().map(|r| r.latency_s).sum::<f64>().max(1e-9),
    );

    // Where a replayed request's time went, per class, and how the
    // replay compares with the latency the daemon's client saw.
    let w = plan.workload.name();
    let (hits, misses) = classify(&reqs);
    for (class, hit, lat) in [("hit", true, &hits), ("miss", false, &misses)] {
        let client = lat.iter().sum::<f64>() / lat.len().max(1) as f64;
        let base = format!("{class}_replay_mean");
        let base_s = mean(|s| s.job, Some(hit));
        let parts: [(&str, Step); 8] = [
            ("migd.render_request", |s| s.render_request),
            ("migd.parse_request", |s| s.parse_request),
            ("io.blif_decode", |s| s.blif_decode),
            ("service.run_job", |s| s.run_job),
            ("service.flush", |s| s.flush),
            ("io.blif_encode", |s| s.blif_encode),
            ("migd.render_result", |s| s.render_result),
            ("migd.parse_result", |s| s.parse_result),
        ];
        for (part, f) in parts {
            o.lines
                .push(layers::share(w, part, mean(f, Some(hit)), &base, base_s));
        }
        let client_base = format!("{class}_client_latency_mean");
        o.lines
            .push(layers::share(w, &base, base_s, &client_base, client));
    }
    o.spans = Some(rec.to_jsonl());
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(latency_s: f64, cached: bool, error: Option<&str>) -> Req {
        Req {
            latency_s,
            runtime_s: 0.0,
            cached,
            in_size: (1, 1),
            out_size: (1, 1),
            error: error.map(str::to_owned),
        }
    }

    #[test]
    fn a_request_must_be_served_as_planned() {
        let job = |planned_hit| Job {
            input: 0,
            pipeline: 0,
            planned_hit,
        };
        assert!(check_class(&job(true), true).is_ok());
        assert!(check_class(&job(false), false).is_ok());
        assert!(check_class(&job(true), false).is_err());
        assert!(check_class(&job(false), true).is_err());
    }

    #[test]
    fn classification_follows_the_cached_flag() {
        let reqs = [
            req(0.5, false, None),
            req(0.1, true, None),
            req(0.2, true, None),
            req(0.9, true, Some("served circuit differs")),
            req(0.7, false, Some("submit: refused")),
        ];
        let (hits, misses) = classify(&reqs);
        assert_eq!(hits, vec![0.1, 0.2]);
        assert_eq!(misses, vec![0.5]);
    }
}
