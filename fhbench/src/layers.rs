//! Per-layer metrics of a traced run: program counters from the `obs`
//! registry, per-pass runtimes from `PassReport`s, self times folded
//! from the program's spans, and probes that time a layer's public
//! entry point on each job's own circuits.

use crate::metrics::Outcome;
use crate::spans::Recorder;
use mig::Mig;
use obs::{Delta, Metric};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// What a traced pass collects beside the recorder's spans.
#[derive(Default)]
pub struct Traced {
    /// Self time per program span name, summed over the pass.
    pub self_ns: BTreeMap<String, u64>,
    /// Jobs that ran the pipeline (the base of the self-time means).
    pub pipeline_jobs: usize,
    /// Registry delta of each job (all threads; jobs run one at a time).
    pub deltas: Vec<Delta>,
    pub enumerate_s: Vec<f64>,
    pub canonize_s: Vec<f64>,
    pub canonizations: Vec<f64>,
    pub encode_s: Vec<f64>,
}

/// Runs `f` in a span named `name` and returns its result and seconds.
pub fn timed<T>(rec: &mut Recorder, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    rec.span(name, |_| {
        let t = Instant::now();
        let out = black_box(f());
        (out, t.elapsed().as_secs_f64())
    })
}

impl Traced {
    /// Adds the program's trace events (drained from `obs::trace`) of
    /// `jobs` pipeline runs.
    pub fn add_events(&mut self, events: &[obs::Event], jobs: usize) {
        for (name, f) in crate::spans::fold_events(events) {
            *self.self_ns.entry(name).or_default() += f.self_ns;
        }
        self.pipeline_jobs += jobs;
    }

    /// Probes, outside the timed job: `cuts::enumerate_cuts` on the
    /// input, `Npn4Canonizer::canonize_batch` (cold memo) on the 4-input
    /// cut functions it found, and BLIF encoding of the output.
    pub fn probe(&mut self, rec: &mut Recorder, input: &Mig, output: &Mig) {
        let cfg = fhash::FhConfig::default().cut_config;
        let (cs, s) = timed(rec, "probe.cuts_enumerate", || {
            cuts::enumerate_cuts(input, &cfg)
        });
        self.enumerate_s.push(s);
        let mut keys: Vec<u16> = input
            .gates()
            .flat_map(|g| cs.of(g).iter().filter_map(cuts::Cut::signature4))
            .collect();
        let canon = truth::Npn4Canonizer::new();
        let mut classes = Vec::new();
        let ((), s) = timed(rec, "probe.npn_canonize", || {
            canon.canonize_batch(&mut keys, &mut classes)
        });
        self.canonize_s.push(s);
        self.canonizations.push(classes.len() as f64);
        let (_, s) = timed(rec, "probe.blif_encode", || {
            io::blif::Blif::from_mig(output, "out").to_text()
        });
        self.encode_s.push(s);
    }

    /// Sets every counter-, span- and probe-derived per-layer metric.
    /// Counts and counter times are per job over `jobs` jobs; span self
    /// times are per job that ran the pipeline.
    pub fn finish(&self, o: &mut Outcome, jobs: usize) {
        let mut sum = Delta::default();
        for d in &self.deltas {
            sum.merge(d);
        }
        let n = jobs.max(1) as f64;
        let per_job = |m: Metric| sum.get(m) as f64 / n;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        o.set("cuts.refreshes", per_job(Metric::CutsRefreshes));
        o.set(
            "cuts.refresh_s",
            sum.hist_sum_ns(Metric::CutsRefreshNs) as f64 / 1e9 / n,
        );
        let arena = self
            .deltas
            .iter()
            .map(|d| d.geti(Metric::CutsArenaBytes))
            .max();
        o.set("cuts.arena_mb", arena.unwrap_or(0) as f64 / 1e6);
        o.set(
            "npn.pipeline_canonizations",
            per_job(Metric::NpnCanonizations),
        );
        let scored = sum.get(Metric::CutsScored);
        let repl = sum.get(Metric::FhReplacements) + sum.get(Metric::ShardReplacements);
        o.set("fhash.cuts_scored", scored as f64 / n);
        o.set("fhash.replacements", repl as f64 / n);
        o.set("fhash.converge_rounds", per_job(Metric::FhRounds));
        o.set("fhash.useful_ratio", ratio(repl, scored));
        o.note(
            "fhash.useful_ratio",
            format!("{repl} replacements / {scored} cuts scored"),
        );
        o.set("sched.commit_waves", per_job(Metric::SchedCommitWaves));
        o.set(
            "sched.proposed_regions",
            per_job(Metric::SchedProposedRegions),
        );
        o.set(
            "shard.conflicted_proposals",
            per_job(Metric::ShardConflicted),
        );
        o.set("sched.wave_fallbacks", per_job(Metric::SchedWaveFallbacks));
        o.set(
            "mig.bytes_per_node",
            sum.geti(Metric::MigBytesPerNode) as f64 / n,
        );
        o.set(
            "mig.dead_slot_pct",
            sum.geti(Metric::MigDeadSlotPct) as f64 / n,
        );
        o.set("alg.merges", per_job(Metric::AlgMerges));
        o.set(
            "cec.sat_s",
            sum.hist_sum_ns(Metric::CecSatNs) as f64 / 1e9 / n,
        );
        o.set("cec.sat_calls", per_job(Metric::CecSatCalls));
        o.set("cec.sim_checks", per_job(Metric::CecSimChecks));
        let (sh, sm) = (
            sum.get(Metric::CacheSigHits),
            sum.get(Metric::CacheSigMisses),
        );
        o.set("cache.sig_hit_rate", ratio(sh, sh + sm));
        o.note(
            "cache.sig_hit_rate",
            format!("{sh} hits / {} lookups", sh + sm),
        );
        let (rh, rm) = (
            sum.get(Metric::CacheResultHits),
            sum.get(Metric::CacheResultMisses),
        );
        o.set("cache.result_hit_rate", ratio(rh, rh + rm));
        o.note(
            "cache.result_hit_rate",
            format!("{rh} hits / {} lookups", rh + rm),
        );
        o.set("cache.rejected", sum.get(Metric::CacheRejected) as f64);
        o.note("cache.rejected", "total over the run".into());

        let ran = self.pipeline_jobs.max(1) as f64;
        for (metric, span) in SELF_SPANS {
            o.set(
                metric,
                self.self_ns.get(span).copied().unwrap_or(0) as f64 / 1e9 / ran,
            );
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        o.set("cuts.enumerate_s", mean(&self.enumerate_s));
        o.set("npn.canonize_s", mean(&self.canonize_s));
        o.set("npn.canonizations", mean(&self.canonizations));
        o.note(
            "npn.canonizations",
            "distinct 4-input cut functions of the probe".into(),
        );
        o.set("io.blif_encode_s", mean(&self.encode_s));
    }
}

/// Per-layer metric ← the program span whose self time it reports.
pub const SELF_SPANS: [(&str, &str); 7] = [
    ("self.propose_s", "propose"),
    ("self.commit_s", "commit"),
    ("self.commit_sim_s", "commit:sim"),
    ("self.commit_reconcile_s", "commit:reconcile"),
    ("self.commit_finalize_s", "commit:finalize"),
    ("self.replace_node_s", "replace_node"),
    ("self.sched_partition_s", "sched:partition"),
];

/// Per-layer metric ← the pass-name prefix of the `PassReport` it
/// averages (mean runtime over the jobs that ran the pass).
pub const PASSES: [(&str, &str); 5] = [
    ("pass.strash_s", "strash"),
    ("pass.algebraic_s", "algebraic"),
    ("pass.fhash_tfd_s", "fhash!:TFD"),
    ("pass.fhash_b_s", "fhash!:B"),
    ("pass.cec_s", "cec"),
];

pub fn pass_times<'a>(o: &mut Outcome, jobs: impl Iterator<Item = &'a [cli::PassReport]>) {
    let mut acc = [(0.0f64, 0usize); PASSES.len()];
    for reports in jobs {
        for r in reports {
            if let Some(k) = PASSES.iter().position(|(_, p)| r.pass.starts_with(p)) {
                acc[k].0 += r.runtime;
                acc[k].1 += 1;
            }
        }
    }
    for ((metric, _), (sum, n)) in PASSES.iter().zip(acc) {
        o.set(metric, if n == 0 { 0.0 } else { sum / n as f64 });
    }
}

/// `part` as a share of `base`, printed with the base.
pub fn share(workload: &str, part: &str, value: f64, base: &str, base_value: f64) -> String {
    let pct = if base_value > 0.0 {
        100.0 * value / base_value
    } else {
        0.0
    };
    format!("share {workload} {part} {value:.6} s = {pct:.1}% of {base} {base_value:.6} s")
}
