//! Workloads and their seeded job lists.
//!
//! A run is a fixed job list drawn from the workload seed, never a time
//! budget: every job costs the same on two commits, so their totals and
//! medians compare directly. `--seconds` only sets how many rounds of
//! the catalog a list holds, by a fixed per-workload round length.

use std::fmt;

/// splitmix64: a tiny, well-mixed generator; the same seed always gives
/// the same stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is negligible here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ArithOpt,
    CtrlVerify,
    ServiceMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ArithOpt,
        Workload::CtrlVerify,
        Workload::ServiceMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ArithOpt => "arith_opt",
            Workload::CtrlVerify => "ctrl_verify",
            Workload::ServiceMix => "service_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The batch optimization script of `arith_opt` and `service_mix`.
pub const OPT: &str = "strash; algebraic; fhash!:TFD; fhash!:B";

/// `arith_opt`: AND-expanded array multipliers and a hypotenuse circuit,
/// including the 43,971-gate `mult:64`, with the times each appears per
/// round. Per round, one job is fast (`mult:32`, 0.3–0.4 s), two are
/// the same middle circuit (`hyp:24`, 0.6–1.0 s) and one is slow
/// (`mult:64`, 1.1–1.6 s), so the median job is always the median of
/// `hyp:24`'s own samples, spread across the run. One round ≈ 3–4 s on
/// 2 cores.
const ARITH_INPUTS: &[(&str, usize)] = &[("mult:64", 1), ("hyp:24", 2), ("mult:32", 1)];
const ARITH_ROUND_S: f64 = 4.0;

/// `ctrl_verify`: random control register files `ctrl:W:R:S:SEED`, each
/// with the `cec:20000` verdict it gets on every run: `true` proves,
/// `false` exhausts the conflict budget (UNKNOWN). A job whose circuit
/// should prove but does not counts as failed; the other way round is
/// an improvement and allowed. Per round, two jobs are fast (0.15 s,
/// 0.3 s), one is the middle (`ctrl:12:12:48:3`, 0.4 s) and two are
/// slow (0.9 s, 2 s), so the median job is always the median of the
/// middle circuit's own samples. One round ≈ 3.2 s.
const CTRL_INPUTS: &[(&str, bool)] = &[
    ("ctrl:8:8:32:44", true),
    ("ctrl:8:8:32:8", true),
    ("ctrl:12:12:48:3", true),
    ("ctrl:8:8:32:11", false),
    ("ctrl:16:16:64:1", false),
];
const CTRL_PIPELINE: &str = "strash; algebraic; fhash!:TFD; fhash!:B; cec:20000";
const CTRL_ROUND_S: f64 = 3.2;

/// `service_mix`: five inputs of 65–150 KB of BLIF and three cacheable
/// pipelines, combined into eight (input, pipeline) pairs. Three inputs
/// carry two pairs each: the second misses the result tier but reuses
/// the signature table the first one warmed. A request's latency grows
/// with its input's size, so the pairs form three groups: two small
/// inputs, four middle pairs (`mult:16` and `ctrl:12:12:48:3`, each
/// under two pipelines) and two large ones (`hyp:10`). With two pairs
/// on either side, both the hit and the miss median fall in the middle
/// of the middle group, never at the edge between two groups.
const SERVICE_INPUTS: &[&str] = &[
    "mult:16",
    "ctrl:12:12:48:3",
    "hyp:10",
    "ctrl:8:8:32:8",
    "mult:12",
];
const SERVICE_PIPELINES: &[&str] = &[OPT, "strash; fhash!:TFD", "strash; algebraic; fhash!:B"];
const SERVICE_PAIRS: &[(usize, usize)] = &[
    (0, 0),
    (1, 0),
    (2, 0),
    (3, 0),
    (0, 1),
    (4, 0),
    (1, 1),
    (2, 2),
];
/// Fresh daemons per run; each session replays the job list from an
/// empty cache, so a run holds `SERVICE_SESSIONS` misses per pair.
pub const SERVICE_SESSIONS: usize = 3;
/// Length of one round of hits (one request per pair) over all sessions.
const SERVICE_ROUND_S: f64 = 9.0;

/// `setup_s` samples per run, spread over it; `setup_s` is their median.
pub const SETUP_SAMPLES: usize = 9;

/// One request of a job list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Job {
    /// Index into [`Plan::inputs`].
    pub input: usize,
    /// Index into [`Plan::pipelines`].
    pub pipeline: usize,
    /// Whether the result tier should already hold this job's result
    /// (`service_mix` repeats); always false for the batch workloads.
    pub planned_hit: bool,
}

/// A workload's complete, seeded job list.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// Generator specs (`benchgen` through the `gen:` grammar).
    pub inputs: Vec<&'static str>,
    pub pipelines: Vec<&'static str>,
    /// Default worker threads per job (`-j`).
    pub threads: usize,
    /// Times the job list runs, each time on fresh program state.
    pub sessions: usize,
    /// Rounds of the catalog in the job list.
    pub rounds: usize,
    /// Per input, whether its `cec` pass must return PROVED.
    pub proves: Vec<bool>,
    /// Consecutive set-ups timed as one `setup_s` sample, so that a
    /// sample holds about half a second of work.
    pub setups_per_sample: usize,
    pub jobs: Vec<Job>,
}

fn rounds(seconds: u64, round_s: f64) -> usize {
    ((seconds as f64 / round_s).round() as usize).max(1)
}

impl Plan {
    /// The job list of `workload` at `seed`, sized for `seconds`.
    pub fn new(workload: Workload, seed: u64, seconds: u64) -> Plan {
        let mut rng = Rng::new(seed ^ 0xF4B3_0000_0000_0000);
        let mut batch = |inputs: Vec<&'static str>,
                         per_round: Vec<usize>,
                         proves: Vec<bool>,
                         pipeline,
                         threads,
                         round_s,
                         setups_per_sample| {
            let rounds = rounds(seconds, round_s);
            let mut jobs: Vec<Job> = (0..rounds)
                .flat_map(|_| per_round.iter().enumerate())
                .flat_map(|(input, &n)| std::iter::repeat_n(input, n))
                .map(|input| Job {
                    input,
                    pipeline: 0,
                    planned_hit: false,
                })
                .collect();
            rng.shuffle(&mut jobs);
            Plan {
                workload,
                seed,
                inputs,
                pipelines: vec![pipeline],
                threads,
                sessions: 1,
                rounds,
                proves,
                setups_per_sample,
                jobs,
            }
        };
        match workload {
            Workload::ArithOpt => batch(
                ARITH_INPUTS.iter().map(|e| e.0).collect(),
                ARITH_INPUTS.iter().map(|e| e.1).collect(),
                vec![false; ARITH_INPUTS.len()],
                OPT,
                2,
                ARITH_ROUND_S,
                4,
            ),
            Workload::CtrlVerify => batch(
                CTRL_INPUTS.iter().map(|e| e.0).collect(),
                vec![1; CTRL_INPUTS.len()],
                CTRL_INPUTS.iter().map(|e| e.1).collect(),
                CTRL_PIPELINE,
                1,
                CTRL_ROUND_S,
                20,
            ),
            Workload::ServiceMix => {
                let rounds = rounds(seconds, SERVICE_ROUND_S);
                let per_pair = 1 + rounds;
                let mut order: Vec<usize> = (0..SERVICE_PAIRS.len())
                    .flat_map(|p| std::iter::repeat_n(p, per_pair))
                    .collect();
                rng.shuffle(&mut order);
                let order = canonical_first_appearance(&order);
                let mut seen = vec![false; SERVICE_PAIRS.len()];
                let jobs = order
                    .into_iter()
                    .map(|p| {
                        let (input, pipeline) = SERVICE_PAIRS[p];
                        let planned_hit = std::mem::replace(&mut seen[p], true);
                        Job {
                            input,
                            pipeline,
                            planned_hit,
                        }
                    })
                    .collect();
                Plan {
                    workload,
                    seed,
                    inputs: SERVICE_INPUTS.to_vec(),
                    pipelines: SERVICE_PIPELINES.to_vec(),
                    threads: 1,
                    sessions: SERVICE_SESSIONS,
                    rounds,
                    proves: vec![false; SERVICE_INPUTS.len()],
                    setups_per_sample: 10,
                    jobs,
                }
            }
        }
    }

    /// Number of requests the plan expects the result tier to serve,
    /// over all sessions.
    pub fn planned_hits(&self) -> usize {
        self.sessions * self.jobs.iter().filter(|j| j.planned_hit).count()
    }

    /// FNV-1a over the rendered job list plus a structural digest of
    /// every generated input: equal hashes mean two runs (or two
    /// commits) optimized identical inputs in the same order.
    pub fn hash(&self, input_digests: &[u64]) -> u64 {
        let mut text = format!("{} j{} x{}\n", self.workload, self.threads, self.sessions);
        for (spec, d) in self.inputs.iter().zip(input_digests) {
            text.push_str(&format!("in {spec} {d:016x}\n"));
        }
        for p in &self.pipelines {
            text.push_str(&format!("p {p}\n"));
        }
        for j in &self.jobs {
            text.push_str(&format!(
                "{}:{}:{}\n",
                j.input,
                j.pipeline,
                u8::from(j.planned_hit)
            ));
        }
        fnv1a(text.as_bytes())
    }
}

/// Relabels a sequence so labels first appear in ascending order
/// (`[2, 0, 2, 1]` → `[0, 1, 0, 2]`). Applied to the shuffled request
/// sequence, it keeps each pair's request count and the seeded
/// interleaving of hits and misses, while the misses — whose cost
/// depends on what earlier misses warmed — always come in pair order.
pub fn canonical_first_appearance(seq: &[usize]) -> Vec<usize> {
    let mut map = std::collections::HashMap::new();
    seq.iter()
        .map(|&x| {
            let next = map.len();
            *map.entry(x).or_insert(next)
        })
        .collect()
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Synthesizes a `gen:`-grammar instance, AND-expanded through the AIG
/// round trip like every file-loaded circuit.
pub fn generate(spec: &str) -> mig::Mig {
    let parts: Vec<&str> = spec.split(':').collect();
    let n = |s: &str| s.parse::<usize>().expect("catalog specs are well formed");
    let raw = match parts.as_slice() {
        ["mult", w] => benchgen::multiplier(n(w)),
        ["hyp", w] => benchgen::hypotenuse(n(w)),
        ["ctrl", w, r, s, seed] => benchgen::random_control(n(w), n(r), n(s), n(seed) as u64),
        _ => panic!("unknown catalog spec {spec:?}"),
    };
    aig::to_mig(&aig::from_mig(&raw))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_job_list() {
        for w in Workload::ALL {
            let a = Plan::new(w, 7, 20);
            assert_eq!(a, Plan::new(w, 7, 20));
            assert_eq!(a.hash(&[1, 2, 3]), Plan::new(w, 7, 20).hash(&[1, 2, 3]));
            assert_ne!(
                a.jobs,
                Plan::new(w, 8, 20).jobs,
                "{w}: the seed must matter"
            );
            assert_ne!(a.hash(&[1, 2, 3]), a.hash(&[1, 2, 4]), "inputs are hashed");
        }
    }

    #[test]
    fn every_seed_has_the_same_composition() {
        for w in Workload::ALL {
            let count = |p: &Plan| {
                let mut c = std::collections::BTreeMap::new();
                for j in &p.jobs {
                    *c.entry((j.input, j.pipeline, j.planned_hit)).or_insert(0) += 1;
                }
                c
            };
            let a = Plan::new(w, 1, 20);
            for seed in 2..20 {
                let b = Plan::new(w, seed, 20);
                assert_eq!(count(&a), count(&b), "{w} seed {seed}");
                assert_eq!(a.planned_hits(), b.planned_hits());
            }
        }
    }

    #[test]
    fn service_misses_come_first_per_pair_and_in_pair_order() {
        let plan = Plan::new(Workload::ServiceMix, 3, 20);
        let misses: Vec<(usize, usize)> = plan
            .jobs
            .iter()
            .filter(|j| !j.planned_hit)
            .map(|j| (j.input, j.pipeline))
            .collect();
        assert_eq!(misses, SERVICE_PAIRS);
        let mut seen = std::collections::HashSet::new();
        for j in &plan.jobs {
            assert_eq!(j.planned_hit, !seen.insert((j.input, j.pipeline)));
        }
        let hits = plan.jobs.len() - SERVICE_PAIRS.len();
        assert_eq!(plan.planned_hits(), SERVICE_SESSIONS * hits);
    }

    /// With a few fast and a few slow jobs per round on either side of
    /// one middle circuit, the median job is one of that circuit's.
    #[test]
    fn the_median_job_is_the_middle_circuit() {
        for (w, middle, fast) in [
            (Workload::ArithOpt, "hyp:24", ["mult:32"].as_slice()),
            (
                Workload::CtrlVerify,
                "ctrl:12:12:48:3",
                ["ctrl:8:8:32:44", "ctrl:8:8:32:8"].as_slice(),
            ),
        ] {
            for seconds in [1, 10, 25, 60] {
                let plan = Plan::new(w, 1, seconds);
                let count = |specs: &[&str]| {
                    plan.jobs
                        .iter()
                        .filter(|j| specs.contains(&plan.inputs[j.input]))
                        .count()
                };
                let (n, below, mid) = (plan.jobs.len(), count(fast), count(&[middle]));
                // 1-based ranks of the one or two jobs the median reads.
                let ranks = [n.div_ceil(2), n / 2 + 1];
                assert!(
                    ranks.iter().all(|&r| r > below && r <= below + mid),
                    "{w} at {seconds} s: ranks {ranks:?}, {below} below, {mid} middle"
                );
            }
        }
    }

    #[test]
    fn first_appearance_relabeling() {
        assert_eq!(canonical_first_appearance(&[2, 0, 2, 1]), vec![0, 1, 0, 2]);
        assert_eq!(canonical_first_appearance(&[]), Vec::<usize>::new());
    }

    #[test]
    fn seconds_set_the_round_count() {
        let jobs = |s| Plan::new(Workload::ArithOpt, 1, s).jobs.len();
        assert_eq!(jobs(1), 4);
        assert_eq!(jobs(12), 3 * 4);
    }
}
