//! The benchmark's own spans, recorded around each call into a layer,
//! and self-time folding for them and for the program's `obs` trace.
//!
//! Spans stay in memory while the run measures and are written out at
//! the end. A layer's self time is its span's duration minus the part
//! of it that its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. `parent` indexes the enclosing span of the same
/// job; every span of a job carries that job's id.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    pub job: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records nested spans when enabled; when disabled (the timed runs)
/// [`Recorder::span`] only calls through.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    job: usize,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    /// Sets the job id the following spans belong to.
    pub fn set_job(&mut self, job: usize) {
        self.job = job;
    }

    /// Runs `f` inside a span named `name`, nested in the open one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            job: self.job,
            parent: self.open.last().copied(),
            name,
            start_ns: self.now(),
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// The spans as JSON lines: id, parent, job, name, start, end.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"parent\":{parent},\"job\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}\n",
                s.job, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Total and self time per span name, with the number of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Fold {
    pub total_ns: u64,
    pub self_ns: u64,
    pub count: u64,
}

/// Folds recorded spans by name. A child's duration is clipped to its
/// parent's interval before it is taken out of the parent's self time.
pub fn fold_spans(spans: &[SpanRec]) -> BTreeMap<&'static str, Fold> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let overlap = s
                .end_ns
                .min(parent.end_ns)
                .saturating_sub(s.start_ns.max(parent.start_ns));
            child_ns[p] += overlap;
        }
    }
    let mut out: BTreeMap<&'static str, Fold> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let f = out.entry(s.name).or_default();
        f.total_ns += dur;
        f.self_ns += dur.saturating_sub(child);
        f.count += 1;
    }
    out
}

/// Folds the program's `obs` trace events by span name. Spans nest per
/// thread, so a span's children are the spans opened on its thread while
/// it was open. Dynamic suffixes are dropped from names (`commit:wave3`
/// → `commit:wave`, `propose:r12` → `propose:r`) so repeated phases add
/// up under one name.
pub fn fold_events(events: &[obs::Event]) -> BTreeMap<String, Fold> {
    // Per thread: stack of (name, begin ts, covered-by-children ns).
    let mut stacks: BTreeMap<u64, Vec<(String, u64, u64)>> = BTreeMap::new();
    let mut out: BTreeMap<String, Fold> = BTreeMap::new();
    for e in events {
        let stack = stacks.entry(e.tid).or_default();
        match e.ph {
            obs::Phase::Begin => stack.push((base_name(&e.name), e.ts_ns, 0)),
            obs::Phase::End => {
                let Some((name, begin, covered)) = stack.pop() else {
                    continue;
                };
                let dur = e.ts_ns.saturating_sub(begin);
                if let Some(parent) = stack.last_mut() {
                    parent.2 += dur;
                }
                let f = out.entry(name).or_default();
                f.total_ns += dur;
                f.self_ns += dur.saturating_sub(covered);
                f.count += 1;
            }
            obs::Phase::Instant => {}
        }
    }
    out
}

fn base_name(name: &str) -> String {
    name.split(':')
        .map(|part| part.trim_end_matches(|c: char| c.is_ascii_digit()))
        .collect::<Vec<_>>()
        .join(":")
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{Event, Phase};
    use std::borrow::Cow;

    fn rec(job: usize, parent: Option<usize>, name: &'static str, s: u64, e: u64) -> SpanRec {
        SpanRec {
            job,
            parent,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        // job [0,100] ⊃ read [0,10], pipeline [10,90] ⊃ pass [20,50], pass [50,80]
        let spans = vec![
            rec(0, None, "job", 0, 100),
            rec(0, Some(0), "read", 0, 10),
            rec(0, Some(0), "pipeline", 10, 90),
            rec(0, Some(2), "pass", 20, 50),
            rec(0, Some(2), "pass", 50, 80),
        ];
        let f = fold_spans(&spans);
        assert_eq!(
            f["job"],
            Fold {
                total_ns: 100,
                self_ns: 10,
                count: 1
            }
        );
        assert_eq!(
            f["pipeline"],
            Fold {
                total_ns: 80,
                self_ns: 20,
                count: 1
            }
        );
        assert_eq!(
            f["pass"],
            Fold {
                total_ns: 60,
                self_ns: 60,
                count: 2
            }
        );
        // Self times partition the root span.
        let self_sum: u64 = f.values().map(|x| x.self_ns).sum();
        assert_eq!(self_sum, 100);
    }

    #[test]
    fn child_time_is_clipped_to_the_parent() {
        let spans = vec![rec(0, None, "a", 10, 20), rec(0, Some(0), "b", 5, 30)];
        assert_eq!(fold_spans(&spans)["a"].self_ns, 0);
    }

    #[test]
    fn recorder_links_parents_and_jobs() {
        let mut r = Recorder::new(true);
        r.set_job(7);
        r.span("outer", |r| r.span("inner", |_| ()));
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].job), ("outer", None, 7));
        assert_eq!((s[1].name, s[1].parent, s[1].job), ("inner", Some(0), 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(r.to_jsonl().lines().count(), 2);
        let mut off = Recorder::new(false);
        assert_eq!(off.span("x", |_| 3), 3);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn event_folding_nests_per_thread() {
        let ev = |ph, name: &'static str, tid, ts| Event {
            ph,
            name: Cow::Borrowed(name),
            tid,
            ts_ns: ts,
        };
        let events = vec![
            ev(Phase::Begin, "commit", 0, 0),
            ev(Phase::Begin, "commit:wave0", 0, 10),
            ev(Phase::Begin, "propose:worker", 1, 12),
            ev(Phase::Begin, "commit:sim", 0, 15),
            ev(Phase::End, "commit:sim", 0, 25),
            ev(Phase::End, "commit:wave0", 0, 30),
            ev(Phase::Begin, "commit:wave1", 0, 30),
            ev(Phase::End, "commit:wave1", 0, 40),
            ev(Phase::End, "propose:worker", 1, 90),
            ev(Phase::End, "commit", 0, 100),
        ];
        let f = fold_events(&events);
        assert_eq!(f["commit"].self_ns, 70);
        assert_eq!(
            f["commit:wave"],
            Fold {
                total_ns: 30,
                self_ns: 20,
                count: 2
            }
        );
        assert_eq!(f["commit:sim"].self_ns, 10);
        // Another thread's span is not a child of this thread's span.
        assert_eq!(f["propose:worker"].self_ns, 78);
    }
}
