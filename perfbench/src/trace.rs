//! In-memory spans recorded by the benchmark around each public call it
//! makes into a layer.
//!
//! A span has a name (`<layer>.<call>`), a start and an end, the span that
//! encloses it, and the `(site, seq)` identifier of the edit it serves.
//! Closing a span folds its duration and its self time (duration minus the
//! time its child spans cover) into per-phase aggregates, so the layer
//! figures cover every span of a run while only the first
//! [`SPAN_CAPACITY`] spans are kept for writing out.
//!
//! The tracer is per thread and off by default; a disabled [`span`] call is
//! one thread-local flag read.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept for the span file; aggregates cover all spans regardless.
pub const SPAN_CAPACITY: usize = 50_000;

/// The part of an episode a span belongs to. Only [`Phase::Loop`] spans
/// count towards per-edit layer time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Building documents, stores and populations.
    Setup,
    /// The timed edit loop.
    Loop,
    /// The checks after the loop, before the crash.
    Verify,
    /// Crash recovery and restart.
    Recovery,
}

impl Phase {
    const ALL: [Phase; 4] = [Phase::Setup, Phase::Loop, Phase::Verify, Phase::Recovery];

    fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Loop => "loop",
            Phase::Verify => "verify",
            Phase::Recovery => "recovery",
        }
    }

    fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Totals of all closed spans of one name in one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanAgg {
    /// Spans closed.
    pub count: u64,
    /// Sum of their durations, in ns.
    pub total_ns: u64,
    /// Sum of their self times (duration minus child spans), in ns.
    pub self_ns: u64,
}

/// Aggregates keyed by `(phase, span name)`.
pub type Aggregates = BTreeMap<(Phase, String), SpanAgg>;

/// One recorded span.
#[derive(Debug, Clone)]
struct SpanRecord {
    id: u64,
    parent: u64,
    name: &'static str,
    phase: Phase,
    start_ns: u64,
    end_ns: u64,
    site: u64,
    seq: u64,
}

#[derive(Debug)]
struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    child_ns: u64,
    site: u64,
    seq: u64,
}

#[derive(Debug)]
struct Tracer {
    enabled: bool,
    origin: Instant,
    phase: Phase,
    edit: (u64, u64),
    next_id: u64,
    stack: Vec<Open>,
    aggregates: BTreeMap<(Phase, &'static str), SpanAgg>,
    kept: Vec<SpanRecord>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        enabled: false,
        origin: Instant::now(),
        phase: Phase::Setup,
        edit: (0, 0),
        next_id: 1,
        stack: Vec::new(),
        aggregates: BTreeMap::new(),
        kept: Vec::new(),
    });
}

/// Turns span recording on or off for this thread.
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().enabled = on);
}

/// Tags spans opened from now on with `phase`.
pub fn set_phase(phase: Phase) {
    TRACER.with(|t| t.borrow_mut().phase = phase);
}

/// Tags spans opened from now on with the edit `(site, seq)`.
pub fn set_edit(site: u64, seq: u64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.enabled {
            t.edit = (site, seq);
        }
    });
}

/// Guard of an open span; closing happens on drop.
#[derive(Debug)]
#[must_use = "a span closes when its guard is dropped"]
pub struct Span {
    active: bool,
}

/// Opens a span named `<layer>.<call>` under the innermost open span.
pub fn span(name: &'static str) -> Span {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return Span { active: false };
        }
        let id = t.next_id;
        t.next_id += 1;
        let parent = t.stack.last().map_or(0, |o| o.id);
        let (site, seq) = t.edit;
        t.stack.push(Open {
            id,
            parent,
            name,
            start: Instant::now(),
            child_ns: 0,
            site,
            seq,
        });
        Span { active: true }
    })
}

/// Runs `f` inside a span named `name`.
pub fn in_span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = span(name);
    f()
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = Instant::now();
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let Some(open) = t.stack.pop() else {
                return;
            };
            let duration = end.duration_since(open.start).as_nanos() as u64;
            let phase = t.phase;
            let agg = t.aggregates.entry((phase, open.name)).or_default();
            agg.count += 1;
            agg.total_ns += duration;
            agg.self_ns += duration.saturating_sub(open.child_ns);
            if let Some(parent) = t.stack.last_mut() {
                parent.child_ns += duration;
            }
            if t.kept.len() < SPAN_CAPACITY {
                let start_ns = open.start.duration_since(t.origin).as_nanos() as u64;
                t.kept.push(SpanRecord {
                    id: open.id,
                    parent: open.parent,
                    name: open.name,
                    phase,
                    start_ns,
                    end_ns: start_ns + duration,
                    site: open.site,
                    seq: open.seq,
                });
            }
        });
    }
}

/// The aggregates so far (all phases).
pub fn aggregates() -> Aggregates {
    TRACER.with(|t| {
        t.borrow()
            .aggregates
            .iter()
            .map(|(&(phase, name), &agg)| ((phase, name.to_string()), agg))
            .collect()
    })
}

/// `aggs` as text, one `span <phase> <name> <count> <total_ns> <self_ns>`
/// line per entry: how a child process hands its aggregates to the run.
pub fn aggregates_to_text(aggs: &Aggregates) -> String {
    let mut out = String::new();
    for ((phase, name), a) in aggs {
        let _ = writeln!(
            out,
            "span {} {name} {} {} {}",
            phase.name(),
            a.count,
            a.total_ns,
            a.self_ns
        );
    }
    out
}

/// Adds the `span` lines of `text` (see [`aggregates_to_text`]) into
/// `aggs`; other lines are ignored. `false` when a `span` line does not
/// parse.
pub fn merge_aggregates_text(aggs: &mut Aggregates, text: &str) -> bool {
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("span ") else {
            continue;
        };
        let f: Vec<&str> = rest.split(' ').collect();
        let (Some(phase), [_, name, count, total, self_ns]) = (Phase::from_name(f[0]), &f[..])
        else {
            return false;
        };
        let (Ok(count), Ok(total_ns), Ok(self_ns)) = (
            count.parse::<u64>(),
            total.parse::<u64>(),
            self_ns.parse::<u64>(),
        ) else {
            return false;
        };
        let agg = aggs.entry((phase, name.to_string())).or_default();
        agg.count += count;
        agg.total_ns += total_ns;
        agg.self_ns += self_ns;
    }
    true
}

/// The kept spans as JSON lines, one object per span.
pub fn spans_jsonl() -> String {
    TRACER.with(|t| {
        let t = t.borrow();
        let mut out = String::with_capacity(t.kept.len() * 128);
        for s in &t.kept {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"phase\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"site\":{},\"seq\":{}}}",
                s.id,
                s.parent,
                s.name,
                s.phase.name(),
                s.start_ns,
                s.end_ns,
                s.site,
                s.seq
            );
        }
        out
    })
}
