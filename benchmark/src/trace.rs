//! The span recorder of the traced run.
//!
//! Every span is recorded from the benchmark's own files, around a call
//! into one layer's public function — nothing inside `crates/` is touched.
//! A span carries its name, start, end, the span that caused it and the op
//! it belongs to; spans stay in memory and are written out when the
//! workload ends.  A layer's time is the sum of its spans; a span's self
//! time is its duration minus what its children cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer (module) name, e.g. `frep.fuse`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Index of the op (request) the span belongs to.
    pub op: u32,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans of one round in memory.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
    op: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the op id stamped on the spans opened from here on.
    pub fn set_op(&mut self, op: usize) {
        self.op = op as u32;
    }

    /// Opens a span under the innermost open span and returns its id.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        let end_ns = self.now();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Records `work` as a leaf span under the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = work();
        self.close(id);
        out
    }

    /// Like [`Recorder::span`] but detached from the open spans: the work
    /// is timed under its name without counting towards any request (used
    /// for calibration calls the engine's own request path does not make).
    pub fn detached<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> T {
        let saved = std::mem::take(&mut self.stack);
        let out = self.span(name, work);
        self.stack = saved;
        out
    }

    /// The spans recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of one span.
    #[cfg(test)]
    pub fn nanos(&self, id: u32) -> u64 {
        self.spans[id as usize].nanos()
    }

    /// Total nanoseconds per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for span in &self.spans {
            *totals.entry(span.name).or_insert(0) += span.nanos();
        }
        totals
    }

    /// Total nanoseconds of the direct children of every span named
    /// `parent_name` — what the layers under it cover.
    pub fn children_total(&self, parent_name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent != NO_PARENT && self.spans[s.parent as usize].name == parent_name)
            .map(Span::nanos)
            .sum()
    }

    /// The spans as a JSON array of `[name, start_ns, end_ns, parent, op]`
    /// rows under a column header (compact: a round can hold 10⁵ spans).
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "columns",
                Json::Arr(
                    ["name", "start_ns", "end_ns", "parent", "op"]
                        .into_iter()
                        .map(Json::str)
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::Arr(vec![
                                Json::str(s.name),
                                Json::num(s.start_ns as f64),
                                Json::num(s.end_ns as f64),
                                if s.parent == NO_PARENT {
                                    Json::Null
                                } else {
                                    Json::num(f64::from(s.parent))
                                },
                                Json::num(f64::from(s.op)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_children_cover_their_parent() {
        let mut rec = Recorder::new();
        rec.set_op(3);
        let request = rec.open("request");
        rec.span("entry", || std::hint::black_box(1 + 1));
        let replay = rec.open("replay");
        rec.span("frep.fuse", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.span("frep.stats", || ());
        rec.detached("plan.greedy", || ());
        rec.close(replay);
        rec.close(request);

        let spans = rec.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, request);
        assert_eq!(spans[3].parent, replay);
        assert_eq!(
            spans[5].parent, NO_PARENT,
            "detached spans hang off nothing"
        );
        assert!(spans.iter().all(|s| s.op == 3 && s.end_ns >= s.start_ns));
        // Children of `replay` exclude the detached calibration span and
        // never exceed the parent.
        let covered = rec.children_total("replay");
        assert!(covered >= 2_000_000 && covered <= rec.nanos(replay));
        assert!(rec.totals()["frep.fuse"] >= 2_000_000);
        let json = rec.to_json();
        assert_eq!(json.get("spans").unwrap().as_arr().unwrap().len(), 6);
    }
}
