//! Spans around the harness's calls into each layer.
//!
//! The harness, not the product, records them: one span per call of a
//! layer's public function, kept in memory and written to
//! `bench/out/trace-<workload>.json` when the run ends.  A span's self
//! time is its duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    pub round: u32,
    /// XMark query number, 0 when the span is not about one query.
    pub query: u8,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder.  Disabled, `span` only runs the closure.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub round: u32,
    open: Vec<usize>,
    pub spans: Vec<Span>,
    /// `(round, metric, value)` readings the product reported about itself,
    /// taken where the spans are.
    pub counts: Vec<(u32, &'static str, f64)>,
}

impl Tracer {
    /// `epoch` is shared by every tracer of a run so their spans line up.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            round: 0,
            open: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Add `value` to `metric` for the current round.
    pub fn count(&mut self, metric: &'static str, value: f64) {
        if self.enabled {
            self.counts.push((self.round, metric, value));
        }
    }

    pub fn span<T>(
        &mut self,
        name: &'static str,
        query: u8,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            round: self.round,
            query,
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        value
    }
}

/// Self time of every span: duration minus the durations of its direct
/// children (children never overlap: one thread records them in sequence).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Sum `readings` by round and return the sums in round order.
pub fn sum_by_round(readings: impl Iterator<Item = (u32, f64)>) -> Vec<f64> {
    let mut rounds: BTreeMap<u32, f64> = BTreeMap::new();
    for (round, value) in readings {
        *rounds.entry(round).or_default() += value;
    }
    rounds.into_values().collect()
}

pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let own = self_times_ns(spans);
    let mut out = format!("{{\"workload\": \"{workload}\", \"spans\": [\n");
    for (i, (span, own_ns)) in spans.iter().zip(&own).enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own_ns}, \
             \"parent\": {parent}, \"round\": {}, \"query\": {}}}",
            span.name, span.start_ns, span.end_ns, span.round, span.query
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: 0,
            query: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span("round", 0, 100, None),
            span("query", 10, 50, Some(0)),
            span("execute", 20, 45, Some(1)),
            span("serialize", 50, 90, Some(0)),
        ];
        // round: 100 - (40 + 40); query: 40 - 25; leaves keep their duration.
        assert_eq!(self_times_ns(&spans), vec![20, 15, 25, 40]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn the_tracer_records_parents_in_call_order_and_nothing_when_off() {
        let mut t = Tracer::new(true, Instant::now());
        t.round = 3;
        let v = t.span("outer", 0, |t| {
            t.span("first", 8, |_| ());
            t.span("second", 9, |_| 41) + 1
        });
        assert_eq!(v, 42);
        let names: Vec<_> = t
            .spans
            .iter()
            .map(|s| (s.name, s.parent, s.query))
            .collect();
        assert_eq!(
            names,
            vec![
                ("outer", None, 0),
                ("first", Some(0), 8),
                ("second", Some(0), 9)
            ]
        );
        assert!(t
            .spans
            .iter()
            .all(|s| s.round == 3 && s.end_ns >= s.start_ns));
        assert!(t.spans[1].end_ns <= t.spans[2].start_ns);

        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("x", 0, |_| 5), 5);
        assert!(off.spans.is_empty());
    }

    #[test]
    fn readings_are_summed_per_round() {
        let sums = sum_by_round([(1, 2.0), (0, 1.0), (1, 0.5)].into_iter());
        assert_eq!(sums, vec![1.0, 2.5]);
    }
}
