//! In-memory span recording around layer calls, and the order statistics
//! the benchmark reports.

use std::time::Instant;

/// One recorded span: a root (`"setup"` or `"pass"`) or a call into one
/// layer's public functions, named `<layer>.<call>`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>` for layer calls; `"setup"` / `"pass"` for roots.
    pub name: &'static str,
    /// Pass id (0 for set-up spans, 1.. for timed passes).
    pub pass: u32,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span in [`Recorder::spans`], if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer the span belongs to.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        layer_of(self.name)
    }
}

/// The layer of a span name: the part before the first dot.
#[must_use]
pub fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

/// Records spans while `traced`; otherwise [`Recorder::span`] only calls
/// through, so an untraced pass pays nothing for the call sites.
#[derive(Debug)]
pub struct Recorder {
    traced: bool,
    origin: Instant,
    pass: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder with tracing on or off.
    #[must_use]
    pub fn new(traced: bool) -> Self {
        Recorder {
            traced,
            origin: Instant::now(),
            pass: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_traced(&mut self, traced: bool) {
        self.traced = traced;
    }

    /// Tags the spans that follow with pass id `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.traced {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            pass: self.pass,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children covers. Children may overlap each
/// other (concurrent calls); overlapping time is subtracted once.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail of a sample: the highest whole percentile (nearest rank, at
/// least the 50th) that has at least [`Tail::MIN_BEYOND`] samples beyond
/// it; the median when the sample is too small for that.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: u32,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly beyond it. Below [`Tail::MIN_BEYOND`] only when
    /// the sample is too small for any tail: then the tail is the median.
    pub beyond: usize,
}

impl Tail {
    /// Samples a tail percentile must have beyond it.
    pub const MIN_BEYOND: usize = 10;

    /// The tail of `values`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    #[must_use]
    pub fn of(values: &[f64]) -> Tail {
        let s = sorted(values);
        let n = s.len();
        assert!(n > 0, "tail of nothing");
        let at = |p: u32| {
            // Nearest rank: the smallest rank covering p% of the sample.
            let rank = (p as usize * n).div_ceil(100).max(1);
            Tail {
                percentile: p,
                value: s[rank - 1],
                beyond: n - rank,
            }
        };
        (50..100)
            .rev()
            .map(at)
            .find(|t| t.beyond >= Self::MIN_BEYOND)
            .unwrap_or(Tail {
                percentile: 50,
                value: median(&s),
                beyond: n / 2,
            })
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            pass: 1,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let fifty: Vec<f64> = (1..=50).map(f64::from).collect();
        let t = Tail::of(&fifty);
        assert_eq!((t.percentile, t.value, t.beyond), (80, 40.0, 10));

        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = Tail::of(&hundred);
        assert_eq!((t.percentile, t.value, t.beyond), (90, 90.0, 10));

        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = Tail::of(&twenty);
        assert_eq!((t.percentile, t.value, t.beyond), (50, 10.0, 10));
    }

    #[test]
    fn small_samples_fall_back_to_the_median() {
        let t = Tail::of(&[3.0, 1.0, 2.0, 5.0, 4.0]);
        assert_eq!((t.percentile, t.value, t.beyond), (50, 3.0, 2));
        let t = Tail::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((t.percentile, t.value, t.beyond), (50, 2.5, 2));
        assert_eq!(Tail::of(&[7.0]).beyond, 0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = [
            span("pass", 0, 100, None),
            span("a.x", 10, 40, Some(0)),
            span("b.y", 30, 60, Some(0)),  // overlaps a.x on [30, 40)
            span("c.z", 50, 55, Some(0)),  // inside b.y
            span("d.w", 90, 120, Some(0)), // runs past the parent's end
        ];
        let own = self_times(&spans);
        // Covered: [10, 60) ∪ [90, 100) = 60 ns of the parent's 100.
        assert_eq!(own, vec![40, 30, 30, 5, 30]);
    }

    #[test]
    fn self_time_of_nested_spans() {
        let spans = [
            span("pass", 0, 100, None),
            span("a.x", 0, 80, Some(0)),
            span("b.y", 20, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 30]);
    }

    #[test]
    fn recorder_nests_spans_and_stays_silent_untraced() {
        let mut rec = Recorder::new(true);
        rec.set_pass(3);
        let v = rec.span("pass", |rec| rec.span("isa.run", |_| 7));
        assert_eq!(v, 7);
        let s = rec.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert_eq!((s[1].pass, s[1].layer()), (3, "isa"));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Recorder::new(false);
        off.span("pass", |rec| rec.span("isa.run", |_| ()));
        assert!(off.spans().is_empty());
    }
}
