//! In-memory spans recorded around calls into each layer, and the
//! timing wrapper that puts a span around every model call.
//!
//! A root span covers one driver call (`Simulator::run`, `UvmSim::run`,
//! `ServeEngine::run`); child spans cover the calls the driver makes
//! into the model behind `Prefetcher`. Spans stay in memory and are
//! folded into per-layer numbers once the traced pass ends. A layer's
//! self time is its span minus the spans of its children.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use hnp_memsim::{MissEvent, PrefetchFeedback, Prefetcher};
use hnp_obs::Event;

/// Span name of a `Prefetcher::on_miss` call.
pub const ON_MISS: &str = "model.on_miss";
/// Span name of a `Prefetcher::on_event` call (and of the serve
/// tenant model's `on_feedback`, its only notification path).
pub const ON_EVENT: &str = "model.on_event";

/// One recorded span: nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span was taken at.
    pub name: &'static str,
    /// Index of the span that caused this one (`None` for a root).
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

struct Buf {
    origin: Instant,
    spans: Vec<Span>,
    open_root: Option<usize>,
}

/// A cloneable handle on one span buffer.
#[derive(Clone)]
pub struct Tracer(Rc<RefCell<Buf>>);

impl Tracer {
    /// An empty buffer whose clock starts now.
    pub fn new() -> Self {
        Self(Rc::new(RefCell::new(Buf {
            origin: Instant::now(),
            spans: Vec::new(),
            open_root: None,
        })))
    }

    fn now(&self) -> u64 {
        self.0.borrow().origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a root span and returns its result with the
    /// span's duration in ns.
    pub fn root<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let start = self.now();
        let idx = {
            let mut b = self.0.borrow_mut();
            b.spans.push(Span {
                name,
                parent: None,
                start,
                end: start,
            });
            let idx = b.spans.len() - 1;
            b.open_root = Some(idx);
            idx
        };
        let out = f();
        let end = self.now();
        let mut b = self.0.borrow_mut();
        b.spans[idx].end = end;
        b.open_root = None;
        (out, end - start)
    }

    /// Runs `f` inside a child span of the open root span.
    pub fn child<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let out = f();
        let end = self.now();
        let mut b = self.0.borrow_mut();
        let parent = b.open_root;
        b.spans.push(Span {
            name,
            parent,
            start,
            end,
        });
        out
    }

    /// Hands over every recorded span and empties the buffer.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.0.borrow_mut().spans)
    }
}

/// Per-layer totals folded from one traced pass.
#[derive(Debug, Default, Clone)]
pub struct Fold {
    /// Root (driver) span time, ns.
    pub root_ns: u64,
    /// Child (model) span time, ns.
    pub child_ns: u64,
    /// Durations of every `on_miss` span, ns.
    pub on_miss_ns: Vec<u64>,
    /// `on_event` spans recorded.
    pub on_event_calls: u64,
    /// Their total time, ns.
    pub on_event_ns: u64,
}

impl Fold {
    /// Folds `spans`: roots are driver time, children model time.
    pub fn of(spans: &[Span]) -> Self {
        let mut f = Fold::default();
        for s in spans {
            if s.parent.is_none() {
                f.root_ns += s.ns();
                continue;
            }
            f.child_ns += s.ns();
            match s.name {
                ON_MISS => f.on_miss_ns.push(s.ns()),
                ON_EVENT => {
                    f.on_event_calls += 1;
                    f.on_event_ns += s.ns();
                }
                _ => {}
            }
        }
        f
    }

    /// Driver self time: root spans minus the model spans inside them.
    pub fn self_ns(&self) -> u64 {
        self.root_ns.saturating_sub(self.child_ns)
    }
}

/// Puts a child span around every model call and forwards every
/// `Prefetcher` method to the inner model, so a wrapped run reports
/// exactly what a bare one does.
pub struct Timed<P: Prefetcher> {
    inner: P,
    tracer: Tracer,
}

impl<P: Prefetcher> Timed<P> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: P, tracer: Tracer) -> Self {
        Self { inner, tracer }
    }
}

impl<P: Prefetcher> Prefetcher for Timed<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
        let inner = &mut self.inner;
        self.tracer.child(ON_MISS, || inner.on_miss(miss))
    }

    fn on_hit(&mut self, page: u64, tick: u64) {
        self.inner.on_hit(page, tick)
    }

    fn on_feedback(&mut self, feedback: &PrefetchFeedback) {
        self.inner.on_feedback(feedback)
    }

    fn reset_state(&mut self) {
        self.inner.reset_state()
    }

    fn on_fault(&mut self, tick: u64) {
        self.inner.on_fault(tick)
    }

    fn on_event(&mut self, ev: &Event) {
        let inner = &mut self.inner;
        self.tracer.child(ON_EVENT, || inner.on_event(ev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnp_obs::FeedbackKind;

    /// Counts every notification it receives, by channel.
    #[derive(Default)]
    struct Probe {
        hits: u64,
        feedback: u64,
        resets: u64,
    }

    impl Prefetcher for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
            vec![miss.page + 1]
        }
        fn on_hit(&mut self, _page: u64, _tick: u64) {
            self.hits += 1;
        }
        fn on_feedback(&mut self, _fb: &PrefetchFeedback) {
            self.feedback += 1;
        }
        fn reset_state(&mut self) {
            self.resets += 1;
        }
    }

    #[test]
    fn wrapper_forwards_every_channel_and_records_spans() {
        let tracer = Tracer::new();
        let mut t = Timed::new(Probe::default(), tracer.clone());
        let ((), _) = tracer.root("driver", || {
            let miss = MissEvent {
                page: 7,
                tick: 0,
                stream: 0,
            };
            assert_eq!(t.on_miss(&miss), vec![8]);
            t.on_event(&Event::Hit { tick: 1, page: 8 });
            t.on_event(&Event::Feedback {
                tick: 2,
                page: 8,
                kind: FeedbackKind::Useful,
                remaining: 0,
            });
            t.reset_state();
            t.on_fault(3);
        });
        assert_eq!(t.inner.hits, 1);
        assert_eq!(t.inner.feedback, 1);
        assert_eq!(
            t.inner.resets, 2,
            "reset_state and on_fault both reach the model"
        );
        let fold = Fold::of(&tracer.take());
        assert_eq!(fold.on_miss_ns.len(), 1);
        assert_eq!(fold.on_event_calls, 2);
        assert!(fold.root_ns >= fold.child_ns);
    }
}
