//! The prefetcher interface.
//!
//! Prefetchers consume the demand-miss stream (the paper's Fig.-1
//! deployment: "the prefetcher is fed by the miss history") and emit
//! candidate pages to fetch ahead of demand. Feedback callbacks carry
//! the simulator's accounting so that learned prefetchers can track
//! their own accuracy/confidence (§5.1, §5.5).
//!
//! Since the observability redesign, simulators notify prefetchers
//! through the single [`Prefetcher::on_event`] dispatch point; the
//! per-channel hooks (`on_hit`/`on_feedback`/`on_fault`) remain the
//! implementation surface and are routed to by the default
//! `on_event`.

use hnp_obs::{Event, FeedbackKind};

/// A demand miss delivered to the prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissEvent {
    /// Missing page number.
    pub page: u64,
    /// Simulator tick at which the miss occurred.
    pub tick: u64,
    /// Source stream (for interleaved traces).
    pub stream: u16,
}

/// Outcome feedback for an issued prefetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchFeedback {
    /// The prefetched page was demanded while resident.
    Useful {
        /// The page.
        page: u64,
    },
    /// The page was demanded while still in flight (late prefetch).
    Late {
        /// The page.
        page: u64,
        /// Ticks the demand still had to wait.
        remaining: u64,
    },
    /// The page was evicted without ever being demanded (pollution).
    Unused {
        /// The page.
        page: u64,
    },
    /// The prefetch was cancelled in flight by a fault (dropped
    /// transfer, node crash) and never arrived.
    Cancelled {
        /// The page.
        page: u64,
    },
}

/// A memory prefetcher.
///
/// Implementations must be deterministic given their construction
/// seed; the simulator calls them single-threaded.
pub trait Prefetcher {
    /// Short display name for reports.
    fn name(&self) -> &str;

    /// Reacts to a demand miss; returns pages to prefetch, most
    /// confident first. The simulator applies bandwidth limits and
    /// drops duplicates/resident pages.
    fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64>;

    /// Optional: observes demand hits (some baselines train on the
    /// full access stream).
    fn on_hit(&mut self, _page: u64, _tick: u64) {}

    /// Optional: receives prefetch outcome feedback.
    fn on_feedback(&mut self, _feedback: &PrefetchFeedback) {}

    /// Drops transient per-run state (stream histories, recurrent
    /// state, pending confidence) while keeping learned weights.
    /// Called when the node hosting the prefetcher restarts; the
    /// default is a no-op for stateless prefetchers.
    fn reset_state(&mut self) {}

    /// Notifies the prefetcher that a fault hit its node at `tick`
    /// (crash/restart). The default drops transient state via
    /// [`Prefetcher::reset_state`].
    fn on_fault(&mut self, _tick: u64) {
        self.reset_state();
    }

    /// The unified notification entry point: simulators deliver every
    /// observable occurrence through this one dispatch method instead
    /// of calling the per-channel hooks at scattered sites. The
    /// default routes [`Event::Hit`], [`Event::Feedback`], and
    /// [`Event::Fault`] to the legacy hooks and ignores everything
    /// else, so existing implementations keep working unchanged.
    fn on_event(&mut self, ev: &Event) {
        match *ev {
            Event::Hit { tick, page } => self.on_hit(page, tick),
            Event::Feedback {
                page,
                kind,
                remaining,
                ..
            } => {
                let fb = match kind {
                    FeedbackKind::Useful => PrefetchFeedback::Useful { page },
                    FeedbackKind::Late => PrefetchFeedback::Late { page, remaining },
                    FeedbackKind::Unused => PrefetchFeedback::Unused { page },
                    FeedbackKind::Cancelled => PrefetchFeedback::Cancelled { page },
                };
                self.on_feedback(&fb);
            }
            Event::Fault { tick, .. } => self.on_fault(tick),
            _ => {}
        }
    }
}

/// Boxed prefetchers forward the trait, so wrappers generic over
/// `P: Prefetcher` (e.g. `ResilientPrefetcher`) compose with dynamic
/// dispatch.
impl Prefetcher for Box<dyn Prefetcher> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
        (**self).on_miss(miss)
    }

    fn on_hit(&mut self, page: u64, tick: u64) {
        (**self).on_hit(page, tick)
    }

    fn on_feedback(&mut self, feedback: &PrefetchFeedback) {
        (**self).on_feedback(feedback)
    }

    fn reset_state(&mut self) {
        (**self).reset_state()
    }

    fn on_fault(&mut self, tick: u64) {
        (**self).on_fault(tick)
    }

    fn on_event(&mut self, ev: &Event) {
        (**self).on_event(ev)
    }
}

/// Routes each stream's misses to a private sub-prefetcher built on
/// demand.
///
/// A centralized prefetcher (the UVM driver, or a shared model at a
/// disaggregated switch) sees all nodes' access streams interleaved;
/// §4 of the paper notes it "may require more processing to ensure
/// that it can isolate the individual access patterns in the combined
/// access streams". This wrapper is the straightforward isolation: one
/// model instance per stream, centrally placed — trading the switch's
/// memory for per-stream pattern fidelity.
pub struct DemuxPrefetcher {
    make: Box<dyn FnMut(u16) -> Box<dyn Prefetcher>>,
    subs: std::collections::BTreeMap<u16, Box<dyn Prefetcher>>,
    name: String,
}

impl DemuxPrefetcher {
    /// Creates a demultiplexer; `make` builds the sub-prefetcher for
    /// each new stream id.
    pub fn new(name: &str, make: impl FnMut(u16) -> Box<dyn Prefetcher> + 'static) -> Self {
        Self {
            make: Box::new(make),
            subs: std::collections::BTreeMap::new(),
            name: format!("demux({name})"),
        }
    }
}

impl Prefetcher for DemuxPrefetcher {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
        let sub = self
            .subs
            .entry(miss.stream)
            .or_insert_with(|| (self.make)(miss.stream));
        sub.on_miss(miss)
    }

    fn reset_state(&mut self) {
        for sub in self.subs.values_mut() {
            sub.reset_state();
        }
    }
}

/// The no-op baseline: never prefetches. Runs establish the
/// miss baseline against which "% misses removed" (Fig. 5) is
/// computed.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoPrefetcher;

impl Prefetcher for NoPrefetcher {
    fn name(&self) -> &str {
        "none"
    }

    fn on_miss(&mut self, _miss: &MissEvent) -> Vec<u64> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_prefetcher_returns_nothing() {
        let mut p = NoPrefetcher;
        let miss = MissEvent {
            page: 42,
            tick: 0,
            stream: 0,
        };
        assert!(p.on_miss(&miss).is_empty());
        assert_eq!(p.name(), "none");
    }

    /// A next-line sub-prefetcher that also counts its misses.
    struct Counting(u64);
    impl Prefetcher for Counting {
        fn name(&self) -> &str {
            "counting"
        }
        fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
            self.0 += 1;
            vec![miss.page + 1]
        }
    }

    #[test]
    fn demux_builds_one_sub_per_stream_and_routes() {
        let mut d = DemuxPrefetcher::new("counting", |_| Box::new(Counting(0)));
        for (page, stream) in [(10u64, 0u16), (20, 1), (11, 0), (30, 2)] {
            let out = d.on_miss(&MissEvent {
                page,
                tick: 0,
                stream,
            });
            assert_eq!(out, vec![page + 1]);
        }
        assert_eq!(d.subs.len(), 3);
        assert_eq!(d.name(), "demux(counting)");
    }
}
