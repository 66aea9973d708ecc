//! The residency model every simulator shares: resident pages,
//! outstanding prefetches, and the rules that decide what became of
//! each prefetch.
//!
//! `Simulator`, each node of `hnp-systems`' disaggregated cluster and
//! its UVM device each keep one [`Residency`]. Timing stays with the
//! driver — when a transfer is due, how long a demand stalls, whether
//! the link keeps a transfer — while the outcome of every prefetch is
//! decided here, once:
//!
//! * `Useful` — the first demand for a prefetched page that has landed;
//! * `Late` — a demand for a page whose prefetch is still in flight;
//! * `Unused` — any insert, a landing or a demand fill, that evicts a
//!   prefetched page nobody demanded; the event names the evicted page;
//! * `Cancelled` — a transfer the link lost (discovered when it was
//!   due, or by a demand for it), or one a crash or a connection reset
//!   cancelled.
//!
//! Every event goes out through one [`Dispatch`], which folds it into
//! the driver's report, tells the model what its hooks take and mirrors
//! it to observers.

use std::collections::BTreeSet;

use hnp_obs::{Event, FaultKind, FeedbackKind, Registry};

use crate::ledger::PrefetchLedger;
use crate::memory::LocalMemory;
use crate::prefetcher::Prefetcher;

/// A run report derived from the event stream: its counters change
/// only here, so any observer folding the same stream (e.g.
/// `hnp_obs::Counters`) reproduces them exactly.
pub trait EventFold {
    /// Folds one event into the counters.
    fn apply(&mut self, ev: &Event);
}

/// The one event path of every simulator: fold the event into the
/// report, tell the model, mirror it to observers — in that order.
pub struct Dispatch<'a, R> {
    /// Observers the events are mirrored to.
    pub obs: &'a Registry,
    /// The report the events fold into.
    pub report: &'a mut R,
    /// The model the events reach.
    pub model: &'a mut dyn Prefetcher,
}

impl<R: EventFold> Dispatch<'_, R> {
    /// Sends one event. The model hears what its hooks take: hits,
    /// outcomes and crashes (misses reach it through `on_miss`). Issue
    /// decisions, the run's end and faults below its horizon — retries,
    /// timeouts, transfers lost on the link — only observers see; the
    /// model learns of the last through the `Cancelled` outcomes they
    /// cause.
    // Inlined into each call site, where the event's kind is known and
    // both `match`es fold away; as one shared call it cost `Simulator`
    // about 10 % per access.
    #[inline(always)]
    pub fn send(&mut self, ev: Event) {
        self.report.apply(&ev);
        if matches!(
            ev,
            Event::Hit { .. }
                | Event::Feedback { .. }
                | Event::Fault {
                    kind: FaultKind::Crash,
                    ..
                }
        ) {
            self.model.on_event(&ev);
        }
        self.obs.emit(&ev);
    }
}

/// What a demand access found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Resident; `Hit` was sent, after `Useful` on a prefetch's first
    /// demand.
    Hit,
    /// Neither resident nor outstanding.
    Miss,
    /// Its prefetch is in flight and lands at `arrival`; `Late` was
    /// sent.
    Late {
        /// The transfer's due tick.
        arrival: u64,
    },
    /// Its transfer was lost on the link and was due at `arrival`;
    /// `Cancelled` was sent.
    Lost {
        /// The transfer's due tick.
        arrival: u64,
    },
}

/// The driver's verdict on a candidate that passed the filter.
#[derive(Debug, Clone, Copy)]
pub enum Admit {
    /// In flight, due at `arrival`: `PrefetchIssued`.
    Issue {
        /// Tick at which the page lands.
        arrival: u64,
    },
    /// Sent, but lost on the link: the dead transfer holds its slot
    /// until `arrival`, where it is `Cancelled`.
    Lose {
        /// Tick at which the loss is discovered.
        arrival: u64,
    },
    /// Refused before it left: `PrefetchDropped`.
    Drop,
    /// Lost as it left: `Cancelled` at once.
    Cancel,
}

/// Resident pages, outstanding transfers and the outcome rules (see
/// the module docs).
pub struct Residency {
    memory: LocalMemory,
    inflight: PrefetchLedger,
    /// The outstanding transfers the link already lost. They stay in
    /// `inflight` until due — holding their slot and `max_inflight`
    /// budget, and keeping the page from being issued twice — and are
    /// `Cancelled` there instead of landing.
    lost: BTreeSet<u64>,
}

// The hot methods are `#[inline]`: `Simulator`'s loop is mostly calls
// to them, and as calls into another codegen unit it ran about 7 %
// slower per access.
impl Residency {
    /// An empty residency over a local memory of `capacity` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self {
            memory: LocalMemory::new(capacity),
            inflight: PrefetchLedger::new(),
            lost: BTreeSet::new(),
        }
    }

    /// Outstanding transfers, lost ones included.
    #[inline]
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Lands every transfer due at or before `now`, in page order (the
    /// ledger's drain contract). A live transfer becomes resident; a
    /// lost one is `Cancelled`.
    #[inline]
    pub fn land_due<R: EventFold>(&mut self, now: u64, out: &mut Dispatch<'_, R>) {
        let Self {
            memory,
            inflight,
            lost,
        } = self;
        inflight.drain_due(now, |page| {
            if !lost.is_empty() && lost.remove(&page) {
                out.send(feedback(now, page, FeedbackKind::Cancelled, 0));
            } else {
                insert(memory, page, true, now, out);
            }
        });
    }

    /// A demand for `page` at `now`. A resident page is touched; an
    /// outstanding transfer of the page leaves the ledger.
    #[inline]
    pub fn access<R: EventFold>(
        &mut self,
        page: u64,
        now: u64,
        out: &mut Dispatch<'_, R>,
    ) -> Access {
        if let Some(before) = self.memory.touch(page) {
            if before.prefetched && !before.touched {
                out.send(feedback(now, page, FeedbackKind::Useful, 0));
            }
            out.send(Event::Hit { tick: now, page });
            return Access::Hit;
        }
        let Some(arrival) = self.inflight.take(page) else {
            return Access::Miss;
        };
        if self.lost.remove(&page) {
            out.send(feedback(now, page, FeedbackKind::Cancelled, 0));
            Access::Lost { arrival }
        } else {
            let remaining = arrival.saturating_sub(now);
            out.send(feedback(now, page, FeedbackKind::Late, remaining));
            Access::Late { arrival }
        }
    }

    /// Makes a demanded page resident at `now` and marks it demanded;
    /// `late` marks a page its prefetch brought in.
    #[inline]
    pub fn fill<R: EventFold>(
        &mut self,
        page: u64,
        late: bool,
        now: u64,
        out: &mut Dispatch<'_, R>,
    ) {
        insert(&mut self.memory, page, late, now, out);
        self.memory.touch(page);
    }

    /// The one candidate filter. Takes at most `max_per_miss` of
    /// `candidates` into flight, skipping pages already resident or
    /// outstanding; once `max_inflight` transfers are outstanding the
    /// rest are `PrefetchDropped`. `admit` gives each remaining
    /// candidate's fate; those that leave ([`Admit::Issue`],
    /// [`Admit::Lose`]) count against `max_per_miss`.
    #[inline]
    pub fn offer<R: EventFold>(
        &mut self,
        candidates: Vec<u64>,
        max_per_miss: usize,
        max_inflight: usize,
        now: u64,
        out: &mut Dispatch<'_, R>,
        mut admit: impl FnMut(u64, &mut Dispatch<'_, R>) -> Admit,
    ) {
        let mut accepted = 0;
        for page in candidates {
            if accepted >= max_per_miss {
                break;
            }
            if self.memory.contains(page) || self.inflight.contains(page) {
                continue;
            }
            if self.inflight.len() >= max_inflight {
                out.send(Event::PrefetchDropped { tick: now, page });
                continue;
            }
            match admit(page, out) {
                Admit::Issue { arrival } => {
                    self.inflight.issue(page, arrival);
                    out.send(Event::PrefetchIssued {
                        tick: now,
                        page,
                        arrival,
                    });
                }
                Admit::Lose { arrival } => {
                    self.inflight.issue(page, arrival);
                    self.lost.insert(page);
                }
                Admit::Drop => {
                    out.send(Event::PrefetchDropped { tick: now, page });
                    continue;
                }
                Admit::Cancel => {
                    out.send(feedback(now, page, FeedbackKind::Cancelled, 0));
                    continue;
                }
            }
            accepted += 1;
        }
    }

    /// Cancels every outstanding transfer, live or lost, in page order
    /// (a connection reset after a timeout; local memory survives).
    pub fn cancel_all<R: EventFold>(&mut self, now: u64, out: &mut Dispatch<'_, R>) {
        self.lost.clear();
        self.inflight
            .drain_all(|page| out.send(feedback(now, page, FeedbackKind::Cancelled, 0)));
    }

    /// A crash: every outstanding transfer is cancelled and local
    /// memory is lost.
    pub fn crash<R: EventFold>(&mut self, now: u64, out: &mut Dispatch<'_, R>) {
        self.cancel_all(now, out);
        self.memory.flush();
    }
}

/// Inserts `page`; evicting a prefetched page nobody demanded is
/// `Unused`, naming the evicted page.
#[inline]
fn insert<R: EventFold>(
    memory: &mut LocalMemory,
    page: u64,
    prefetched: bool,
    now: u64,
    out: &mut Dispatch<'_, R>,
) {
    if let Some((victim, meta)) = memory.insert(page, prefetched) {
        if meta.prefetched && !meta.touched {
            out.send(feedback(now, victim, FeedbackKind::Unused, 0));
        }
    }
}

#[inline]
fn feedback(tick: u64, page: u64, kind: FeedbackKind, remaining: u64) -> Event {
    Event::Feedback {
        tick,
        page,
        kind,
        remaining,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetcher::NoPrefetcher;

    impl EventFold for Vec<Event> {
        fn apply(&mut self, ev: &Event) {
            self.push(ev.clone());
        }
    }

    fn fb(page: u64, kind: FeedbackKind) -> (u64, FeedbackKind) {
        (page, kind)
    }

    /// The `(page, kind)` of every outcome in `events`.
    fn outcomes(events: &[Event]) -> Vec<(u64, FeedbackKind)> {
        events
            .iter()
            .filter_map(|ev| match *ev {
                Event::Feedback { page, kind, .. } => Some((page, kind)),
                _ => None,
            })
            .collect()
    }

    fn issue(res: &mut Residency, pages: &[u64], arrival: u64, out: &mut Dispatch<'_, Vec<Event>>) {
        res.offer(pages.to_vec(), usize::MAX, usize::MAX, 0, out, |_, _| {
            Admit::Issue { arrival }
        });
    }

    #[test]
    fn landing_eviction_names_the_victim() {
        let (obs, mut events, mut model) = (Registry::new(), Vec::new(), NoPrefetcher);
        let mut out = Dispatch {
            obs: &obs,
            report: &mut events,
            model: &mut model,
        };
        let mut res = Residency::new(1);
        issue(&mut res, &[7], 5, &mut out);
        res.land_due(5, &mut out);
        issue(&mut res, &[9], 10, &mut out);
        res.land_due(10, &mut out);
        assert_eq!(outcomes(out.report), vec![fb(7, FeedbackKind::Unused)]);
    }

    #[test]
    fn demand_fill_eviction_is_unused_and_first_demand_useful() {
        let (obs, mut events, mut model) = (Registry::new(), Vec::new(), NoPrefetcher);
        let mut out = Dispatch {
            obs: &obs,
            report: &mut events,
            model: &mut model,
        };
        let mut res = Residency::new(2);
        issue(&mut res, &[1, 2], 5, &mut out);
        res.land_due(5, &mut out);
        assert_eq!(res.access(1, 6, &mut out), Access::Hit);
        assert_eq!(res.access(1, 7, &mut out), Access::Hit);
        assert_eq!(res.access(3, 8, &mut out), Access::Miss);
        res.fill(3, false, 8, &mut out);
        assert_eq!(
            outcomes(out.report),
            vec![fb(1, FeedbackKind::Useful), fb(2, FeedbackKind::Unused)]
        );
    }

    #[test]
    fn in_flight_demand_is_late_and_lost_transfers_cancel() {
        let (obs, mut events, mut model) = (Registry::new(), Vec::new(), NoPrefetcher);
        let mut out = Dispatch {
            obs: &obs,
            report: &mut events,
            model: &mut model,
        };
        let mut res = Residency::new(4);
        issue(&mut res, &[1], 50, &mut out);
        res.offer(vec![2, 3], usize::MAX, usize::MAX, 0, &mut out, |_, _| {
            Admit::Lose { arrival: 50 }
        });
        assert_eq!(res.in_flight(), 3);
        assert_eq!(res.access(1, 10, &mut out), Access::Late { arrival: 50 });
        assert_eq!(res.access(2, 10, &mut out), Access::Lost { arrival: 50 });
        res.land_due(50, &mut out);
        assert_eq!(res.in_flight(), 0);
        assert!(matches!(
            out.report.iter().find(|ev| matches!(
                ev,
                Event::Feedback {
                    kind: FeedbackKind::Late,
                    ..
                }
            )),
            Some(Event::Feedback { remaining: 40, .. })
        ));
        assert_eq!(
            outcomes(out.report),
            vec![
                fb(1, FeedbackKind::Late),
                fb(2, FeedbackKind::Cancelled),
                fb(3, FeedbackKind::Cancelled)
            ]
        );
    }

    #[test]
    fn filter_caps_skips_and_drops() {
        let (obs, mut events, mut model) = (Registry::new(), Vec::new(), NoPrefetcher);
        let mut out = Dispatch {
            obs: &obs,
            report: &mut events,
            model: &mut model,
        };
        let mut res = Residency::new(4);
        res.fill(1, false, 0, &mut out);
        issue(&mut res, &[2], 9, &mut out);
        out.report.clear();
        let to_9 = |_: u64, _: &mut Dispatch<'_, Vec<Event>>| Admit::Issue { arrival: 9 };
        // 1 is resident and 2 outstanding; the per-miss cap of two
        // stops after 4.
        res.offer(vec![1, 2, 3, 4, 5], 2, 8, 0, &mut out, to_9);
        // Three are outstanding: 6 takes the last slot, 7 drops.
        res.offer(vec![6, 7], 2, 4, 0, &mut out, to_9);
        let issued = |page| Event::PrefetchIssued {
            tick: 0,
            page,
            arrival: 9,
        };
        assert_eq!(
            *out.report,
            vec![
                issued(3),
                issued(4),
                issued(6),
                Event::PrefetchDropped { tick: 0, page: 7 },
            ]
        );
        res.crash(1, &mut out);
        assert_eq!(res.in_flight(), 0);
        assert_eq!(res.access(1, 2, &mut out), Access::Miss, "memory flushed");
    }
}
