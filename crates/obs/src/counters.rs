//! The counter sink: event counts keyed by kind and sub-kind.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::event::{Event, FaultKind, FeedbackKind};
use crate::observer::Observer;

/// Counts events by kind, with per-outcome sub-keys for misses
/// (`miss_full`/`miss_late`), feedback (`feedback_useful`, ...) and
/// faults (`fault_crash`, ...), plus two accumulators: `stall_ticks`
/// (total miss stall) and `ticks` (final clock, from
/// [`Event::RunEnd`]).
///
/// The sink is a cloneable handle: attach one clone to a [`Registry`]
/// (via [`Registry::attach`]) and read the other after the run.
///
/// [`Registry`]: crate::Registry
/// [`Registry::attach`]: crate::Registry::attach
#[derive(Clone, Default)]
pub struct Counters {
    inner: Rc<RefCell<BTreeMap<&'static str, u64>>>,
}

impl Counters {
    /// An empty counter sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The count under `key`: an event kind's name (`"miss"`) or a sub-key.
    pub fn get(&self, key: &str) -> u64 {
        self.inner
            .try_borrow()
            .ok()
            .and_then(|m| m.get(key).copied())
            .unwrap_or(0)
    }

    /// All non-zero counters, sorted by key.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        self.inner
            .try_borrow()
            .map(|m| m.iter().map(|(&k, &v)| (k, v)).collect())
            .unwrap_or_default()
    }

    fn bump(&self, key: &'static str, by: u64) {
        if let Ok(mut m) = self.inner.try_borrow_mut() {
            *m.entry(key).or_insert(0) += by;
        }
    }

    fn set(&self, key: &'static str, value: u64) {
        if let Ok(mut m) = self.inner.try_borrow_mut() {
            m.insert(key, value);
        }
    }
}

impl Observer for Counters {
    fn on_event(&mut self, ev: &Event) {
        self.bump(ev.kind().name(), 1);
        match *ev {
            Event::Miss { late, stall, .. } => {
                self.bump(if late { "miss_late" } else { "miss_full" }, 1);
                self.bump("stall_ticks", stall);
            }
            Event::Feedback { kind, .. } => {
                let key = match kind {
                    FeedbackKind::Useful => "feedback_useful",
                    FeedbackKind::Late => "feedback_late",
                    FeedbackKind::Unused => "feedback_unused",
                    FeedbackKind::Cancelled => "feedback_cancelled",
                };
                self.bump(key, 1);
            }
            Event::Fault { kind, .. } => {
                let key = match kind {
                    FaultKind::Crash => "fault_crash",
                    FaultKind::Restart => "fault_restart",
                    FaultKind::Timeout => "fault_timeout",
                    FaultKind::Retry => "fault_retry",
                    FaultKind::Drop => "fault_drop",
                };
                self.bump(key, 1);
            }
            Event::ReplayStep { replayed, .. } => self.bump("replayed_episodes", replayed),
            Event::RunEnd { ticks, .. } => self.set("ticks", ticks),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::observer::Registry;

    #[test]
    fn counts_kinds_and_subkinds() {
        let reg = Registry::new();
        let c = Counters::new();
        reg.attach(c.clone());
        reg.emit(&Event::Hit { tick: 1, page: 1 });
        reg.emit(&Event::Miss {
            tick: 2,
            page: 2,
            late: false,
            stall: 100,
        });
        reg.emit(&Event::Miss {
            tick: 3,
            page: 3,
            late: true,
            stall: 40,
        });
        for kind in [
            FeedbackKind::Useful,
            FeedbackKind::Late,
            FeedbackKind::Unused,
            FeedbackKind::Cancelled,
        ] {
            reg.emit(&Event::Feedback {
                tick: 4,
                page: 2,
                kind,
                remaining: 0,
            });
        }
        for kind in [
            FaultKind::Crash,
            FaultKind::Restart,
            FaultKind::Timeout,
            FaultKind::Retry,
            FaultKind::Drop,
        ] {
            reg.emit(&Event::Fault {
                tick: 5,
                domain: 1,
                kind,
            });
        }
        reg.emit(&Event::RunEnd {
            ticks: 999,
            accesses: 3,
            hits: 1,
            misses: 2,
        });
        assert_eq!(c.get(EventKind::Hit.name()), 1);
        assert_eq!(c.get(EventKind::Miss.name()), 2);
        assert_eq!(c.get("miss_full"), 1);
        assert_eq!(c.get("miss_late"), 1);
        assert_eq!(c.get("stall_ticks"), 140);
        assert_eq!(c.get(EventKind::Feedback.name()), 4);
        for key in [
            "feedback_useful",
            "feedback_late",
            "feedback_unused",
            "feedback_cancelled",
        ] {
            assert_eq!(c.get(key), 1, "{key}");
        }
        assert_eq!(c.get(EventKind::Fault.name()), 5);
        for key in [
            "fault_crash",
            "fault_restart",
            "fault_timeout",
            "fault_retry",
            "fault_drop",
        ] {
            assert_eq!(c.get(key), 1, "{key}");
        }
        assert_eq!(c.get("ticks"), 999);
        assert_eq!(c.get("nonexistent"), 0);
    }

    #[test]
    fn snapshot_is_sorted_by_key() {
        let c = Counters::new();
        let mut sink = c.clone();
        sink.on_event(&Event::Hit { tick: 0, page: 0 });
        sink.on_event(&Event::RunEnd {
            ticks: 5,
            accesses: 1,
            hits: 1,
            misses: 0,
        });
        let snap = c.snapshot();
        let keys: Vec<&str> = snap.iter().map(|&(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }
}
