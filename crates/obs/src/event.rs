//! The typed event taxonomy (DESIGN.md §10.1).
//!
//! Events carry only integers, booleans, and `&'static str` labels so
//! that the stream itself obeys the workspace determinism and
//! integer-purity rules: fractional quantities (confidence, accuracy,
//! activation overlap) are scaled to thousandths and carried as
//! `*_milli` fields.

/// Outcome of an issued prefetch, mirrored from the simulator's
/// feedback channel (`memsim::PrefetchFeedback`) without the
/// dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FeedbackKind {
    /// Demanded while resident.
    Useful,
    /// Demanded while still in flight.
    Late,
    /// Evicted untouched (pollution).
    Unused,
    /// Cancelled in flight by a fault.
    Cancelled,
}

impl FeedbackKind {
    /// Stable lowercase label used in exports and counter keys.
    pub fn label(self) -> &'static str {
        match self {
            FeedbackKind::Useful => "useful",
            FeedbackKind::Late => "late",
            FeedbackKind::Unused => "unused",
            FeedbackKind::Cancelled => "cancelled",
        }
    }
}

/// What kind of fault the injector delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// A node/device crashed and lost local state.
    Crash,
    /// The crashed domain came back up.
    Restart,
    /// An outstanding transfer exceeded its deadline.
    Timeout,
    /// A failed operation was retried.
    Retry,
    /// A transfer was dropped in flight.
    Drop,
}

impl FaultKind {
    /// Stable lowercase label used in exports and counter keys.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Restart => "restart",
            FaultKind::Timeout => "timeout",
            FaultKind::Retry => "retry",
            FaultKind::Drop => "drop",
        }
    }
}

/// One observable simulator/model occurrence.
///
/// `tick` is the emitting component's simulated clock; `step` counts
/// training/inference steps where no shared clock exists. `domain`
/// identifies the node (disaggregated cluster) or device (UVM) an
/// event belongs to; single-node simulators use 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A demand access was served from resident memory.
    Hit {
        /// Simulated tick.
        tick: u64,
        /// Page number.
        page: u64,
    },
    /// A demand access missed. `late` marks a miss that caught an
    /// in-flight prefetch; `stall` is the latency charged.
    Miss {
        /// Simulated tick.
        tick: u64,
        /// Page number.
        page: u64,
        /// True when an in-flight prefetch partially covered the miss.
        late: bool,
        /// Stall ticks charged to the access.
        stall: u64,
    },
    /// The simulator accepted a prefetch candidate.
    PrefetchIssued {
        /// Simulated tick.
        tick: u64,
        /// Page number.
        page: u64,
        /// Tick at which the page becomes resident.
        arrival: u64,
    },
    /// A prefetch candidate was dropped at the bandwidth cap.
    PrefetchDropped {
        /// Simulated tick.
        tick: u64,
        /// Page number.
        page: u64,
    },
    /// Outcome feedback for an issued prefetch.
    Feedback {
        /// Simulated tick.
        tick: u64,
        /// Page number.
        page: u64,
        /// Outcome class.
        kind: FeedbackKind,
        /// For [`FeedbackKind::Late`]: residual wait ticks. 0 otherwise.
        remaining: u64,
    },
    /// A hippocampal replay batch was applied to the neocortex.
    ReplayStep {
        /// Training step at which replay ran.
        step: u64,
        /// Episodes replayed in this batch.
        replayed: u64,
        /// Episodes buffered and still awaiting replay (pressure).
        pressure: u64,
    },
    /// The phase detector switched clusters.
    PhaseTransition {
        /// Training step.
        step: u64,
        /// Previous phase id, or -1 before the first phase.
        from: i64,
        /// New phase id.
        to: i64,
        /// True when `to` was newly created.
        novel: bool,
    },
    /// A fault was injected (or a recovery action taken).
    Fault {
        /// Simulated tick.
        tick: u64,
        /// Node/device the fault hit.
        domain: u64,
        /// Fault class.
        kind: FaultKind,
    },
    /// The resilience wrapper moved along its degradation ladder.
    Degradation {
        /// Feedback-sequence position of the transition.
        at: u64,
        /// Previous health state label.
        from: &'static str,
        /// New health state label.
        to: &'static str,
    },
    /// Periodic model telemetry (confidence, replay, k-WTA activity).
    EpochSummary {
        /// Training step closing the epoch.
        step: u64,
        /// Confidence EMA, in thousandths.
        confidence_milli: u64,
        /// Windowed accuracy, in thousandths.
        accuracy_milli: u64,
        /// Cumulative episodes replayed.
        replayed: u64,
        /// Mean k-WTA winner overlap with the previous step, in
        /// thousandths of the active set.
        overlap_milli: u64,
        /// Cumulative integer weight-update operations.
        weight_ops: u64,
    },
    /// End of a run: closing totals.
    RunEnd {
        /// Final simulated tick.
        ticks: u64,
        /// Accesses replayed.
        accesses: u64,
        /// Demand hits.
        hits: u64,
        /// Demand misses (full + late).
        misses: u64,
    },
    /// The serving engine admitted a request into a shard queue.
    ServeEnqueue {
        /// Serving epoch at which the request arrived.
        epoch: u64,
        /// Tenant the request belongs to.
        tenant: u64,
        /// Shard the tenant hashes to.
        shard: u64,
        /// Queue depth after the enqueue.
        depth: u64,
    },
    /// Admission control shed a request at a full shard queue.
    ServeShed {
        /// Serving epoch at which the request arrived.
        epoch: u64,
        /// Tenant the request belongs to.
        tenant: u64,
        /// Shard whose queue was full.
        shard: u64,
    },
    /// A shard flushed a batch of queued requests to its worker.
    ServeFlush {
        /// Serving epoch of the flush.
        epoch: u64,
        /// Shard that flushed.
        shard: u64,
        /// Requests in the flushed batch.
        batch: u64,
    },
    /// Per-shard close of a serving epoch.
    ShardEpoch {
        /// Serving epoch just closed.
        epoch: u64,
        /// Shard reporting.
        shard: u64,
        /// Requests the shard processed this epoch.
        processed: u64,
        /// Requests still queued after the epoch.
        queued: u64,
    },
    /// A tenant model snapshot was taken — or restored on warm-start.
    Snapshot {
        /// Serving epoch of the snapshot action.
        epoch: u64,
        /// Tenant whose model was captured/restored.
        tenant: u64,
        /// Encoded snapshot size in bytes.
        bytes: u64,
        /// False for a capture, true for a warm-start restore.
        restored: bool,
    },
}

/// A single exported field value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Boolean.
    Bool(bool),
    /// Static label.
    Str(&'static str),
}

impl Event {
    /// Stable snake_case name: the export's `event` field and the
    /// counter key.
    pub fn name(&self) -> &'static str {
        match self {
            Event::Hit { .. } => "hit",
            Event::Miss { .. } => "miss",
            Event::PrefetchIssued { .. } => "prefetch_issued",
            Event::PrefetchDropped { .. } => "prefetch_dropped",
            Event::Feedback { .. } => "feedback",
            Event::ReplayStep { .. } => "replay_step",
            Event::PhaseTransition { .. } => "phase_transition",
            Event::Fault { .. } => "fault",
            Event::Degradation { .. } => "degradation",
            Event::EpochSummary { .. } => "epoch_summary",
            Event::RunEnd { .. } => "run_end",
            Event::ServeEnqueue { .. } => "serve_enqueue",
            Event::ServeShed { .. } => "serve_shed",
            Event::ServeFlush { .. } => "serve_flush",
            Event::ShardEpoch { .. } => "shard_epoch",
            Event::Snapshot { .. } => "snapshot",
        }
    }

    /// Flat `(name, value)` view of the payload, in declaration order —
    /// the single source of truth for both exporters.
    pub fn fields(&self) -> Vec<(&'static str, Field)> {
        match *self {
            Event::Hit { tick, page } => {
                vec![("tick", Field::U64(tick)), ("page", Field::U64(page))]
            }
            Event::Miss {
                tick,
                page,
                late,
                stall,
            } => vec![
                ("tick", Field::U64(tick)),
                ("page", Field::U64(page)),
                ("late", Field::Bool(late)),
                ("stall", Field::U64(stall)),
            ],
            Event::PrefetchIssued {
                tick,
                page,
                arrival,
            } => vec![
                ("tick", Field::U64(tick)),
                ("page", Field::U64(page)),
                ("arrival", Field::U64(arrival)),
            ],
            Event::PrefetchDropped { tick, page } => {
                vec![("tick", Field::U64(tick)), ("page", Field::U64(page))]
            }
            Event::Feedback {
                tick,
                page,
                kind,
                remaining,
            } => vec![
                ("tick", Field::U64(tick)),
                ("page", Field::U64(page)),
                ("outcome", Field::Str(kind.label())),
                ("remaining", Field::U64(remaining)),
            ],
            Event::ReplayStep {
                step,
                replayed,
                pressure,
            } => vec![
                ("step", Field::U64(step)),
                ("replayed", Field::U64(replayed)),
                ("pressure", Field::U64(pressure)),
            ],
            Event::PhaseTransition {
                step,
                from,
                to,
                novel,
            } => vec![
                ("step", Field::U64(step)),
                ("from", Field::I64(from)),
                ("to", Field::I64(to)),
                ("novel", Field::Bool(novel)),
            ],
            Event::Fault { tick, domain, kind } => vec![
                ("tick", Field::U64(tick)),
                ("domain", Field::U64(domain)),
                ("fault", Field::Str(kind.label())),
            ],
            Event::Degradation { at, from, to } => vec![
                ("at", Field::U64(at)),
                ("health_from", Field::Str(from)),
                ("health_to", Field::Str(to)),
            ],
            Event::EpochSummary {
                step,
                confidence_milli,
                accuracy_milli,
                replayed,
                overlap_milli,
                weight_ops,
            } => vec![
                ("step", Field::U64(step)),
                ("confidence_milli", Field::U64(confidence_milli)),
                ("accuracy_milli", Field::U64(accuracy_milli)),
                ("replayed", Field::U64(replayed)),
                ("overlap_milli", Field::U64(overlap_milli)),
                ("weight_ops", Field::U64(weight_ops)),
            ],
            Event::RunEnd {
                ticks,
                accesses,
                hits,
                misses,
            } => vec![
                ("ticks", Field::U64(ticks)),
                ("accesses", Field::U64(accesses)),
                ("hits", Field::U64(hits)),
                ("misses", Field::U64(misses)),
            ],
            Event::ServeEnqueue {
                epoch,
                tenant,
                shard,
                depth,
            } => vec![
                ("epoch", Field::U64(epoch)),
                ("tenant", Field::U64(tenant)),
                ("shard", Field::U64(shard)),
                ("depth", Field::U64(depth)),
            ],
            Event::ServeShed {
                epoch,
                tenant,
                shard,
            } => vec![
                ("epoch", Field::U64(epoch)),
                ("tenant", Field::U64(tenant)),
                ("shard", Field::U64(shard)),
            ],
            Event::ServeFlush {
                epoch,
                shard,
                batch,
            } => vec![
                ("epoch", Field::U64(epoch)),
                ("shard", Field::U64(shard)),
                ("batch", Field::U64(batch)),
            ],
            Event::ShardEpoch {
                epoch,
                shard,
                processed,
                queued,
            } => vec![
                ("epoch", Field::U64(epoch)),
                ("shard", Field::U64(shard)),
                ("processed", Field::U64(processed)),
                ("queued", Field::U64(queued)),
            ],
            Event::Snapshot {
                epoch,
                tenant,
                bytes,
                restored,
            } => vec![
                ("epoch", Field::U64(epoch)),
                ("tenant", Field::U64(tenant)),
                ("bytes", Field::U64(bytes)),
                ("restored", Field::Bool(restored)),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_match_declared_kind() {
        let ev = Event::Miss {
            tick: 7,
            page: 42,
            late: true,
            stall: 3,
        };
        assert_eq!(ev.name(), "miss");
        let fields = ev.fields();
        assert_eq!(fields[0], ("tick", Field::U64(7)));
        assert_eq!(fields[2], ("late", Field::Bool(true)));
    }
}
