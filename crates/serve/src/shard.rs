//! Shard assignment and per-shard admission control.
//!
//! Tenants are pinned to shards by a seeded FNV-1a hash of their id,
//! and shards are pinned to workers by index — so a tenant's request
//! stream is always processed by one worker in arrival order, which is
//! the invariant the determinism contract (DESIGN.md §11.4) rests on.
//!
//! Each shard owns a bounded FIFO queue guarded by an admission ladder
//! that mirrors the `hnp-memsim` resilience ladder's shape: a healthy
//! queue admits everything, a congested one throttles (admits every
//! other request), a full one sheds, and recovery steps back down with
//! watermark hysteresis instead of flapping at the boundary.

use std::collections::VecDeque;

use crate::tenant::TenantId;
use crate::workload::ServeRequest;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Seeded FNV-1a over the tenant id's little-endian bytes, reduced to
/// a shard index. Integer-only and stable across runs and platforms —
/// never replace this with `std` hashing (`RandomState` would leak
/// per-process randomness into the schedule).
pub fn shard_of(tenant: TenantId, shards: usize, seed: u64) -> usize {
    let mut h = FNV_OFFSET ^ seed;
    for b in tenant.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    (h % shards.max(1) as u64) as usize
}

/// Admission ladder position of one shard queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admission {
    /// Below the high watermark: admit everything.
    Open,
    /// Congested: admit every other request.
    Throttled,
    /// Full: shed everything until the queue drains to the low
    /// watermark.
    Shedding,
}

/// What the queue did with an offered request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// Admitted; carries the queue depth after the enqueue.
    Enqueued(usize),
    /// Shed by admission control.
    Shed,
}

/// Counters one shard accumulates over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ShardStats {
    /// Requests admitted into the queue.
    pub enqueued: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests handed to the worker in flushed batches.
    pub flushed: u64,
}

/// A bounded FIFO request queue with ladder admission control.
#[derive(Debug)]
pub struct ShardQueue {
    pending: VecDeque<ServeRequest>,
    depth: usize,
    state: Admission,
    /// Offers seen while Throttled; even offers are admitted.
    throttle_clock: u64,
    stats: ShardStats,
}

impl ShardQueue {
    /// A queue holding at most `depth` pending requests (`depth` is
    /// clamped to at least 1).
    pub fn new(depth: usize) -> Self {
        Self {
            pending: VecDeque::new(),
            depth: depth.max(1),
            state: Admission::Open,
            throttle_clock: 0,
            stats: ShardStats::default(),
        }
    }

    /// Pending request count.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Run counters.
    pub(crate) fn stats(&self) -> ShardStats {
        self.stats
    }

    /// High watermark: Open → Throttled at ¾ capacity.
    fn high_mark(&self) -> usize {
        (self.depth * 3 / 4).max(1)
    }

    /// Low watermark: recovery happens at ¼ capacity.
    fn low_mark(&self) -> usize {
        self.depth / 4
    }

    /// Moves along the ladder from the current occupancy. Called after
    /// every enqueue and flush.
    fn reladder(&mut self) {
        let len = self.pending.len();
        self.state = match self.state {
            Admission::Open if len >= self.high_mark() => Admission::Throttled,
            Admission::Throttled if len >= self.depth => Admission::Shedding,
            Admission::Throttled if len <= self.low_mark() => Admission::Open,
            Admission::Shedding if len <= self.low_mark() => Admission::Throttled,
            s => s,
        };
    }

    /// Offers a request to the queue under the admission ladder.
    pub fn offer(&mut self, req: ServeRequest) -> Offer {
        let admit = match self.state {
            Admission::Open => true,
            Admission::Throttled => {
                self.throttle_clock += 1;
                self.throttle_clock.is_multiple_of(2)
            }
            Admission::Shedding => false,
        } && self.pending.len() < self.depth;
        if !admit {
            self.stats.shed += 1;
            self.reladder();
            return Offer::Shed;
        }
        self.pending.push_back(req);
        self.stats.enqueued += 1;
        self.reladder();
        Offer::Enqueued(self.pending.len())
    }

    /// Drains up to `max` requests in FIFO order for this epoch's
    /// batch.
    pub fn flush(&mut self, max: usize) -> Vec<ServeRequest> {
        let n = max.min(self.pending.len());
        let batch: Vec<ServeRequest> = self.pending.drain(..n).collect();
        self.stats.flushed += batch.len() as u64;
        self.reladder();
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(tenant: TenantId) -> ServeRequest {
        ServeRequest { tenant, page: 1 }
    }

    #[test]
    fn shard_hash_is_deterministic_and_seed_sensitive() {
        let a = shard_of(42, 8, 1);
        assert_eq!(a, shard_of(42, 8, 1));
        assert!(a < 8);
        let different_seed: Vec<usize> = (0..64).map(|t| shard_of(t, 8, 2)).collect();
        let base: Vec<usize> = (0..64).map(|t| shard_of(t, 8, 1)).collect();
        assert_ne!(base, different_seed, "seed must perturb the placement");
    }

    #[test]
    fn shard_hash_spreads_tenants() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for t in 0..256u64 {
            counts[shard_of(t, shards, 0x5eed)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "all shards used: {counts:?}");
    }

    #[test]
    fn ladder_throttles_then_sheds_then_recovers() {
        let mut q = ShardQueue::new(8);
        // Fill to capacity: Open admits up to the high mark, then the
        // ladder throttles (every other offer) and finally sheds.
        let mut outcomes = Vec::new();
        for i in 0..32 {
            outcomes.push(q.offer(req(i)));
        }
        assert_eq!(q.len(), 8, "hard cap holds");
        assert_eq!(q.state, Admission::Shedding);
        assert!(outcomes.contains(&Offer::Shed));
        // Draining to the low watermark recovers one rung per check.
        let _ = q.flush(7);
        assert_eq!(q.state, Admission::Throttled);
        let _ = q.flush(1);
        assert_eq!(q.state, Admission::Open);
        assert!(q.is_empty());
        let s = q.stats();
        assert_eq!(s.enqueued, 8);
        assert_eq!(s.shed, 24);
        assert_eq!(s.flushed, 8);
    }

    #[test]
    fn flush_preserves_fifo_order() {
        let mut q = ShardQueue::new(16);
        for i in 0..5 {
            let _ = q.offer(req(i));
        }
        let batch = q.flush(3);
        let ids: Vec<TenantId> = batch.iter().map(|r| r.tenant).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(q.len(), 2);
    }
}
