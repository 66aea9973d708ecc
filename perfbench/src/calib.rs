//! Host-speed calibration.
//!
//! On a shared host the same pass runs up to 1.4× slower for stretches
//! of several seconds while neighbours load the machine. A fixed loop,
//! independent of the code under test, is timed after every driver
//! call; each call's time is scaled by the loop's reference time over
//! its measured time (averaged over the probes before and after the
//! call). Slow stretches slow the loop alike and cancel out, while a
//! change to the program moves only the call.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Probe time, ns, on the host the reference numbers were taken on.
/// Scaled times are "ns on that host".
pub const REF_NS: f64 = 2_000_000.0;
/// Iterations of one probe.
const PROBE_ITERS: u64 = 25_000;

/// One probe: map updates, ordered evictions and branchy integer work,
/// the mix the simulators spend their own time on. Returns its ns.
pub fn probe() -> u64 {
    let start = Instant::now();
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut x: u64 = 0x1234_5678;
    let mut acc = 0u64;
    for i in 0..PROBE_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = black_box(x) % 4096;
        match map.get_mut(&key) {
            Some(v) => {
                *v += i;
                acc = acc.wrapping_add(*v);
            }
            None => {
                map.insert(key, i);
            }
        }
        if map.len() > 2048 {
            map.pop_first();
        }
    }
    black_box(acc);
    start.elapsed().as_nanos() as u64
}

/// Times calls and scales them to the reference host speed.
pub struct Calibrated {
    last: u64,
}

impl Calibrated {
    /// Probes once to have a "before" for the first call.
    pub fn new() -> Self {
        Self { last: probe() }
    }

    /// Runs `f`; returns its result, its wall ns, and its ns scaled to
    /// the reference host speed.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, u64, f64) {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        let next = probe();
        let speed = (self.last + next) as f64 / 2.0;
        self.last = next;
        (out, ns, ns as f64 * REF_NS / speed.max(1.0))
    }
}
