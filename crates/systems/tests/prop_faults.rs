//! Property tests for the fault-injection layer: the **no-fault
//! regression**. With an empty `FaultSchedule` the `*_with_faults`
//! entry points are bit-identical to the plain runs, regardless of the
//! injector's seed. Fault support must be free when faults are off.
//! (The injector's own determinism is tested in `src/fault.rs`.)

use proptest::prelude::*;

use hnp_baselines::{StrideConfig, StridePrefetcher};
use hnp_core::{ClsConfig, ClsPrefetcher};
use hnp_memsim::{Prefetcher, ResilientPrefetcher};
use hnp_systems::{
    DisaggConfig, DisaggregatedCluster, FaultInjector, FaultSchedule, UvmConfig, UvmSim,
};
use hnp_trace::apps::AppWorkload;
use hnp_trace::Trace;

fn traces(accesses: usize) -> Vec<Trace> {
    vec![
        AppWorkload::PageRankLike.generate(accesses, 31),
        AppWorkload::McfLike.generate(accesses, 32),
    ]
}

fn prefetchers(n: usize, resilient: bool) -> Vec<Box<dyn Prefetcher>> {
    (0..n)
        .map(|_| {
            let inner: Box<dyn Prefetcher> = Box::new(ClsPrefetcher::new(ClsConfig::default()));
            if resilient {
                Box::new(ResilientPrefetcher::new(inner)) as Box<dyn Prefetcher>
            } else {
                inner
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With an empty schedule `run_decentralized_with_faults` is
    /// bit-identical to `run_decentralized`, for any injector seed and
    /// with or without the resilient wrapper.
    #[test]
    fn no_fault_regression_disagg(
        inj_seed in 0u64..1_000_000,
        accesses in 200usize..500,
        resilient in any::<bool>(),
    ) {
        let traces = traces(accesses);
        let cluster = DisaggregatedCluster::new(DisaggConfig {
            local_capacity_frac: 0.4,
            ..DisaggConfig::default()
        });
        let mut plain_pfs = prefetchers(traces.len(), resilient);
        let plain = cluster.run_decentralized(&traces, &mut plain_pfs);
        let mut faulted_pfs = prefetchers(traces.len(), resilient);
        let mut inj = FaultInjector::new(FaultSchedule::none(), inj_seed);
        let faulted =
            cluster.run_decentralized_with_faults(&traces, &mut faulted_pfs, &mut inj);
        prop_assert_eq!(plain, faulted);
    }

    /// Same invariant for the UVM target (centralized prefetcher).
    #[test]
    fn no_fault_regression_uvm(
        inj_seed in 0u64..1_000_000,
        accesses in 200usize..500,
        resilient in any::<bool>(),
    ) {
        let warps: Vec<Trace> = (0..2u64)
            .map(|i| AppWorkload::FIG5[i as usize].generate(accesses, 60 + i).with_stream(i as u16))
            .collect();
        let sim = UvmSim::new(UvmConfig::default());
        let mut a: Box<dyn Prefetcher> = Box::new(StridePrefetcher::with_config(StrideConfig::default().with_degree(2)));
        let mut b: Box<dyn Prefetcher> = Box::new(StridePrefetcher::with_config(StrideConfig::default().with_degree(2)));
        if resilient {
            a = Box::new(ResilientPrefetcher::new(a));
            b = Box::new(ResilientPrefetcher::new(b));
        }
        let plain = sim.run(&warps, a.as_mut());
        let mut inj = FaultInjector::new(FaultSchedule::none(), inj_seed);
        let faulted = sim.run_with_faults(&warps, b.as_mut(), &mut inj);
        prop_assert_eq!(plain, faulted);
    }

    /// End-to-end determinism: the same faulted run twice yields the
    /// same report (the injector is the only randomness source beyond
    /// the seeded prefetchers).
    #[test]
    fn faulted_run_is_reproducible(
        inj_seed in 0u64..1_000_000,
        accesses in 200usize..400,
        drop_prob in 0.1f64..0.9,
    ) {
        let traces = traces(accesses);
        let cluster = DisaggregatedCluster::new(DisaggConfig::default());
        let sched = FaultSchedule::none()
            .with_lossy_link(10, 4000, drop_prob)
            .with_brownout(500, 2000, 2)
            .with_crash(1000, 200, 1);
        let run = |sched: &FaultSchedule| {
            let mut pfs = prefetchers(traces.len(), true);
            let mut inj = FaultInjector::new(sched.clone(), inj_seed);
            cluster.run_decentralized_with_faults(&traces, &mut pfs, &mut inj)
        };
        prop_assert_eq!(run(&sched), run(&sched));
    }
}
