//! Experiment harnesses regenerating every table and figure of the
//! paper, plus the §4/§5 system studies and ablations.
//!
//! Each `src/bin/*` binary prints the paper-style rows to stdout, its
//! only output; its only input is an optional scale in argv (see
//! [`output::arg_or`]). The heavy lifting lives here so binaries stay
//! thin and the experiment logic is unit-tested.
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1_patterns` | Table 1 |
//! | `table2_resources` | Table 2 |
//! | `fig2_latency` | Fig. 2 |
//! | `fig3_interference` | Fig. 3 |
//! | `fig5_online` | Fig. 5 |
//! | `sys_disagg`, `sys_uvm` | §4 |
//! | `interleaving` | §4 interleaving conjecture |
//! | `sys_faults` | robustness: degradation under injected faults |
//! | `ablate_sampler` | §5.1: every-miss vs every-4th training |
//! | `ablate_geometry` | §5.2 |
//! | `ablate_encoding` | §5.3: one-hot vs history-3 encoding |
//! | `ablate_replay`, `ablate_phase` | §5.4 |
//! | `availability` | §5.5 |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig3;
pub mod fig5;
pub mod output;
pub mod timing;
