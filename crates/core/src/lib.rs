//! The hippocampal-neocortical (CLS) prefetcher — the paper's
//! contribution.
//!
//! Complementary Learning Systems theory (Fig. 4 of the paper) splits
//! learning between a fast episodic store (hippocampus) and a slow
//! structure learner (neocortex), with interleaved replay carrying
//! memories from the former into the latter. This crate assembles
//! that architecture for memory prefetching:
//!
//! * [`encoder`] — input encodings over the delta vocabulary (§5.3);
//! * [`neocortex`] — the slow learner: a sparse Hebbian network;
//! * [`hippocampus`] — the episodic store (§5.4): a ring of recent
//!   episodes;
//! * [`replay`] — the replay scheduler and its forms (§3.2, §5.4):
//!   interleaved, other-phases, self-reinforcing;
//! * [`sampler`] — training-instance selection (§5.1);
//! * [`phase`] — online phase detection by clustering (§5.4);
//! * [`confidence`] — confidence/accuracy tracking;
//! * [`availability`] — the shadow-model train/redeploy protocol
//!   (§5.5);
//! * [`cls`] — [`cls::ClsPrefetcher`], wiring it all
//!   behind [`hnp_memsim::Prefetcher`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod availability;
pub mod cls;
pub mod confidence;
pub mod encoder;
pub mod hippocampus;
pub mod neocortex;
pub mod phase;
pub mod replay;
pub mod sampler;
pub mod vsa;

pub use adaptive::AdaptiveGeometry;
pub use cls::{ClsConfig, ClsPrefetcher};
pub use encoder::{Encoder, EncoderKind};
pub use hippocampus::{CapacityPolicy, EpisodeRef, EpisodicStore, Hippocampus};
pub use replay::{ReplayConfig, ReplayForm};
pub use sampler::TrainingSampler;
