//! AI-inference workload suite with closed-loop §V model validation.
//!
//! The paper validates its estimation model (§V) on two bulk-transfer case
//! studies — MM and FFT — whose traffic is a handful of large copies. This
//! crate adds the workload family the model was *not* built for, then closes
//! the loop on the extended model of `rcuda_model::workloads`:
//!
//! * [`transformer`] — a transformer-block microbenchmark: a GEMM chain
//!   interleaved with the row-wise softmax/layernorm kernels of
//!   `rcuda_kernels::transformer`, driven through the pipelined client with
//!   one [`rcuda_obs::Op::Phase`] marker span per phase.
//! * [`smallcalls`] — a batched-small-calls stress profile: thousands of
//!   sub-4 KiB launches and memcpys, the call-rate-bound regime where
//!   per-message latency (not bandwidth) dominates.
//! * [`traffic`] — a seeded open/closed-loop traffic generator: Poisson
//!   arrivals over configurable tenant personas (echoing the chaos species
//!   of the multi-tenant soak suite), replayable against an in-process
//!   session or the sharded reactor daemon.
//!
//! [`harness`] ties them together: each workload is measured on the
//! simulated network and over loopback TCP against a live daemon, estimated
//! by the extended model (call-rate terms priced per round trip, queueing
//! wait under concurrency), and the relative error is asserted under a
//! per-workload bound. [`calibrate`] fits the loopback-TCP link model the
//! TCP estimates price against.

#![warn(unreachable_pub)]

pub mod calibrate;
pub mod harness;
pub mod sessions;
pub mod smallcalls;
pub mod traffic;
pub mod transformer;

pub use calibrate::{calibrate_channel, calibrate_loopback, CalibratedLink};
pub use harness::{run_sim_rows, run_suite, SuiteConfig, SuiteReport, ValidationRow};
pub use sessions::{channel_session, sim_session, HarnessChannelSession, HarnessSimSession};
pub use smallcalls::{run_smallcalls, SmallCallsConfig};
pub use traffic::{
    build_schedule, replay_closed_loop, replay_open_loop, Arrival, Persona, Schedule,
    TrafficConfig, TrafficOp,
};
pub use transformer::{reference_transformer, run_transformer, TransformerConfig};
