//! Interconnect models for the rCUDA performance study.
//!
//! The paper characterizes two physical networks with ping-pong tests
//! (Figures 3 and 4) and projects onto five more from published effective
//! bandwidths (§VI-A). This crate reproduces all seven as [`NetworkModel`]
//! implementations:
//!
//! | id | network | effective one-way bandwidth |
//! |----|---------|------------------------------|
//! | `GigaE`   | 1 Gbps Ethernet (TCP, Nagle off)    | 112.4 MiB/s |
//! | `Ib40G`   | 40 Gbps InfiniBand                  | 1367.1 MiB/s |
//! | `TenGigE` | 10-Gigabit iWARP Ethernet           | 880 MiB/s |
//! | `TenGigIb`| 10 Gbps InfiniBand                  | 970 MiB/s |
//! | `Myri10G` | Myrinet-10G                         | 750 MiB/s |
//! | `FpgaHt`  | HyperTransport over FPGA            | 1442 MiB/s |
//! | `AsicHt`  | HyperTransport over ASIC            | 2884 MiB/s |
//!
//! (The paper writes "MB"; its arithmetic — e.g. Table III's 64 MB for a
//! 4·4096² byte matrix, 569.4 ms at 112.4 MB/s — is mebibyte-consistent, so
//! bandwidths here are MiB/s.)
//!
//! Each model exposes three views of the network:
//!
//! * [`NetworkModel::one_way`] — ping-pong end-to-end latency for a payload,
//!   the quantity plotted in Figures 3–4;
//! * [`NetworkModel::bulk_transfer`] — the paper's Tables III/V arithmetic,
//!   `payload / effective_bandwidth`;
//! * [`NetworkModel::app_transfer`] — what an application-level bulk copy
//!   actually costs; for GigaE this includes the TCP-window distortion the
//!   paper blames for its FFT estimation errors (§V).

#![warn(unreachable_pub)]

pub mod compress;
pub mod contention;
pub mod gige;
pub mod hol;
pub mod hpc;
pub mod ib40g;
pub mod id;
pub mod jitter;
pub mod model;
pub mod piecewise;
pub mod pingpong;
pub mod regression;
pub mod topology;

pub use compress::{Compressibility, CompressionModel};
pub use contention::SharedLink;
pub use gige::GigaEModel;
pub use hol::HolModel;
pub use hpc::BandwidthModel;
pub use ib40g::Ib40GModel;
pub use id::NetworkId;
pub use jitter::JitterModel;
pub use model::NetworkModel;
pub use piecewise::PiecewiseLinear;
pub use pingpong::{PingPong, SweepPoint};
pub use regression::{linear_fit, LinearFit};
pub use topology::{Topology, TopologyNetwork};
