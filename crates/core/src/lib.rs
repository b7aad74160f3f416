//! Shared vocabulary for the `rcuda-rs` workspace.
//!
//! This crate holds the types every other crate speaks: CUDA-style error
//! codes, device descriptors and device pointers, wall/virtual clocks used to
//! drive both real and simulated executions, byte-size helpers, and the
//! descriptors of the two case studies evaluated by the paper (dense
//! matrix-matrix product and batched 1-D FFT).
//!
//! Nothing here knows about networks, GPUs, or the wire protocol — it is the
//! dependency root of the workspace.

#![warn(unreachable_pub)]

pub mod args;
pub mod casestudy;
pub mod device;
pub mod dim;
pub mod error;
pub mod size;
pub mod time;

pub use args::{ArgPack, ArgReader};
pub use casestudy::{CaseStudy, Family, FFT_BATCHES, FFT_POINTS, MM_DIMS};
pub use device::{DeviceProperties, DevicePtr};
pub use dim::Dim3;
pub use error::{CudaError, CudaResult};
pub use size::{ByteSize, GIB, KIB, MB, MIB};
pub use time::{virtual_clock, wall_clock, Clock, SharedClock, SimTime, VirtualClock, WallClock};
