//! The CUDA Runtime API surface, as a trait.
//!
//! "Our middleware provides applications with the illusion that they are
//! dealing with a real GPU" (§III). [`CudaRuntime`] is that illusion's
//! contract: applications program against it and neither know nor care
//! whether the implementation is [`LocalRuntime`] (a GPU in this node) or
//! `rcuda-client`'s `RemoteRuntime` (a GPU across the network) — the exact
//! transparency property rCUDA provides via its library of wrappers.
//!
//! [`exec`] implements the paper's seven execution phases (Fig. 2) once,
//! generically over any runtime, so the same driver code produces the
//! local-GPU baseline and the remote measurements.

#![warn(unreachable_pub)]

pub mod exec;
pub mod local;
pub mod runtime;

pub use exec::{run_fft_bytes, run_matmul_bytes, run_nbody_bytes, ExecReport};
pub use local::LocalRuntime;
pub use runtime::{CudaRuntime, CudaRuntimeAsyncExt};
