//! Compute kernels for the two case studies (paper §IV-B).
//!
//! * **MM** — single-precision dense matrix-matrix product. The paper runs
//!   Intel MKL on the CPU (8 cores) and Volkov's SGEMM on the GPU; here both
//!   roles are served by real Rust implementations: a cache-blocked,
//!   multithreaded SGEMM ([`matrix::CpuSgemm`]) as the MKL stand-in, and a
//!   register-tiled single-threaded variant executed by the simulated GPU
//!   engine.
//! * **FFT** — batches of 512-point single-precision complex 1-D FFTs. The
//!   paper runs FFTW on the CPU and Volkov's FFT on the GPU; here an
//!   iterative radix-2 Cooley–Tukey transform serves both.
//!
//! Beyond the paper's two case studies, [`transformer`] adds the row-wise
//! softmax and layer-normalization primitives the AI-inference workload
//! suite (`rcuda-workloads`) interleaves between its GEMM chains, and
//! [`nbody`] a direct-summation gravity kernel.
//!
//! Numerical correctness is what matters for the middleware (remote results
//! must equal local results); wall-clock performance of these kernels is
//! *not* used to reproduce the paper's tables — timing there comes from the
//! calibrated cost models in `rcuda-model`.

#![warn(unreachable_pub)]

pub mod complex;
pub mod fft;
pub mod matrix;
pub mod nbody;
pub mod transformer;
pub mod workload;

pub use complex::Complex32;
pub use fft::{dft_naive, fft_batch_512, fft_forward, fft_inverse, Fft};
pub use matrix::{sgemm_blocked, sgemm_naive, sgemm_tiled_gpu, CpuSgemm, Matrix};
pub use nbody::{nbody_accelerations, nbody_input, nbody_step};
pub use transformer::{layernorm_rows, softmax_rows};
pub use workload::{fft_input, matrix_pair, Workload};
