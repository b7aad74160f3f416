//! The paper's performance-estimation model (its primary contribution) and
//! everything needed to regenerate Tables II–VI and Figures 3–6.
//!
//! ## Methodology being reproduced (§V)
//!
//! For a case study whose execution moves `k` bulk copies of `d` bytes each
//! (`k = 3` for MM, `k = 2` for FFT):
//!
//! ```text
//! transfer(net)    = d / bandwidth(net)                 (Tables III and V)
//! fixed            = measured(src net) − k·transfer(src net)
//! estimate(dst)    = fixed + k·transfer(dst net)        (Tables IV and VI)
//! error            = (estimate − measured(dst)) / measured(dst)
//! ```
//!
//! ## Calibration
//!
//! No Tesla C1060 or InfiniBand fabric exists here, so "measured" values
//! come from a [`testbed::SimulatedTestbed`] whose component models are
//! least-squares fitted ([`calib`]) to the paper's own reported
//! measurements, using physically motivated bases (`a·m³ + b·m² + c` for
//! MM — kernel, memory-bound work, constant overhead; interpolation through
//! the noisier FFT points) plus an `α/d + β` TCP-window distortion for
//! GigaE application transfers.
//! The embedded ground truth lives in [`paperdata`]; golden tests assert the
//! fits reproduce the paper's columns to within a few percent, and all
//! *derived* tables are then produced by running the paper's methodology on
//! the simulator's output — not by copying the paper's numbers.

pub mod calib;
pub mod capacity;
pub mod chart;
pub mod compare;
pub mod estimate;
pub mod figures;
pub mod montecarlo;
pub mod overlap;
pub mod paperdata;
pub mod pipeline;
pub mod render;
pub mod tables;
pub mod testbed;
pub mod workloads;

pub use calib::{Calibration, PolyFit};
pub use capacity::{plan_capacity, CapacityPlan, ClusterSpec};
pub use compare::{compare_report, CompareReport, PhaseRow};
pub use estimate::{
    cross_validate, estimate, estimate_compressed, fixed_time, transfer_time,
    transfer_time_compressed, CrossValidationRow,
};
pub use montecarlo::{default_error_bar, error_bar, Distribution, ErrorBar};
pub use overlap::{estimate_async, overlap_benefit};
pub use pipeline::{estimate_pipelined, estimate_pipelined_with, PipelineEstimate};
pub use testbed::SimulatedTestbed;
pub use workloads::{
    closed_loop_wait, estimate_workload, fixed_time_workload, open_loop_wait, PhaseKind,
    PhaseShape, WorkloadShape,
};
