//! A functional simulated CUDA device.
//!
//! The paper's testbed GPU is an NVIDIA Tesla C1060 behind PCIe 2.0 x16.
//! No GPU is available here, so this crate substitutes a software device
//! that is **functionally real** — allocations, copies, and kernel launches
//! operate on actual memory and compute actual results — while time is
//! charged through pluggable cost models on a [`rcuda_core::Clock`]
//! (wall-clock for functional runs, virtual for simulated experiments).
//!
//! Layering:
//!
//! * [`alloc`] — first-fit device-memory allocator with coalescing;
//! * [`memory`] — the backing store, addressed by [`rcuda_core::DevicePtr`];
//! * [`module`] — the GPU "module" blob format and its kernel directory
//!   (the paper ships 21 486 / 7 852 byte modules at initialization);
//! * [`kernel`] — the kernel registry: name → executable function;
//! * [`stream`] — stream handles and per-stream completion bookkeeping;
//! * [`context`] — one application's device state (the rCUDA server spawns
//!   one per remote execution, pre-initialized — §III, §VI-B);
//! * [`device`] — the device itself: properties, PCIe link, cost model;
//! * [`timing`] — default kernel/PCIe cost models (C1060-flavored).

#![warn(unreachable_pub)]

pub mod alloc;
pub mod context;
pub mod device;
pub mod kernel;
pub mod ledger;
pub mod memory;
pub mod module;
pub mod snapshot;
pub mod stream;
pub mod timing;

pub use context::GpuContext;
pub use device::GpuDevice;
pub use kernel::{builtin_registry, KernelFn, KernelRegistry};
pub use ledger::MemoryLedger;
pub use module::{build_module, parse_module};
pub use snapshot::ContextSnapshot;
pub use timing::{C1060CostModel, CostModel, NullCostModel};
