//! The rCUDA client library.
//!
//! §III: "clients employ a library of wrappers to the CUDA Runtime API"
//! which forward every call to the server as one request/response exchange.
//! [`RemoteRuntime`] is that library: it implements
//! [`rcuda_api::CudaRuntime`] over any [`rcuda_transport::Transport`] — real
//! TCP for functional runs, a simulated network for modeled runs — so
//! applications are oblivious to the GPU being remote.
//!
//! The client also records a [`trace::Trace`] of every call (operation,
//! bytes each way, start/end times), the raw material of the paper's
//! methodology: "we analyze the traces of two different case studies over
//! two different networks" (§I).

#![warn(unreachable_pub)]

pub mod error;
pub(crate) mod failover;
pub mod retry;
pub mod runtime;
pub mod trace;

pub use error::transport_error;
pub use retry::{batch_is_idempotent, is_idempotent, RetryPolicy};
pub use runtime::{fresh_session_token, RemoteRuntime};
pub use trace::{CallEvent, Trace};
