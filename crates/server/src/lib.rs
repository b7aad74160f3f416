//! The rCUDA server daemon.
//!
//! §III: "on the other side, there is a GPU network service listening for
//! requests on a TCP port. ... Time-multiplexing (sharing) the GPU is
//! accomplished by spawning a different server process for each remote
//! execution over a new GPU context." This crate is that service, built as
//! **one session engine behind two I/O drivers**:
//!
//! * `session` (crate-private) — the sans-IO `SessionMachine`: the
//!   compute-capability push, the hello in all its forms, the
//!   request/dispatch/respond loop over a fresh, **pre-initialized** GPU
//!   context (the warm context is why remote executions skip the CUDA
//!   environment initialization delay, §VI-B), panic isolation, and
//!   park-or-release at the end. Bytes in, bytes out, no threads or sockets;
//! * [`worker`] — the blocking driver, [`serve_connection`]: one session on
//!   the calling thread. Serves the facade's `Endpoint::Channel`,
//!   `Endpoint::ChannelFaulty` and `Endpoint::Simulated`, each sub-stream
//!   of [`serve_mux_trunk`], and `rcuda-workloads`. Also home of
//!   [`ServerConfig`] / [`SessionReport`];
//! * `reactor` (crate-private) — the readiness driver: a fixed pool of shard
//!   threads multiplexing every admitted connection over nonblocking
//!   transports. Serves `Endpoint::Tcp` and `Endpoint::Broker` sessions
//!   (every TCP connection a daemon accepts),
//!   [`RcudaDaemon::connect_in_process`], and the sub-streams of mux trunks
//!   that arrive over TCP;
//! * [`dispatch`] — maps each protocol request onto the context;
//! * [`daemon`] — the TCP accept loop (admission control, accept backoff)
//!   feeding the reactor; built through [`DaemonBuilder`].

#![warn(unreachable_pub)]

pub(crate) mod broker_agent;
pub mod builder;
pub mod daemon;
pub mod dispatch;
pub mod mux_host;
pub(crate) mod poll;
pub mod pool;
pub(crate) mod reactor;
pub mod registry;
pub(crate) mod session;
pub mod worker;

pub use builder::DaemonBuilder;
pub use daemon::{DaemonHealth, DrainReport, RcudaDaemon};
pub use mux_host::serve_mux_trunk;
pub use pool::{GpuPool, PoolPolicy};
pub use registry::{SessionRegistry, ShardedRegistry};
pub use worker::{
    serve_connection, serve_connection_with_registry, ChaosHook, ServerConfig, SessionReport,
};
