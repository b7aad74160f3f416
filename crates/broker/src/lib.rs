//! rCUDA cluster broker.
//!
//! The source paper's deployment is a *cluster* of rCUDA daemons — this
//! crate adds the piece that binds N daemons into one client-visible GPU
//! pool: a directory service with health-checked membership, pluggable
//! placement policy, and migration/failover orders.
//!
//! * [`Directory`] — the pure membership core: registration, heartbeats,
//!   the Alive → Suspect → Down state machine with recovery hysteresis,
//!   and placement ordering ([`PlacementPolicy`]).
//! * [`Broker`]/[`BrokerBuilder`] — the network face: a TCP listener whose
//!   connections authenticate with the PR-8 challenge-response handshake,
//!   then speak the [`rcuda_proto::broker`] control messages.
//! * [`DaemonLink`] — a daemon's registration + heartbeat connection.
//! * [`BrokerClient`] — a CUDA client's placement connection.

#![warn(unreachable_pub)]

pub mod broker;
pub mod client;
pub mod directory;

pub use broker::{Broker, BrokerBuilder};
pub use client::{connect_authed, BrokerClient, DaemonLink};
pub use directory::{DaemonEntry, DaemonState, Directory, HealthPolicy, PlacementPolicy};
