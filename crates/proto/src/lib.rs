//! The rCUDA wire protocol.
//!
//! The paper (§III, Table I) describes a synchronous request/response
//! protocol: for every CUDA Runtime call the client sends one message whose
//! first 32 bits identify the function, followed by function-dependent
//! fields; the server always answers with a 32-bit CUDA result code,
//! possibly followed by more data.
//!
//! This crate implements:
//!
//! * the call table ([`ids`]): one row per selector giving the call's
//!   [`FunctionId`], its [`Request`] variant with the fixed fields in wire
//!   order and any bulk payload, observability label, reply shape and
//!   retry/journal class; the enum, its stack-built head and its reader are
//!   generated from the rows, so adding a fixed-body call is one row there
//!   plus its dispatch arm in the server,
//! * the exact field layouts of Table I ([`request`], [`response`]),
//! * streaming encode/decode over any `Read`/`Write` pair ([`wire`]),
//! * the message-size accounting that reproduces Table I ([`sizes`]),
//! * the launch-configuration record carried by `cudaLaunch` ([`launch`]),
//! * pooled payload buffers for the copy-minimal data plane ([`payload`]).
//!
//! ## Framing
//!
//! There is none — exactly as in the paper. Every field either has a fixed
//! size or is preceded by a size field, so the receiver always knows how many
//! bytes to read next. Table I therefore accounts for *all* bytes on the
//! wire.
//!
//! One extension departs from the paper's strict one-call-per-round-trip
//! model: the [`batch`] module packs N consecutive requests into a single
//! message (and their N responses into a single reply), eliminating the
//! per-call network round trips that sink the FFT case study on Gigabit
//! Ethernet. Servers read via [`batch::Frame`], which accepts both framings.
//!
//! ## The initialization handshake
//!
//! Initialization is the one asymmetric exchange (Fig. 2): upon accepting a
//! connection the server immediately sends the device's 8-byte compute
//! capability; the client then ships the GPU module (4-byte size + blob) and
//! the server acknowledges with a 4-byte result code. Send `x+4`, receive
//! `8 + 4 = 12` bytes — Table I's Initialization row.

#![warn(unreachable_pub)]

pub mod batch;
pub mod broker;
pub mod codec;
pub mod decode;
pub mod handshake;
pub mod ids;
pub mod launch;
pub mod mux;
pub mod payload;
pub mod request;
pub mod response;
pub mod secure;
pub mod sizes;
pub mod wire;

pub use batch::{Batch, BatchResponse, Frame};
pub use codec::{Codec, CodecHello, CodecMode, CodecStats, CAP_LZ4};
pub use decode::{scan_frame, scan_frame_codec, scan_hello, ClientHello, Scan, StreamDecoder};
pub use handshake::SessionHello;
pub use ids::FunctionId;
pub use launch::LaunchConfig;
pub use payload::{BufferPool, Payload, PooledBuf};
pub use request::Request;
pub use response::Response;
pub use sizes::{OpKind, OpSizes};
