//! Byte transports between the rCUDA client and server.
//!
//! The protocol (`rcuda-proto`) is transport-agnostic: it only needs a byte
//! stream in each direction with message boundaries marked by `flush`. Three
//! transports implement that contract:
//!
//! * [`TcpTransport`] — real sockets with `TCP_NODELAY` set, reproducing the
//!   paper's configuration ("we disabled the TCP-layer congestion control
//!   algorithm ... Nagle's algorithm", §IV-A). Used by the functional
//!   client/server over loopback or a real network.
//! * [`ChannelTransport`] — in-process `std::sync::mpsc` channels; zero-latency, for
//!   unit and integration tests.
//! * [`SimTransport`] — a channel pair that charges each flushed message's
//!   latency to a shared (virtual) clock according to a
//!   [`rcuda_netsim::NetworkModel`]; this is how a full client/server
//!   execution is simulated over GigaE, 40GI, or any of the paper's five
//!   target HPC networks.
//!
//! ## Contract
//!
//! Writers MUST call [`std::io::Write::flush`] exactly once per protocol
//! message: the flush marks the message boundary that latency accounting
//! (and TCP packetization) keys on.

#![warn(unreachable_pub)]

pub mod channel;
pub mod fault;
pub mod mux;
pub mod reconnect;
pub mod sim;
pub mod stats;
pub mod tcp;

use std::io;
use std::time::Duration;

pub use rcuda_obs::ObsHandle;

pub use channel::{channel_pair, ChannelTransport};
pub use fault::{
    Fault, FaultInjector, FaultKind, FaultPlan, FiredFaults, StreamFault, StreamFaultPlan,
    StreamFaultWrite,
};
pub use mux::{MuxConfig, MuxPeer, MuxRole, MuxStream};
pub use reconnect::{DialFn, ReconnectTransport};
pub use sim::{sim_pair, SimTransport};
pub use stats::TransportStats;
pub use tcp::TcpTransport;

/// The owned read half of a split transport (see [`Transport::into_split`]).
pub type ReadHalf = Box<dyn io::Read + Send>;
/// The owned write half of a split transport.
pub type WriteHalf = Box<dyn io::Write + Send>;

/// Progress of one nonblocking I/O attempt (the `WouldBlock`-aware result
/// of [`Transport::try_read`] / [`Transport::try_write`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// `n` bytes moved. `Ready(0)` from a read means end-of-stream (the
    /// peer is gone), mirroring `read`'s 0-return — it is never "try
    /// again".
    Ready(usize),
    /// The operation would block right now; re-attempt after the next
    /// readiness signal. No bytes moved, no state changed.
    Pending,
}

/// A bidirectional byte stream with per-message flush semantics.
///
/// ## The nonblocking half
///
/// Readiness-driven servers (the sharded reactor in `rcuda-server`)
/// multiplex many transports on one thread, so they need I/O attempts that
/// *never park the caller*: [`Transport::set_nonblocking`] switches the
/// endpoint over, after which [`Transport::try_read`] and
/// [`Transport::try_write`] translate `WouldBlock` into
/// [`Progress::Pending`] instead of blocking, and
/// [`Transport::poll_readable`] answers "would a read make progress right
/// now?" without consuming anything. Transports that cannot operate
/// nonblocking keep the defaults and report
/// [`io::ErrorKind::Unsupported`] — the blocking half of the trait is
/// unchanged and remains the contract for client-side use.
pub trait Transport: io::Read + io::Write + Send {
    /// Cumulative traffic counters (used by tests to verify the Table I /
    /// Table II byte accounting end-to-end).
    fn stats(&self) -> TransportStats;

    /// Bound every subsequent read: a read that makes no progress for
    /// `timeout` fails with [`io::ErrorKind::TimedOut`]. `None` restores
    /// blocking reads. Transports without a timing source accept the call
    /// as a no-op (the default) — callers must not rely on enforcement
    /// unless the concrete transport documents it.
    fn set_read_deadline(&mut self, _timeout: Option<Duration>) -> io::Result<()> {
        Ok(())
    }

    /// Tear down the current connection and establish a fresh one to the
    /// same peer. Counters survive; buffered/un-acked data does not.
    /// Transports that cannot re-dial return [`io::ErrorKind::Unsupported`]
    /// (the default).
    fn reconnect(&mut self) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "transport cannot reconnect",
        ))
    }

    /// Install an observability sink: the transport reports one
    /// [`rcuda_obs::MessageEvent`] per protocol message (at flush time for
    /// sends, at consumption time for receives) and reconnect episodes.
    /// Uninstrumented transports accept the call as a no-op (the default);
    /// a disarmed handle uninstalls any previous observer.
    fn set_observer(&mut self, _obs: ObsHandle) {}

    /// Switch the endpoint between blocking and nonblocking operation.
    /// While nonblocking, `try_read`/`try_write` report [`Progress::Pending`]
    /// instead of parking the caller. Transports without a nonblocking mode
    /// return [`io::ErrorKind::Unsupported`] (the default).
    fn set_nonblocking(&mut self, _nonblocking: bool) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "transport has no nonblocking mode",
        ))
    }

    /// Whether a `try_read` right now would make progress (data buffered or
    /// EOF observable), without consuming anything. `Ok(false)` means a read
    /// would return [`Progress::Pending`].
    fn poll_readable(&mut self) -> io::Result<bool> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "transport has no nonblocking mode",
        ))
    }

    /// Nonblocking read attempt: `Ready(n)` bytes landed in `buf` (`Ready(0)`
    /// = end-of-stream), or `Pending` if the operation would block. Requires
    /// [`Transport::set_nonblocking`] first on transports that distinguish
    /// modes.
    fn try_read(&mut self, _buf: &mut [u8]) -> io::Result<Progress> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "transport has no nonblocking mode",
        ))
    }

    /// Nonblocking write attempt: `Ready(n)` bytes accepted, or `Pending` if
    /// the peer's buffers are full. Callers still mark message boundaries
    /// with `flush` once a whole message has been accepted; on a nonblocking
    /// endpoint a flush that cannot complete fails with
    /// [`io::ErrorKind::WouldBlock`] and is safe to retry.
    fn try_write(&mut self, _buf: &[u8]) -> io::Result<Progress> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "transport has no nonblocking mode",
        ))
    }

    /// Consume the transport into independently owned read and write
    /// halves, so a demultiplexer thread can block on reads while other
    /// threads write (the foundation of the [`mux`] layer). Splitting
    /// restores blocking mode and clears any read deadline; per-message
    /// accounting moves to the layer above. Transports whose two directions
    /// cannot be separated return [`io::ErrorKind::Unsupported`] (the
    /// default).
    fn into_split(self: Box<Self>) -> io::Result<(ReadHalf, WriteHalf)> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "transport cannot be split",
        ))
    }
}

impl Transport for Box<dyn Transport> {
    fn stats(&self) -> TransportStats {
        (**self).stats()
    }

    fn set_read_deadline(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        (**self).set_read_deadline(timeout)
    }

    fn reconnect(&mut self) -> io::Result<()> {
        (**self).reconnect()
    }

    fn set_observer(&mut self, obs: ObsHandle) {
        (**self).set_observer(obs)
    }

    fn set_nonblocking(&mut self, nonblocking: bool) -> io::Result<()> {
        (**self).set_nonblocking(nonblocking)
    }

    fn poll_readable(&mut self) -> io::Result<bool> {
        (**self).poll_readable()
    }

    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<Progress> {
        (**self).try_read(buf)
    }

    fn try_write(&mut self, buf: &[u8]) -> io::Result<Progress> {
        (**self).try_write(buf)
    }

    fn into_split(self: Box<Self>) -> io::Result<(ReadHalf, WriteHalf)> {
        (*self).into_split()
    }
}
