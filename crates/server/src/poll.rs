//! Readiness waiting for the reactor shards: `poll(2)` (the shim in
//! [`rcuda_transport::poll`]) over a shard's TCP sockets plus one wake pipe
//! per shard.
//!
//! A shard whose pass moved nothing blocks in [`PollSet::wait`] until a
//! watched socket is ready, its wake pipe is written, or an optional
//! timeout passes. The pipe carries every event that is not a socket's
//! readiness to a blocked shard: a connection handed to it, daemon halt, a
//! drain mode change, an armed migration order ([`Wakers`]).

use rcuda_transport::poll::{poll, PollFd, POLLIN};
use std::io::{self, Read, Write};
use std::os::raw::c_short;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::OnceLock;
use std::time::Duration;

/// One shard's poll set: its wake pipe first, then the sockets of the
/// current pass. The `Vec` is rebuilt in place before every wait, so once
/// it has grown to the shard's connection count no wait allocates.
pub(crate) struct PollSet {
    fds: Vec<PollFd>,
    wake: UnixStream,
}

impl PollSet {
    /// Forget the previous wait's sockets; the wake pipe stays.
    pub(crate) fn clear(&mut self) {
        self.fds.truncate(1);
    }

    /// Watch `fd` for `events` (`POLLIN`, `POLLOUT` or both) in the next
    /// wait.
    pub(crate) fn watch(&mut self, fd: RawFd, events: c_short) {
        self.fds.push(PollFd::new(fd, events));
    }

    /// Block until a watched socket or the wake pipe is ready, or until
    /// `timeout` passes; `None` waits for readiness alone. An error
    /// (`EINTR`, `ENOMEM`) returns at once: the shard just runs another
    /// pass.
    pub(crate) fn wait(&mut self, timeout: Option<Duration>) {
        let ready = poll(&mut self.fds, timeout);
        if ready > 0 && self.fds[0].revents != 0 {
            // Drain the pipe before the next pass reads the state the
            // wakes announced, so a wake written later still stays
            // readable and cannot be lost.
            let mut sink = [0u8; 64];
            while matches!((&self.wake).read(&mut sink), Ok(n) if n > 0) {}
        }
    }
}

/// The write end of one shard's wake pipe.
pub(crate) struct Waker(UnixStream);

impl Waker {
    /// Make the shard's next (or current) wait return. Never blocks: a
    /// full pipe already holds a wake.
    fn wake(&self) {
        let _ = (&self.0).write(&[1]);
    }
}

/// A connected wake pipe: the waker for whoever changes the shard's state,
/// and the poll set the shard waits on.
pub(crate) fn wake_pipe() -> io::Result<(Waker, PollSet)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    let wake_fd = rx.as_raw_fd();
    let set = PollSet {
        fds: vec![PollFd::new(wake_fd, POLLIN)],
        wake: rx,
    };
    Ok((Waker(tx), set))
}

/// Every shard's waker, installed once the reactor starts. Each setter of
/// shard-visible state outside a socket (halt, drain mode, migration
/// orders) wakes the shards *after* its store, so a shard that misses the
/// store is still woken to read it.
#[derive(Default)]
pub(crate) struct Wakers(OnceLock<Vec<Waker>>);

impl Wakers {
    pub(crate) fn install(&self, wakers: Vec<Waker>) {
        assert!(self.0.set(wakers).is_ok(), "shard wakers installed twice");
    }

    /// Wake shard `i`.
    pub(crate) fn wake(&self, i: usize) {
        if let Some(w) = self.0.get().and_then(|ws| ws.get(i)) {
            w.wake();
        }
    }

    /// Wake every shard.
    pub(crate) fn wake_all(&self) {
        for w in self.0.get().into_iter().flatten() {
            w.wake();
        }
    }
}
