//! In-process transport over `std::sync::mpsc` channels.
//!
//! Messages buffer locally until `flush`, then travel as one `Vec<u8>` —
//! preserving the protocol's message boundaries without any real I/O.
//! Dropping one endpoint makes the peer's reads fail with
//! `UnexpectedEof` and its writes with `BrokenPipe`, mirroring socket
//! behavior so connection-loss handling can be tested in-process.

use rcuda_obs::{Dir, ObsHandle};
use std::io::{self, Read, Write};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::time::Duration;

use crate::stats::TransportStats;
use crate::{Progress, Transport};

/// One endpoint of an in-process duplex byte stream.
pub struct ChannelTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    /// Bytes written since the last flush.
    out_buf: Vec<u8>,
    /// Received message currently being consumed.
    in_buf: Vec<u8>,
    in_pos: usize,
    /// Bound on waiting for the next message (`set_read_deadline`).
    read_timeout: Option<Duration>,
    stats: TransportStats,
    obs: ObsHandle,
}

/// Create a connected pair of endpoints.
pub fn channel_pair() -> (ChannelTransport, ChannelTransport) {
    let (tx_a, rx_b) = channel();
    let (tx_b, rx_a) = channel();
    let mk = |tx, rx| ChannelTransport {
        tx,
        rx,
        out_buf: Vec::new(),
        in_buf: Vec::new(),
        in_pos: 0,
        read_timeout: None,
        stats: TransportStats::default(),
        obs: ObsHandle::none(),
    };
    (mk(tx_a, rx_a), mk(tx_b, rx_b))
}

impl ChannelTransport {
    /// Deliver the pending message to the peer (internal flush step).
    fn deliver(&mut self) -> io::Result<()> {
        if self.out_buf.is_empty() {
            return Ok(());
        }
        let msg = std::mem::take(&mut self.out_buf);
        self.stats.record_message();
        self.obs.emit_message(Dir::Sent, msg.len() as u64);
        self.tx
            .send(msg)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"))
    }

    /// Bytes of the current pending (unflushed) message.
    pub fn pending_bytes(&self) -> usize {
        self.out_buf.len()
    }
}

impl Read for ChannelTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.in_pos >= self.in_buf.len() {
            let next = match self.read_timeout {
                Some(t) => self.rx.recv_timeout(t).map_err(|e| match e {
                    RecvTimeoutError::Timeout => {
                        io::Error::new(io::ErrorKind::TimedOut, "read deadline exceeded")
                    }
                    RecvTimeoutError::Disconnected => {
                        io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed")
                    }
                }),
                None => self
                    .rx
                    .recv()
                    .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed")),
            };
            match next {
                Ok(msg) => {
                    self.obs.emit_message(Dir::Received, msg.len() as u64);
                    self.in_buf = msg;
                    self.in_pos = 0;
                    self.stats.record_message_received();
                }
                Err(e) => return Err(e),
            }
        }
        let n = buf.len().min(self.in_buf.len() - self.in_pos);
        buf[..n].copy_from_slice(&self.in_buf[self.in_pos..self.in_pos + n]);
        self.in_pos += n;
        self.stats.record_recv(n as u64);
        Ok(n)
    }
}

impl Write for ChannelTransport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.out_buf.extend_from_slice(buf);
        self.stats.record_send(buf.len() as u64);
        Ok(buf.len())
    }

    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        // The pending message is one Vec anyway: append every piece so a
        // vectored caller completes in a single call.
        let mut total = 0;
        for b in bufs {
            self.out_buf.extend_from_slice(b);
            total += b.len();
        }
        self.stats.record_send(total as u64);
        Ok(total)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.deliver()
    }
}

/// The receive half of a split [`ChannelTransport`]: blocking reads off the
/// `mpsc` receiver, carrying over any bytes the unsplit transport had
/// already buffered.
pub struct ChannelReadHalf {
    rx: Receiver<Vec<u8>>,
    in_buf: Vec<u8>,
    in_pos: usize,
}

impl io::Read for ChannelReadHalf {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        while self.in_pos >= self.in_buf.len() {
            match self.rx.recv() {
                Ok(msg) => {
                    self.in_buf = msg;
                    self.in_pos = 0;
                }
                // Peer gone: EOF, the natural shutdown signal for a
                // demultiplexer thread blocked here.
                Err(_) => return Ok(0),
            }
        }
        let n = buf.len().min(self.in_buf.len() - self.in_pos);
        buf[..n].copy_from_slice(&self.in_buf[self.in_pos..self.in_pos + n]);
        self.in_pos += n;
        Ok(n)
    }
}

/// The send half of a split [`ChannelTransport`]: buffers writes and
/// delivers one channel message per flush, like the unsplit transport.
pub struct ChannelWriteHalf {
    tx: Sender<Vec<u8>>,
    out_buf: Vec<u8>,
}

impl io::Write for ChannelWriteHalf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.out_buf.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.out_buf.is_empty() {
            return Ok(());
        }
        let msg = std::mem::take(&mut self.out_buf);
        self.tx
            .send(msg)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer dropped"))
    }
}

impl Transport for ChannelTransport {
    fn stats(&self) -> TransportStats {
        self.stats
    }

    fn set_read_deadline(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.read_timeout = timeout;
        Ok(())
    }

    fn set_observer(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    // Channels are inherently nonblocking-capable: `try_recv` never parks,
    // and sends on the unbounded channel never block. `set_nonblocking` is
    // therefore a mode-free no-op — the blocking and nonblocking halves
    // coexist on the same endpoint.
    fn set_nonblocking(&mut self, _nonblocking: bool) -> io::Result<()> {
        Ok(())
    }

    fn poll_readable(&mut self) -> io::Result<bool> {
        // Undrained staged message, a queued message, or a hung-up peer
        // (EOF) all let a read make progress. A queued message is staged
        // here so the subsequent `try_read` serves it without re-polling.
        if self.in_pos < self.in_buf.len() {
            return Ok(true);
        }
        match self.rx.try_recv() {
            Ok(msg) => {
                self.obs.emit_message(Dir::Received, msg.len() as u64);
                self.in_buf = msg;
                self.in_pos = 0;
                self.stats.record_message_received();
                Ok(true)
            }
            Err(TryRecvError::Empty) => Ok(false),
            Err(TryRecvError::Disconnected) => Ok(true),
        }
    }

    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<Progress> {
        if self.in_pos >= self.in_buf.len() {
            match self.rx.try_recv() {
                Ok(msg) => {
                    self.obs.emit_message(Dir::Received, msg.len() as u64);
                    self.in_buf = msg;
                    self.in_pos = 0;
                    self.stats.record_message_received();
                }
                Err(TryRecvError::Empty) => return Ok(Progress::Pending),
                // A gone peer is EOF, matching socket semantics.
                Err(TryRecvError::Disconnected) => return Ok(Progress::Ready(0)),
            }
        }
        let n = buf.len().min(self.in_buf.len() - self.in_pos);
        buf[..n].copy_from_slice(&self.in_buf[self.in_pos..self.in_pos + n]);
        self.in_pos += n;
        self.stats.record_recv(n as u64);
        Ok(Progress::Ready(n))
    }

    fn try_write(&mut self, buf: &[u8]) -> io::Result<Progress> {
        // The out buffer and channel are unbounded: a write always lands.
        // Delivery to the peer still happens at `flush`, which never blocks.
        self.out_buf.extend_from_slice(buf);
        self.stats.record_send(buf.len() as u64);
        Ok(Progress::Ready(buf.len()))
    }

    fn into_split(self: Box<Self>) -> io::Result<(crate::ReadHalf, crate::WriteHalf)> {
        let this = *self;
        Ok((
            Box::new(ChannelReadHalf {
                rx: this.rx,
                in_buf: this.in_buf,
                in_pos: this.in_pos,
            }),
            Box::new(ChannelWriteHalf {
                tx: this.tx,
                out_buf: this.out_buf,
            }),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_one_message() {
        let (mut a, mut b) = channel_pair();
        a.write_all(b"hello").unwrap();
        a.flush().unwrap();
        let mut buf = [0u8; 5];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn message_boundaries_do_not_block_partial_reads() {
        let (mut a, mut b) = channel_pair();
        a.write_all(b"0123456789").unwrap();
        a.flush().unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"0123");
        let mut rest = [0u8; 6];
        b.read_exact(&mut rest).unwrap();
        assert_eq!(&rest, b"456789");
    }

    #[test]
    fn nothing_travels_before_flush() {
        let (mut a, _b) = channel_pair();
        a.write_all(b"buffered").unwrap();
        assert_eq!(a.pending_bytes(), 8);
        assert_eq!(a.stats().messages_sent, 0);
        a.flush().unwrap();
        assert_eq!(a.pending_bytes(), 0);
        assert_eq!(a.stats().messages_sent, 1);
    }

    #[test]
    fn empty_flush_is_not_a_message() {
        let (mut a, _b) = channel_pair();
        a.flush().unwrap();
        assert_eq!(a.stats().messages_sent, 0);
    }

    #[test]
    fn vectored_write_appends_all_pieces_as_one_message() {
        let (mut a, mut b) = channel_pair();
        let n = a
            .write_vectored(&[
                io::IoSlice::new(b"head"),
                io::IoSlice::new(b""),
                io::IoSlice::new(b"body"),
            ])
            .unwrap();
        assert_eq!(n, 8);
        a.flush().unwrap();
        let mut buf = [0u8; 8];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"headbody");
        assert_eq!(a.stats().bytes_sent, 8);
        assert_eq!(a.stats().messages_sent, 1);
    }

    #[test]
    fn dropped_peer_breaks_both_directions() {
        let (mut a, b) = channel_pair();
        drop(b);
        a.write_all(b"x").unwrap();
        assert_eq!(a.flush().unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        let mut buf = [0u8; 1];
        assert_eq!(
            a.read_exact(&mut buf).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn stats_count_bytes_both_ways() {
        let (mut a, mut b) = channel_pair();
        a.write_all(&[0u8; 100]).unwrap();
        a.flush().unwrap();
        let mut buf = [0u8; 100];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(a.stats().bytes_sent, 100);
        assert_eq!(b.stats().bytes_received, 100);
    }

    #[test]
    fn read_deadline_times_out_then_clears() {
        let (mut a, mut b) = channel_pair();
        a.set_read_deadline(Some(Duration::from_millis(10)))
            .unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(
            a.read_exact(&mut buf).unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
        // Data that arrives within the deadline is read normally.
        b.write_all(&[7]).unwrap();
        b.flush().unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(buf, [7]);
        // Clearing the deadline restores blocking reads (peer gone → EOF,
        // not TimedOut).
        a.set_read_deadline(None).unwrap();
        drop(b);
        assert_eq!(
            a.read_exact(&mut buf).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn messages_received_counts_peer_flushes() {
        let (mut a, mut b) = channel_pair();
        for _ in 0..3 {
            a.write_all(b"xy").unwrap();
            a.flush().unwrap();
        }
        let mut buf = [0u8; 6];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(b.stats().messages_received, 3);
        // Partial consumption of one message counts it exactly once.
        a.write_all(b"0123456789").unwrap();
        a.flush().unwrap();
        let mut half = [0u8; 5];
        b.read_exact(&mut half).unwrap();
        b.read_exact(&mut half).unwrap();
        assert_eq!(b.stats().messages_received, 4);
    }

    #[test]
    fn observer_sees_one_event_per_message() {
        let rec = rcuda_obs::Recorder::new();
        let (mut a, mut b) = channel_pair();
        a.set_observer(rec.handle());
        b.set_observer(rec.handle());
        a.write_all(&[0u8; 20]).unwrap();
        a.write_all(&[0u8; 4]).unwrap();
        a.flush().unwrap();
        let mut buf = [0u8; 24];
        b.read_exact(&mut buf[..10]).unwrap();
        b.read_exact(&mut buf[10..]).unwrap();
        let report = rec.report();
        assert_eq!(report.messages.sent_count, 1, "one flush, one send event");
        assert_eq!(report.messages.sent_bytes, 24);
        assert_eq!(
            report.messages.received_count, 1,
            "partial reads consume one message"
        );
        assert_eq!(report.messages.received_bytes, 24);
    }

    #[test]
    fn try_read_reports_pending_then_data_then_eof() {
        let (mut a, mut b) = channel_pair();
        let mut buf = [0u8; 8];
        assert!(!a.poll_readable().unwrap());
        assert_eq!(a.try_read(&mut buf).unwrap(), Progress::Pending);
        b.write_all(b"abc").unwrap();
        b.flush().unwrap();
        assert!(a.poll_readable().unwrap());
        assert_eq!(a.try_read(&mut buf).unwrap(), Progress::Ready(3));
        assert_eq!(&buf[..3], b"abc");
        drop(b);
        assert!(a.poll_readable().unwrap(), "EOF is readable progress");
        assert_eq!(a.try_read(&mut buf).unwrap(), Progress::Ready(0));
    }

    #[test]
    fn try_write_then_flush_delivers_one_message() {
        let (mut a, mut b) = channel_pair();
        assert_eq!(a.try_write(b"he").unwrap(), Progress::Ready(2));
        assert_eq!(a.try_write(b"llo").unwrap(), Progress::Ready(3));
        a.flush().unwrap();
        let mut buf = [0u8; 5];
        assert_eq!(b.try_read(&mut buf).unwrap(), Progress::Ready(5));
        assert_eq!(&buf, b"hello");
        assert_eq!(a.stats().messages_sent, 1);
    }

    #[test]
    fn nonblocking_and_blocking_halves_interleave() {
        let (mut a, mut b) = channel_pair();
        a.set_nonblocking(true).unwrap();
        a.write_all(b"xy").unwrap(); // blocking-half write
        a.flush().unwrap();
        let mut buf = [0u8; 2];
        b.read_exact(&mut buf).unwrap(); // blocking-half read
        assert_eq!(&buf, b"xy");
        b.try_write(b"zw").unwrap();
        b.flush().unwrap();
        assert_eq!(a.try_read(&mut buf).unwrap(), Progress::Ready(2));
        assert_eq!(&buf, b"zw");
    }

    #[test]
    fn split_halves_carry_buffered_bytes_and_signal_eof() {
        let (mut a, mut b) = channel_pair();
        a.write_all(b"first-second").unwrap();
        a.flush().unwrap();
        // Partially consume before splitting: the read half must carry over
        // the rest of the buffered message.
        let mut head = [0u8; 6];
        b.read_exact(&mut head).unwrap();
        assert_eq!(&head, b"first-");
        let (mut rd, mut wr) = (Box::new(b) as Box<dyn Transport>).into_split().unwrap();
        let mut tail = [0u8; 6];
        rd.read_exact(&mut tail).unwrap();
        assert_eq!(&tail, b"second");
        // Write half still delivers one message per flush.
        wr.write_all(b"back").unwrap();
        wr.flush().unwrap();
        let mut echo = [0u8; 4];
        a.read_exact(&mut echo).unwrap();
        assert_eq!(&echo, b"back");
        // Dropping both halves hangs up the peer.
        drop(rd);
        drop(wr);
        assert_eq!(
            a.read_exact(&mut echo).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn works_across_threads() {
        let (mut a, mut b) = channel_pair();
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 3];
            b.read_exact(&mut buf).unwrap();
            b.write_all(&buf).unwrap();
            b.flush().unwrap();
        });
        a.write_all(b"abc").unwrap();
        a.flush().unwrap();
        let mut echo = [0u8; 3];
        a.read_exact(&mut echo).unwrap();
        assert_eq!(&echo, b"abc");
        t.join().unwrap();
    }
}
