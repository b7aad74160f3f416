//! Replay journal for daemon-failure failover.
//!
//! When the daemon holding a session dies, the parked context dies with
//! it: the client's `Reconnect` presents a token no surviving daemon
//! knows, and resume is rejected. With a journal armed the client can do
//! better than giving up. The simulated GPU's allocator is deterministic
//! (first-fit over a fixed base, same alignment everywhere), so replaying
//! the session's state-mutating prefix on a fresh context reproduces the
//! same device pointers, stream/event handles, and memory contents, bit
//! for bit. The journal records exactly that prefix: every completed call
//! that changed context state, together with the handle the original
//! daemon answered.
//!
//! Replay is verified, not assumed. Each replayed call's response must
//! equal the recorded outcome; any divergence means the rebuilt context
//! is *not* the session the application was using, and the failover
//! aborts with [`rcuda_core::CudaError::SessionLost`] rather than
//! returning plausible-but-wrong results.
//!
//! The journal is bounded: host-to-device payloads dominate its weight,
//! so once the configured byte cap is exceeded the journal irreversibly
//! disarms (recording stops, the buffered prefix is dropped) and the
//! session falls back to resume-only recovery. A disarmed journal is
//! honest — a truncated one could only replay a context that diverges
//! from the real session silently.

use rcuda_proto::{Payload, Request, Response};

/// What the original daemon answered to a journaled call — verified
/// against the replaying daemon's response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Expect {
    /// Bare acknowledgement.
    Ack,
    /// `cudaMalloc` returned this device address.
    Ptr(u32),
    /// `cudaStreamCreate` returned this handle.
    Stream(u32),
    /// `cudaEventCreate` returned this handle.
    Event(u32),
}

impl Expect {
    /// Does the replay's response reproduce the recorded outcome?
    pub(crate) fn matches(&self, resp: &Response) -> bool {
        match (self, resp) {
            (Expect::Ack, Response::Ack(Ok(()))) => true,
            (Expect::Ptr(addr), Response::Malloc(Ok(p))) => p.addr() == *addr,
            (Expect::Stream(h), Response::StreamCreate(Ok(r))) => r == h,
            (Expect::Event(h), Response::EventCreate(Ok(r))) => r == h,
            _ => false,
        }
    }
}

/// The session's replayable state-mutating prefix.
pub(crate) struct FailoverJournal {
    /// Module bytes shipped at initialization (replayed via the resumable
    /// hello that re-creates the context on the surviving daemon).
    module: Vec<u8>,
    /// Completed state-mutating calls in submission order, each with its
    /// verified outcome.
    ops: Vec<(Request, Expect)>,
    /// Journal weight in request wire bytes.
    bytes: u64,
    /// Byte cap; exceeding it disarms the journal for good.
    cap: u64,
    overflowed: bool,
}

impl FailoverJournal {
    pub(crate) fn new(cap: u64) -> FailoverJournal {
        FailoverJournal {
            module: Vec::new(),
            ops: Vec::new(),
            bytes: 0,
            cap,
            overflowed: false,
        }
    }

    /// Still able to replay (the cap was never exceeded).
    pub(crate) fn armed(&self) -> bool {
        !self.overflowed
    }

    pub(crate) fn len(&self) -> usize {
        self.ops.len()
    }

    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    pub(crate) fn module(&self) -> &[u8] {
        &self.module
    }

    pub(crate) fn set_module(&mut self, module: &[u8]) {
        self.module = module.to_vec();
    }

    pub(crate) fn ops(&self) -> &[(Request, Expect)] {
        &self.ops
    }

    /// Record one completed exchange, if it mutated context state. Pure
    /// reads (D2H copies, queries) and synchronization don't shape the
    /// context, so they are not replayed; failed calls changed nothing.
    pub(crate) fn observe(&mut self, req: &Request, resp: &Response) {
        if self.overflowed || !req.journaled() {
            return;
        }
        let expect = match resp {
            Response::Ack(Ok(())) => Expect::Ack,
            Response::Malloc(Ok(p)) => Expect::Ptr(p.addr()),
            Response::StreamCreate(Ok(h)) => Expect::Stream(*h),
            Response::EventCreate(Ok(h)) => Expect::Event(*h),
            _ => return,
        };
        self.push(own_payload(req.clone()), expect);
    }

    /// Record an exchange that bypassed [`Request`] marshalling (the
    /// borrowed H2D fast paths): the caller reconstructs the equivalent
    /// owned request.
    pub(crate) fn record(&mut self, req: Request, expect: Expect) {
        if self.overflowed {
            return;
        }
        self.push(req, expect);
    }

    fn push(&mut self, req: Request, expect: Expect) {
        self.bytes += req.wire_bytes();
        if self.bytes > self.cap {
            self.ops.clear();
            self.ops.shrink_to_fit();
            self.overflowed = true;
            return;
        }
        self.ops.push((req, expect));
    }
}

/// Detach a journaled request from the buffer pool: a pooled payload held
/// for the journal's lifetime would pin its recycled buffer forever.
fn own_payload(mut req: Request) -> Request {
    if let Request::Memcpy { data: Some(d), .. } | Request::MemcpyAsync { data: Some(d), .. } =
        &mut req
    {
        if let Payload::Pooled(buf) = d {
            *d = Payload::Owned(buf.to_vec());
        }
    }
    req
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcuda_core::{CudaError, DevicePtr};
    use rcuda_proto::ids::MemcpyKind;

    fn h2d(size: u32) -> Request {
        Request::Memcpy {
            dst: 0x1000,
            src: 0,
            size,
            kind: MemcpyKind::HostToDevice,
            data: Some(Payload::Owned(vec![7; size as usize])),
        }
    }

    #[test]
    fn state_mutators_are_journaled_with_their_outcomes() {
        let mut j = FailoverJournal::new(1 << 20);
        j.observe(
            &Request::Malloc { size: 64 },
            &Response::Malloc(Ok(DevicePtr::new(0x1000))),
        );
        j.observe(&h2d(64), &Response::Ack(Ok(())));
        j.observe(&Request::StreamCreate, &Response::StreamCreate(Ok(3)));
        assert_eq!(j.len(), 3);
        assert_eq!(j.ops()[0].1, Expect::Ptr(0x1000));
        assert_eq!(j.ops()[2].1, Expect::Stream(3));
    }

    #[test]
    fn reads_syncs_and_failures_are_not_journaled() {
        let mut j = FailoverJournal::new(1 << 20);
        // A pure read.
        j.observe(
            &Request::Memcpy {
                dst: 0,
                src: 0x1000,
                size: 4,
                kind: MemcpyKind::DeviceToHost,
                data: None,
            },
            &Response::MemcpyToHost(Ok(Payload::Owned(vec![0; 4]))),
        );
        // Synchronization.
        j.observe(&Request::ThreadSynchronize, &Response::Ack(Ok(())));
        // A failed mutation changed nothing.
        j.observe(
            &Request::Malloc { size: u32::MAX },
            &Response::Malloc(Err(CudaError::MemoryAllocation)),
        );
        assert_eq!(j.len(), 0);
    }

    #[test]
    fn overflow_disarms_for_good() {
        let mut j = FailoverJournal::new(100);
        j.observe(&h2d(32), &Response::Ack(Ok(())));
        assert!(j.armed());
        j.observe(&h2d(64), &Response::Ack(Ok(())));
        assert!(!j.armed(), "cap exceeded");
        assert_eq!(j.len(), 0, "buffered prefix dropped");
        // Nothing rearms it.
        j.observe(
            &Request::Malloc { size: 4 },
            &Response::Malloc(Ok(DevicePtr::new(0x1000))),
        );
        assert!(!j.armed());
        assert_eq!(j.len(), 0);
    }

    #[test]
    fn expectations_verify_replay_responses() {
        assert!(Expect::Ack.matches(&Response::Ack(Ok(()))));
        assert!(!Expect::Ack.matches(&Response::Ack(Err(CudaError::InvalidValue))));
        assert!(Expect::Ptr(0x2000).matches(&Response::Malloc(Ok(DevicePtr::new(0x2000)))));
        assert!(
            !Expect::Ptr(0x2000).matches(&Response::Malloc(Ok(DevicePtr::new(0x3000)))),
            "a diverging allocator layout must fail verification"
        );
        assert!(Expect::Event(9).matches(&Response::EventCreate(Ok(9))));
        assert!(!Expect::Stream(1).matches(&Response::EventCreate(Ok(1))));
    }

    #[test]
    fn journaled_pooled_payloads_are_detached_from_the_pool() {
        let pool = rcuda_proto::BufferPool::new();
        let mut j = FailoverJournal::new(1 << 20);
        let req = Request::Memcpy {
            dst: 0x1000,
            src: 0,
            size: 4,
            kind: MemcpyKind::HostToDevice,
            data: Some(Payload::Pooled(pool.copy_from(&[1, 2, 3, 4]))),
        };
        j.observe(&req, &Response::Ack(Ok(())));
        match &j.ops()[0].0 {
            Request::Memcpy {
                data: Some(Payload::Owned(v)),
                ..
            } => assert_eq!(v, &[1, 2, 3, 4]),
            other => panic!("expected owned payload, got {other:?}"),
        }
    }
}
