//! Readiness waits over raw sockets: a `poll(2)` shim (`ppoll` on Linux,
//! for a timeout finer than a millisecond) and the warm window both ends
//! of a connection wait in.
//!
//! A thread that blocks with no timer near lets its CPU sink into a deep
//! idle state, and the wake that ends the block then pays that state's
//! exit. On a virtualised host this is a second mode of 150-350 µs beside
//! the usual 20-50 µs, hit by a share of wakes that changes from run to
//! run. So a side waiting for its peer first waits in [`WARM_WAITS`]
//! slices of [`WARM_WAIT`]: the timer each slice arms keeps the CPU in a
//! shallow sleep, and a peer that answers within the window wakes it
//! quickly. Only a longer silence blocks without a timer. The reactor
//! shards wait this way for requests, [`crate::TcpTransport`]'s blocking
//! reads for replies. The standard library already links libc, so the
//! foreign call needs no dependency.

use std::os::raw::{c_int, c_short};
use std::os::unix::io::RawFd;
use std::time::Duration;

pub const POLLIN: c_short = 0x1;
pub const POLLOUT: c_short = 0x4;

/// Slices of the warm window: a waiter's first `WARM_WAITS` waits end
/// after [`WARM_WAIT`] even when nothing is ready.
pub const WARM_WAITS: u32 = 6;
/// One slice of the warm window.
pub const WARM_WAIT: Duration = Duration::from_micros(700);

/// The kernel's `struct pollfd`.
#[repr(C)]
pub struct PollFd {
    pub fd: c_int,
    pub events: c_short,
    pub revents: c_short,
}

impl PollFd {
    pub fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

#[cfg(any(target_os = "linux", target_os = "android"))]
mod sys {
    use super::PollFd;
    use std::os::raw::{c_int, c_long, c_ulong, c_void};
    use std::ptr;
    use std::time::Duration;

    /// The kernel's `struct timespec` (`time_t` is a `long` on Linux).
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    pub(super) fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> c_int {
        let ts = timeout.map(|t| Timespec {
            tv_sec: t.as_secs().min(c_long::MAX as u64) as c_long,
            tv_nsec: t.subsec_nanos() as c_long,
        });
        let tp = ts.as_ref().map_or(ptr::null(), |ts| ts as *const Timespec);
        // SAFETY: `fds` is a live, exclusively borrowed array of exactly
        // `len()` `struct pollfd`s (`PollFd` is `repr(C)` with the kernel's
        // field types); `tp` is null or points at a timespec that outlives
        // the call; a null sigmask leaves the signal mask alone. ppoll
        // writes only the `revents` fields and keeps no pointer.
        unsafe { ppoll(fds.as_mut_ptr(), fds.len() as c_ulong, tp, ptr::null()) }
    }
}

#[cfg(not(any(target_os = "linux", target_os = "android")))]
mod sys {
    use super::PollFd;
    use std::os::raw::{c_int, c_uint};
    use std::time::Duration;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_uint, timeout: c_int) -> c_int;
    }

    /// Plain `poll(2)` counts in milliseconds: round up, so a bounded
    /// wait never turns into a spin.
    pub(super) fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> c_int {
        let ms = timeout.map_or(-1, |t| {
            t.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int
        });
        // SAFETY: `fds` is a live, exclusively borrowed array of exactly
        // `len()` `struct pollfd`s (`PollFd` is `repr(C)` with the kernel's
        // field types); poll writes only their `revents` fields and keeps
        // no pointer.
        unsafe { poll(fds.as_mut_ptr(), fds.len() as c_uint, ms) }
    }
}

/// Block until one of `fds` is ready or `timeout` passes (`None`: no
/// timeout). Returns the number of ready entries, 0 on timeout, and a
/// negative value on an error (`EINTR`, `ENOMEM`).
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> c_int {
    sys::poll(fds, timeout)
}

/// Block until `fd` is readable (bytes, end of stream or an error to
/// report) or `timeout` passes. False only on a timeout: after a failed
/// wait the caller's read finds out what is wrong.
pub fn wait_readable(fd: RawFd, timeout: Option<Duration>) -> bool {
    poll(&mut [PollFd::new(fd, POLLIN)], timeout) != 0
}
