//! Process CPU time, and which CPU a thread runs on.
//!
//! CPU time (user + system, all threads, exited ones included) is read
//! with `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` rather than from
//! `/proc/self/stat`: the latter counts in 10 ms ticks, which is the whole
//! CPU cost of one failover window.
//!
//! Placement exists because the stack is bistable on a small box: whether
//! a client thread shares a CPU with the thread serving it decides if a
//! `yield_now` or a wake-up hands it the CPU at once (~15 us a TCP call)
//! or the server naps first (~500 us), and the kernel's choice sticks for
//! whole runs. The harness therefore decides where a workload's two sides
//! run (see `Plan::server_side`), by setting the affinity a thread's
//! children inherit.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// The kernel's `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// CPU time this process has consumed so far.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, which `main.rs` requires) that outlives the
    // call, and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// The CPUs this thread may run on, lowest first (empty if the kernel
/// will not say).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// The CPUs the process was allowed at start, and the two the workloads
/// place their sides on: the first two of them (the same one twice on a
/// one-CPU box).
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    pub server: usize,
    pub client: usize,
    all: Vec<usize>,
}

impl Placement {
    /// `None` when the kernel reports no affinity mask; placement is then
    /// left to the scheduler.
    pub fn detect() -> Option<Placement> {
        let all = allowed_cpus();
        let server = *all.first()?;
        Some(Placement {
            server,
            client: all.get(1).copied().unwrap_or(server),
            all,
        })
    }

    /// Give the calling thread back every CPU it started with.
    pub fn release(&self) {
        pin_current_thread(&self.all);
    }
}

/// Confine the calling thread — and every thread it spawns from now on —
/// to `cpus`. Returns false (and changes nothing) if the kernel refuses.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    let mut mask: CpuSet = [0; 16];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < 1024) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        // Other tests share this process, so only a lower bound holds.
        let t0 = process_cpu();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let worked = process_cpu() - t0;
        assert!(
            worked >= Duration::from_millis(15),
            "spun 30 ms: {worked:?}"
        );
    }

    #[test]
    fn a_pinned_thread_and_its_children_stay_on_their_cpu() {
        let Some(place) = Placement::detect() else {
            return;
        };
        // On a scratch thread, so the test harness's own stays free.
        std::thread::spawn(move || {
            let before = allowed_cpus();
            assert!(pin_current_thread(&[place.client]));
            assert_eq!(allowed_cpus(), vec![place.client]);
            let child = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(child, vec![place.client], "children inherit the mask");
            place.release();
            assert_eq!(allowed_cpus(), before);
        })
        .join()
        .unwrap();
    }
}
