//! The disarmed observability hot path performs no heap allocation.
//!
//! A counting `#[global_allocator]` wraps the system allocator; emitting
//! every event kind through a disarmed [`ObsHandle`] must leave the
//! allocation counter untouched. This is the overhead guarantee the
//! instrumented layers rely on: with no observer installed, per-call
//! bookkeeping is a `None` check over `Copy` payloads.

use rcuda_core::SimTime;
use rcuda_obs::{CallSpan, Dir, ObsHandle, Op, ServerSpan};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Per thread, so a test counts only what its own thread allocates: the
    /// harness allocates on the main thread (spawning the sibling test,
    /// printing results) at moments no test controls.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn disarmed_emissions_never_allocate() {
    let handle = ObsHandle::none();
    let span = CallSpan {
        op: Op::Named("cudaMemcpyH2D"),
        bytes_sent: 1_048_596,
        bytes_received: 4,
        start: SimTime::from_nanos(10),
        end: SimTime::from_nanos(900),
        retries: 0,
    };
    let server = ServerSpan {
        op: Op::Named("cudaMemcpyH2D"),
        queue_wait: SimTime::ZERO,
        start: SimTime::from_nanos(200),
        end: SimTime::from_nanos(700),
    };

    // Warm anything lazily initialized before the measured window.
    handle.emit_call(&span);

    let before = allocations();
    for i in 0..10_000u64 {
        handle.emit_call(&span);
        handle.emit_message(Dir::Sent, 1_048_596 + i);
        handle.emit_message(Dir::Received, 4);
        handle.emit_retry(Op::Named("cudaLaunch"), (i % 3) as u32);
        handle.emit_reconnect();
        handle.emit_server(&server);
        let clone = handle.clone();
        clone.emit_call(&span);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disarmed ObsHandle allocated on the hot path"
    );
}

#[test]
fn op_labels_are_copy_and_allocation_free() {
    let before = allocations();
    for _ in 0..1_000 {
        let op = Op::Named("cudaThreadSynchronize");
        let copy = op;
        assert_eq!(copy.group(), "cudaThreadSynchronize");
        let batch = Op::Batch(16);
        assert_eq!(batch.group(), "batch");
    }
    let after = allocations();
    assert_eq!(after - before, 0, "Op handling allocated");
}
