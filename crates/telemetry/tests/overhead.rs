//! Disabled-path overhead guarantee: with no subscriber installed, opening
//! and dropping a span performs ZERO heap allocations, and a counter
//! increment likewise. This is the contract that makes it safe to leave
//! instrumentation in hot paths (solver inner loops, per-operator PCTL
//! evaluation) in release builds.
//!
//! This lives in its own integration-test binary because (a) it needs a
//! global counting allocator, which the `#![forbid(unsafe_code)]` library
//! itself must not contain, and (b) no other test in this binary may
//! install a subscriber.
//!
//! Allocations are counted per thread: the test harness runs the tests of
//! this binary on sibling threads, and their allocations must not land in
//! another test's measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tml_telemetry::{counter, span};

struct CountingAllocator;

thread_local! {
    // A const-initialized `Cell` has no destructor and no lazy init, so
    // touching it from inside the allocator never allocates or recurses.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates directly to the system allocator; the counter update
// touches only this thread's const-initialized `Cell`, with no other side
// effects. `try_with` skips counting during thread teardown.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made by the calling thread while `f` runs.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

#[test]
fn disabled_spans_and_counters_allocate_nothing() {
    assert!(!tml_telemetry::enabled(), "no subscriber may be installed in this binary");

    // Warm up thread-locals (lazy init may allocate once, legitimately).
    {
        let _g = span!("warmup", i = 1_u64);
        counter!("warmup.count", 1);
    }

    let (allocs, _) = allocations_during(|| {
        for i in 0..1000_u64 {
            let _outer = span!("model_repair.solve", restart = i);
            let _inner = span!("solver.restart", restart = i, dims = 4_u64);
            counter!("solver.penalty.evaluations", i);
        }
    });
    assert_eq!(allocs, 0, "disabled telemetry fast path must not allocate");
}

#[test]
fn disabled_spans_allocate_nothing_under_a_trace_context() {
    assert!(!tml_telemetry::enabled(), "no subscriber may be installed in this binary");

    // Install the trace context BEFORE the counted window: the first
    // TRACE_STACK push may allocate (Vec growth), which is install-time
    // cost, not per-span cost.
    let ctx = tml_telemetry::TraceContext::derive(7, 3).with_parent_span(11);
    let _trace = tml_telemetry::with_trace(ctx);
    {
        let _g = span!("warmup", i = 1_u64);
        counter!("warmup.count", 1);
    }

    let (allocs, _) = allocations_during(|| {
        for i in 0..1000_u64 {
            let _span = span!("runtime.job", job = i);
            counter!("runtime.attempt.failures", 1);
        }
    });
    assert_eq!(allocs, 0, "trace propagation must stay free while disabled");
}

#[test]
fn disabled_span_guard_is_inert() {
    let g = span!("nothing");
    assert_eq!(g.id(), None);
}
