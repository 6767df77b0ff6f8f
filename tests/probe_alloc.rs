//! Dynamic half of the **hot-path-alloc** invariant (static half:
//! `cargo run -p at-analysis -- --check`; see ANALYSIS.md).
//!
//! A counting `#[global_allocator]` wraps the system allocator and
//! proves, at runtime, what the lint claims statically:
//!
//! 1. a warm single-component `execute_pooled` request makes **zero**
//!    allocations — scratch is thread-local, the output buffer comes
//!    from the pool, ranking is in place;
//! 2. a warm `serve_batch` of 64 requests allocates the same number of
//!    times under `SynopsisOnly` (zero improvement work) as under
//!    `Budgeted { sets: MAX }` (maximal improvement work) — i.e. the
//!    per-set improvement loop contributes **zero** allocations, the
//!    only allocations left are the O(batch) response envelopes;
//! 3. across repeated warm `serve_batch_64` calls the allocator's net
//!    outstanding bytes do not move: the steady state neither leaks nor
//!    grows buffers;
//! 4. a warm `serve` makes the same number of allocations on a
//!    one-component and a six-component deployment — the fan-out adds
//!    none per component — and no more than 11.
//!
//! The file holds exactly ONE `#[test]` so no sibling test thread can
//! touch the global counters mid-measurement. The deployment has six
//! components, whose legs run in order on the serving thread.

// The counting allocator is the one sanctioned use of `unsafe` in the
// workspace; the root package downgrades forbid->deny to let this
// file-scoped allow through.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::time::Instant;

use at_bench::deployments::{build_recommender, DeployScale, RecDeployment};
use at_core::ExecutionPolicy;
use at_recommender::ActiveUser;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static OUTSTANDING: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        OUTSTANDING.fetch_add(layout.size() as isize, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        OUTSTANDING.fetch_sub(layout.size() as isize, Ordering::SeqCst);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        OUTSTANDING.fetch_add(new_size as isize - layout.size() as isize, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> usize {
    ALLOCS.load(Ordering::SeqCst)
}

fn outstanding() -> isize {
    OUTSTANDING.load(Ordering::SeqCst)
}

#[test]
fn warm_hot_path_is_allocation_free() {
    let scale = DeployScale {
        n_components: 6,
        rows_per_component: 150,
        n_columns: 120,
        n_requests: 80,
        seed: 7,
    };
    let dep = build_recommender(scale);
    let service = &dep.service;
    let batch: Vec<ActiveUser> = dep
        .requests
        .iter()
        .cycle()
        .take(64)
        .map(|r| r.active.clone())
        .collect();
    assert!(!dep.requests.is_empty(), "deployment produced no requests");

    // --- 1. Warm single-request component path: literally zero. -------
    let comp = &service.components()[0];
    let pool = service.pool();
    let req = &dep.requests[0].active;
    let policy = ExecutionPolicy::budgeted(3);
    let submitted = Instant::now();
    for _ in 0..8 {
        let out = comp.execute_pooled(req, &policy, submitted, pool);
        pool.put(out.output);
    }
    let before = allocs();
    for _ in 0..32 {
        let out = comp.execute_pooled(req, &policy, submitted, pool);
        black_box(out.sets_processed);
        pool.put(out.output);
    }
    assert_eq!(
        allocs() - before,
        0,
        "warm execute_pooled allocated — a hot-path-alloc regression the \
         static pass missed (new callee? construct not in the forbid list?)"
    );

    // --- 2. serve_batch_64: allocations independent of the budget. ----
    let zero_work = ExecutionPolicy::SynopsisOnly;
    let max_work = ExecutionPolicy::Budgeted {
        sets: usize::MAX,
        imax: None,
    };
    for _ in 0..3 {
        black_box(service.serve_batch(&batch, &zero_work));
        black_box(service.serve_batch(&batch, &max_work));
    }
    let a = allocs();
    black_box(service.serve_batch(&batch, &zero_work));
    let cost_zero_work = allocs() - a;
    let a = allocs();
    black_box(service.serve_batch(&batch, &zero_work));
    let cost_zero_work_again = allocs() - a;
    let a = allocs();
    black_box(service.serve_batch(&batch, &max_work));
    let cost_max_work = allocs() - a;
    assert_eq!(
        cost_zero_work, cost_zero_work_again,
        "warm serve_batch_64 is not in an allocation steady state"
    );
    assert_eq!(
        cost_max_work, cost_zero_work,
        "processing every ranked set allocated more than processing none — \
         the per-set improvement loop is supposed to be allocation-free"
    );

    // --- 3. Warm steady state neither leaks nor grows. ----------------
    let bytes = outstanding();
    for _ in 0..5 {
        black_box(service.serve_batch(&batch, &max_work));
    }
    assert_eq!(
        outstanding() - bytes,
        0,
        "repeated warm serve_batch_64 shifted net outstanding bytes — \
         a leak or unbounded buffer growth in the steady state"
    );

    // --- 4. Warm serve: no allocation per component. -------------------
    let single = build_recommender(DeployScale {
        n_components: 1,
        ..scale
    });
    let warm_serve_allocs = |dep: &RecDeployment| {
        let req = &dep.requests[0].active;
        for _ in 0..8 {
            black_box(dep.service.serve(req, &policy));
        }
        let a = allocs();
        black_box(dep.service.serve(req, &policy));
        allocs() - a
    };
    let (one, six) = (warm_serve_allocs(&single), warm_serve_allocs(&dep));
    assert!(
        one == six && six <= 11,
        "warm serve allocated {one} times on one component and {six} on six — \
         the fan-out must add no allocation per component, and at most 11 in all"
    );
}
