//! Typed recycling of per-component `Output` buffers.
//!
//! The per-request hot path stopped allocating correlation vectors in the
//! zero-allocation pass (per-worker scratch in [`crate::processor`]), but
//! every request still allocated its per-component output — a
//! `Vec<PredictionAcc>` for the recommender, a `TopK` heap for the search
//! engine. [`OutputPool`] closes that last steady-state allocation: the
//! fan-out service checks buffers out before stage 1
//! ([`ApproximateService::process_synopsis_into`](crate::ApproximateService::process_synopsis_into)
//! resets them in place) and returns them after composing the response, so
//! a **warm** server serves requests and whole batches without touching the
//! heap for outputs.
//!
//! The pool is deliberately dumb: a mutex around a stack of buffers, with a
//! retention cap so a one-off giant batch cannot pin memory forever. All
//! buffers are interchangeable because every service resets a recycled
//! buffer before use — a pool hit changes *where the storage came from*,
//! never *what the request computes*.
//!
//! # Example
//!
//! ```
//! use at_core::OutputPool;
//!
//! let pool: OutputPool<Vec<f64>> = OutputPool::new();
//! assert!(pool.get().is_none(), "cold pool has nothing to recycle");
//!
//! // A request's output buffer comes back after composition...
//! pool.put(vec![0.25, 0.5]);
//! // ...and the next request reuses its storage instead of allocating.
//! let recycled = pool.get().expect("warm pool serves the buffer back");
//! assert_eq!(recycled.capacity() >= 2, true);
//! assert_eq!(pool.reuses(), 1);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Buffers retained by default; `put` drops beyond this, bounding the
/// memory a burst of huge batches can leave behind.
const DEFAULT_RETAIN: usize = 4096;

/// A typed recycler for request output buffers.
///
/// `get` pops a previously returned buffer (or `None` when cold — the
/// caller then allocates fresh, exactly once per buffer ever in flight);
/// `put` returns a buffer for the next request. The component legs of a
/// serve run in order on the serving thread, so they take turns on the
/// pool; the lock keeps it safe to share (`&OutputPool` is `Sync` for
/// `T: Send`).
#[derive(Debug)]
pub struct OutputPool<T> {
    free: Mutex<Vec<T>>,
    retain: usize,
    reuses: AtomicUsize,
    discarded_on_poison: AtomicUsize,
}

impl<T> Default for OutputPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> OutputPool<T> {
    /// An empty pool retaining at most [`DEFAULT_RETAIN`] buffers.
    pub fn new() -> Self {
        Self::with_retention(DEFAULT_RETAIN)
    }

    /// An empty pool retaining at most `retain` buffers; `put` beyond that
    /// drops the buffer instead of growing the pool.
    pub fn with_retention(retain: usize) -> Self {
        OutputPool {
            free: Mutex::new(Vec::new()),
            retain,
            reuses: AtomicUsize::new(0),
            discarded_on_poison: AtomicUsize::new(0),
        }
    }

    /// Lock the free list, recovering from a poisoned mutex. A panicking
    /// thread (e.g. a fan-out leg dying mid-request) must not turn
    /// every later serve into a panic cascade: the pooled buffers are only
    /// recycled storage, so recovery is simply discarding the free list —
    /// subsequent requests allocate fresh, exactly like a cold pool. The
    /// buffers thrown away are counted in
    /// [`discarded_on_poison`](Self::discarded_on_poison): silent pool
    /// capacity loss after a contained panic would otherwise read as an
    /// inexplicable allocation-rate regression.
    fn free_list(&self) -> MutexGuard<'_, Vec<T>> {
        match self.free.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.free.clear_poison();
                let mut guard = poisoned.into_inner();
                self.discarded_on_poison
                    .fetch_add(guard.len(), Ordering::Relaxed);
                guard.clear();
                guard
            }
        }
    }

    /// Check a recycled buffer out, if any. The caller owns it until the
    /// matching [`put`](Self::put).
    pub fn get(&self) -> Option<T> {
        let buf = self.free_list().pop();
        if buf.is_some() {
            self.reuses.fetch_add(1, Ordering::Relaxed);
        }
        buf
    }

    /// Check up to `n` recycled buffers out into `into` (used by the batch
    /// path to seed one buffer per request in a single lock acquisition).
    pub fn get_up_to(&self, n: usize, into: &mut Vec<T>) {
        let mut free = self.free_list();
        let take = n.min(free.len());
        let keep = free.len() - take;
        into.extend(free.drain(keep..));
        drop(free);
        self.reuses.fetch_add(take, Ordering::Relaxed);
    }

    /// Return a buffer for reuse; dropped silently once the retention cap
    /// is reached.
    pub fn put(&self, buf: T) {
        let mut free = self.free_list();
        if free.len() < self.retain {
            free.push(buf);
        }
    }

    /// Buffers currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.free_list().len()
    }

    /// True when no buffer is idle (a cold pool, or all checked out).
    pub fn is_empty(&self) -> bool {
        self.idle() == 0
    }

    /// Total buffers ever served back out of the pool. Monotone; a warm
    /// server's reuse count grows with every request. For services that
    /// override `process_synopsis_into` to reset buffers in place this
    /// equals the output allocations avoided; a service on the default
    /// hook overwrites the recycled buffer with a fresh allocation, so
    /// there the count only measures pool traffic.
    pub fn reuses(&self) -> usize {
        self.reuses.load(Ordering::Relaxed)
    }

    /// Idle buffers thrown away while recovering a poisoned free list
    /// (see [`free_list`](Self::free_list)). Monotone; nonzero means a
    /// worker died holding the pool lock and the pool restarted cold.
    pub fn discarded_on_poison(&self) -> usize {
        self.discarded_on_poison.load(Ordering::Relaxed)
    }
}

/// Prepare `outs` as one output buffer per request of an `n`-request
/// batch: buffers beyond `n` are dropped, recycled buffers (which may hold
/// *any* prior request's state) are reset in place via `reset(buf, i)`,
/// and the remainder is created fresh via `make(i)`.
///
/// This is the recycled-output prologue every
/// [`ApproximateService::process_synopsis_batch`](crate::ApproximateService::process_synopsis_batch)
/// override needs; sharing it keeps the subtle recycled-index bookkeeping
/// in one place.
pub fn prepare_outputs<T>(
    outs: &mut Vec<T>,
    n: usize,
    mut reset: impl FnMut(&mut T, usize),
    mut make: impl FnMut(usize) -> T,
) {
    outs.truncate(n);
    for (i, out) in outs.iter_mut().enumerate() {
        reset(out, i);
    }
    for i in outs.len()..n {
        outs.push(make(i));
    }
}

/// Pick the request-tile width for a cache-tiled
/// [`ApproximateService::process_synopsis_batch`](crate::ApproximateService::process_synopsis_batch)
/// pass, once per batch.
///
/// The batch pass streams every synopsis point past every request. Untiled,
/// a wide batch cycles through more per-request state (request views,
/// accumulators, correlation tails) than L1 holds, so each point
/// eviction-misses its way down the request column — tiling caps how much
/// request state is live at once, trading one extra synopsis stream per
/// tile for L1-resident inner iterations. `row_nnz` is the mean aggregated-row size: bigger rows
/// mean more per-request merge state, hence narrower tiles.
///
/// Pure arithmetic on two integers — no clocks, no allocation; both
/// adapters share it so the tiling heuristic stays in one place.
pub fn batch_tile_span(n_reqs: usize, row_nnz: usize) -> usize {
    // Budget roughly half a 32 KiB L1d for request-side state, leaving the
    // other half to the streaming point row and the accumulator writes.
    const L1_BUDGET_BYTES: usize = 16 * 1024;
    // Per request per point-entry touched: view value + word overhead on
    // the profile side plus an accumulator slot — ~24 bytes amortised.
    const BYTES_PER_ENTRY: usize = 24;
    let per_req = row_nnz.max(1).saturating_mul(BYTES_PER_ENTRY);
    (L1_BUDGET_BYTES / per_req).max(4).min(n_reqs.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_span_is_clamped_and_monotone() {
        // Never zero, never wider than the batch.
        assert_eq!(batch_tile_span(0, 100), 1);
        assert_eq!(batch_tile_span(1, 0), 1);
        assert_eq!(batch_tile_span(64, usize::MAX / 16), 4);
        // Denser rows never widen the tile.
        let mut last = usize::MAX;
        for nnz in [1usize, 8, 64, 512, 4096] {
            let t = batch_tile_span(1024, nnz);
            assert!((1..=1024).contains(&t));
            assert!(t <= last, "tile must shrink as rows densify");
            last = t;
        }
        // Small batches are a single tile.
        assert_eq!(batch_tile_span(3, 10_000), 3);
    }

    #[test]
    fn prepare_outputs_resets_recycled_and_makes_fresh() {
        let mut outs = vec![vec![9u8; 3], vec![8u8; 1], vec![7u8]];
        // Shrinking batch: excess buffer dropped, survivors reset.
        prepare_outputs(
            &mut outs,
            2,
            |b, i| *b = vec![i as u8],
            |i| vec![i as u8; 2],
        );
        assert_eq!(outs, vec![vec![0], vec![1]]);
        // Growing batch: both recycled buffers reset, two made fresh.
        prepare_outputs(
            &mut outs,
            4,
            |b, i| *b = vec![i as u8],
            |i| vec![i as u8; 2],
        );
        assert_eq!(outs, vec![vec![0], vec![1], vec![2, 2], vec![3, 3]]);
    }

    #[test]
    fn cold_pool_yields_nothing() {
        let pool: OutputPool<Vec<u8>> = OutputPool::new();
        assert!(pool.get().is_none());
        assert!(pool.is_empty());
        assert_eq!(pool.reuses(), 0);
    }

    #[test]
    fn put_then_get_recycles() {
        let pool = OutputPool::new();
        pool.put(vec![1u8, 2, 3]);
        assert_eq!(pool.idle(), 1);
        let buf = pool.get().unwrap();
        assert_eq!(buf, vec![1, 2, 3]);
        assert_eq!(pool.reuses(), 1);
        assert!(pool.is_empty());
    }

    #[test]
    fn retention_cap_drops_excess() {
        let pool = OutputPool::with_retention(2);
        for i in 0..5u8 {
            pool.put(vec![i]);
        }
        assert_eq!(pool.idle(), 2, "puts beyond the cap are dropped");
    }

    #[test]
    fn get_up_to_takes_at_most_available() {
        let pool = OutputPool::new();
        pool.put(vec![1u8]);
        pool.put(vec![2u8]);
        let mut out = Vec::new();
        pool.get_up_to(5, &mut out);
        assert_eq!(out.len(), 2);
        assert!(pool.is_empty());
        assert_eq!(pool.reuses(), 2);
        // And takes exactly n when more are idle.
        for i in 0..4u8 {
            pool.put(vec![i]);
        }
        let mut out = Vec::new();
        pool.get_up_to(3, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn poisoned_pool_recovers_by_discarding_free_list() {
        let pool: OutputPool<Vec<u8>> = OutputPool::new();
        pool.put(vec![1]);
        pool.put(vec![2]);
        // A worker dies while holding the pool lock, poisoning the mutex.
        let worker = std::thread::scope(|s| {
            s.spawn(|| {
                // lint: allow(lock-hygiene) reason=deliberately poisons the lock to exercise the recovery path under test
                let _guard = pool.free.lock().unwrap();
                // lint: allow(panic-freedom) reason=the test-harness panic that poisons the lock
                panic!("worker panics with the pool locked");
            })
            .join()
        });
        assert!(worker.is_err(), "the worker must actually have panicked");
        assert!(pool.free.is_poisoned());
        assert_eq!(
            pool.discarded_on_poison(),
            0,
            "nothing discarded until someone touches the poisoned pool"
        );
        // Every later operation recovers instead of cascading the panic:
        // the free list is discarded (cold-pool behaviour)...
        assert!(pool.get().is_none());
        assert_eq!(pool.idle(), 0);
        let mut out = Vec::new();
        pool.get_up_to(4, &mut out);
        assert!(out.is_empty());
        // ...the two idle buffers lost to recovery are accounted for...
        assert_eq!(pool.discarded_on_poison(), 2);
        // ...and the pool recycles normally from then on.
        assert!(!pool.free.is_poisoned());
        pool.put(vec![3]);
        assert_eq!(pool.get(), Some(vec![3]));
        assert_eq!(pool.reuses(), 1, "only the post-recovery get reused");
        assert_eq!(pool.discarded_on_poison(), 2, "recovery counted once");
    }

    #[test]
    fn shared_across_threads() {
        let pool: OutputPool<Vec<u64>> = OutputPool::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let pool = &pool;
                s.spawn(move || {
                    for i in 0..50 {
                        let mut buf = pool.get().unwrap_or_default();
                        buf.clear();
                        buf.push(t * 1000 + i);
                        pool.put(buf);
                    }
                });
            }
        });
        assert!(pool.idle() <= 4, "at most one buffer per thread in flight");
    }
}
