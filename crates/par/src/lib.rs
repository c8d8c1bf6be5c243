//! Shared primitives: the worker-count knob, an ordered parallel map, and
//! the deterministic Fx hasher ([`fx`]).
//!
//! The state-space engine (exploration, composition, minimization,
//! lumping) is sequential; parallelism pays only across Monte-Carlo
//! trajectory batches, which use [`par_map_min`]. The map is a thin layer
//! over `std::thread::scope` rather than `rayon` (the toolchain is
//! offline), and it returns results **in input order** regardless of
//! which worker computed them, so the output is bit-identical to
//! sequential execution.

pub mod fx;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Worker-count knob shared by every parallel entry point.
///
/// `Workers(1)` (the default) means strictly sequential execution on the
/// calling thread — no pool, no synchronisation, no overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workers(usize);

impl Default for Workers {
    fn default() -> Self {
        Workers(1)
    }
}

impl Workers {
    /// Exactly `n` workers (clamped to at least 1).
    pub fn new(n: usize) -> Self {
        Workers(n.max(1))
    }

    /// Strictly sequential execution.
    pub fn sequential() -> Self {
        Workers(1)
    }

    /// One worker per available hardware thread.
    pub fn auto() -> Self {
        Workers(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    }

    /// The worker count.
    pub fn get(self) -> usize {
        self.0
    }
}

/// Maps `f` over `items`, in parallel when `workers > 1` and there are at
/// least `min_parallel` items, returning results in input order.
///
/// Work is distributed by atomic chunk-stealing so uneven per-item costs
/// balance across workers. Below `min_parallel` items the map runs inline:
/// fine-grained work passes a large threshold (thread spawn + join costs
/// more than it would distribute), coarse items such as whole Monte-Carlo
/// trajectories a small one. `f` must be `Sync` (it is shared, not cloned).
pub fn par_map_min<T, U, F>(workers: Workers, min_parallel: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_stats(workers, min_parallel, items, f).0
}

/// How a [`par_map_stats`] call actually scheduled its work. Because the
/// ordered-results contract makes chunking invisible in the output, these
/// numbers exist purely for performance reporting (the bench emitter
/// records them next to wall times).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParStats {
    /// Items mapped.
    pub items: usize,
    /// Threads that actually ran (1 means the sequential fast path: no
    /// thread was spawned and no atomics were touched).
    pub workers: usize,
    /// Stride of the first grab from the shared cursor.
    pub initial_chunk: usize,
    /// Largest stride any worker grew to.
    pub max_chunk: usize,
    /// Number of grabs from the shared cursor (1 on the sequential path).
    pub grabs: usize,
}

/// Per-grab wall-time target for the adaptive stride: long enough that the
/// cursor `fetch_add` and the timing call are noise, short enough that a
/// straggler's final grab cannot dominate the tail.
const TARGET_GRAB: Duration = Duration::from_micros(200);

/// [`par_map_min`] that also reports the chosen chunking ([`ParStats`]).
///
/// Scheduling is adaptive to per-item cost: every worker starts with a
/// small probe stride and doubles it after each grab that completes faster
/// than `TARGET_GRAB` (200 µs) (halving after grabs 8× over target), capped so at
/// least two grabs per worker remain for load balancing. Cheap items
/// therefore converge to coarse chunks (amortizing the shared cursor),
/// expensive items stay fine-grained (balancing stragglers) — with zero
/// effect on the output, which is written to per-index slots.
///
/// When the *effective* worker count is 1 — sequential request, tiny
/// input, or a single-core machine — the map runs inline on the calling
/// thread with no spawn and no atomics: spawning a lone scoped thread
/// costs tens of microseconds per call.
pub fn par_map_stats<T, U, F>(
    workers: Workers,
    min_parallel: usize,
    items: &[T],
    f: F,
) -> (Vec<U>, ParStats)
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    // Results are scheduling-independent, so oversubscribing the hardware
    // cannot change them — it only adds context-switch overhead. Cap the
    // actual thread count at the machine's parallelism.
    let hw = std::thread::available_parallelism().map_or(usize::MAX, |p| p.get());
    let nworkers = workers.get().min(n).min(hw);
    if nworkers <= 1 || n < min_parallel.max(2) {
        let out = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        let stats = ParStats { items: n, workers: 1, initial_chunk: n, max_chunk: n, grabs: 1 };
        return (out, stats);
    }
    // Probe stride: fine-grained items keep the historical floor of 32,
    // coarse items (small `min_parallel`) may be grabbed one at a time.
    let initial_chunk = (min_parallel / 8).clamp(1, 32);
    // Growth cap: leave every worker at least ~2 grabs for balancing.
    let stride_cap = (n / (nworkers * 2)).max(initial_chunk);
    let cursor = AtomicUsize::new(0);
    let grabs = AtomicUsize::new(0);
    let max_chunk = AtomicUsize::new(initial_chunk);
    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let slots = SendSlices(out.as_mut_ptr());

    std::thread::scope(|scope| {
        for _ in 0..nworkers {
            let cursor = &cursor;
            let grabs = &grabs;
            let max_chunk = &max_chunk;
            let f = &f;
            let slots = &slots;
            scope.spawn(move || {
                let mut stride = initial_chunk;
                loop {
                    let start = cursor.fetch_add(stride, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + stride).min(n);
                    let t0 = Instant::now();
                    for (i, item) in items.iter().enumerate().take(end).skip(start) {
                        // SAFETY: each index is visited by exactly one worker
                        // (disjoint chunks from the atomic cursor), so no slot
                        // is written twice or concurrently.
                        unsafe { slots.write(i, f(i, item)) };
                    }
                    grabs.fetch_add(1, Ordering::Relaxed);
                    let dt = t0.elapsed();
                    if dt < TARGET_GRAB && stride < stride_cap {
                        stride = stride.saturating_mul(2).min(stride_cap);
                        max_chunk.fetch_max(stride, Ordering::Relaxed);
                    } else if dt > TARGET_GRAB * 8 && stride > 1 {
                        stride /= 2;
                    }
                }
            });
        }
    });

    let stats = ParStats {
        items: n,
        workers: nworkers,
        initial_chunk,
        max_chunk: max_chunk.into_inner(),
        grabs: grabs.into_inner(),
    };
    (out.into_iter().map(|slot| slot.expect("slot filled")).collect(), stats)
}

/// Shared mutable access to the result slots of [`par_map_stats`], restricted
/// to the disjoint-index discipline documented there.
struct SendSlices<U>(*mut Option<U>);

// SAFETY: workers write disjoint indices and the owning Vec outlives the
// scope; the raw pointer itself is plain data.
unsafe impl<U: Send> Sync for SendSlices<U> {}
unsafe impl<U: Send> Send for SendSlices<U> {}

impl<U> SendSlices<U> {
    /// # Safety
    /// `i` must be in bounds and visited by exactly one thread.
    unsafe fn write(&self, i: usize, value: U) {
        unsafe { *self.0.add(i) = Some(value) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The threshold fine-grained callers pass.
    const FINE: usize = 256;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..10_000).collect();
        let seq = par_map_min(Workers::sequential(), FINE, &items, |i, &x| x * 3 + i as u64);
        let par = par_map_min(Workers::new(4), FINE, &items, |i, &x| x * 3 + i as u64);
        assert_eq!(seq, par);
        assert_eq!(par[17], 17 * 3 + 17);
    }

    #[test]
    fn par_map_small_input_uses_sequential_path() {
        let items = [1, 2, 3];
        let out = par_map_min(Workers::new(8), FINE, &items, |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn par_map_min_distributes_small_batches() {
        let items: Vec<u32> = (0..48).collect();
        let seq =
            par_map_min(Workers::sequential(), 2, &items, |i, &x| u64::from(x) * 7 + i as u64);
        let par = par_map_min(Workers::new(4), 2, &items, |i, &x| u64::from(x) * 7 + i as u64);
        assert_eq!(seq, par);
    }

    #[test]
    fn par_map_handles_uneven_work() {
        let items: Vec<u32> = (0..2_000).collect();
        let out = par_map_min(Workers::new(3), FINE, &items, |_, &x| {
            // Skewed cost: later items spin longer.
            let mut acc = 0u64;
            for k in 0..(x as u64 % 97) {
                acc = acc.wrapping_add(k * k);
            }
            (x as u64, acc)
        });
        assert_eq!(out.len(), items.len());
        assert!(out.iter().enumerate().all(|(i, &(x, _))| x == i as u64));
    }

    #[test]
    fn par_map_stats_sequential_path_reports_one_worker() {
        let items: Vec<u32> = (0..10_000).collect();
        let (out, stats) = par_map_stats(Workers::sequential(), 2, &items, |_, &x| x);
        assert_eq!(out.len(), 10_000);
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.grabs, 1);
        assert_eq!(stats.items, 10_000);
    }

    #[test]
    fn par_map_stats_parallel_matches_sequential() {
        let items: Vec<u64> = (0..5_000).collect();
        let (seq, _) = par_map_stats(Workers::sequential(), 2, &items, |i, &x| x + i as u64);
        let (par, stats) = par_map_stats(Workers::new(4), 2, &items, |i, &x| x + i as u64);
        assert_eq!(seq, par);
        assert!(stats.workers >= 1);
        assert!(stats.max_chunk >= stats.initial_chunk);
        assert!(stats.grabs >= 1);
    }
}
