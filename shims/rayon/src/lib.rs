//! Offline stand-in for `rayon`.
//!
//! Implements the data-parallel surface this workspace uses with scoped
//! OS threads instead of a work-stealing pool. The design constraint is
//! **determinism**: every adapter preserves input order, and every
//! reduction combines per-chunk partial results in chunk order, so a
//! pipeline's output is bit-identical for any thread count (only the
//! wall-clock changes). That property is what lets the planner promise
//! identical plans at `RAYON_NUM_THREADS=1,2,8`.
//!
//! Thread-count resolution, in priority order:
//! 1. the programmatic override ([`ThreadPoolBuilder::build_global`] or
//!    [`set_global_threads`], e.g. from the CLI `--threads` flag),
//! 2. the `RAYON_NUM_THREADS` environment variable, re-read on every
//!    parallel call (unlike upstream rayon, which samples it once) so
//!    tests can vary it within one process,
//! 3. `std::thread::available_parallelism()`.

use std::sync::atomic::{AtomicUsize, Ordering};

static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Set the global thread-count override (0 clears it).
pub fn set_global_threads(n: usize) {
    GLOBAL_THREADS.store(n, Ordering::SeqCst);
}

/// The number of threads parallel calls will use right now.
pub fn current_num_threads() -> usize {
    let n = GLOBAL_THREADS.load(Ordering::SeqCst);
    if n > 0 {
        return n;
    }
    if let Ok(s) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Minimal `rayon::ThreadPoolBuilder` look-alike; only global
/// configuration is supported.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Start building.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request `n` threads (0 = automatic).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Install the configuration globally. Unlike upstream rayon this
    /// may be called repeatedly; the last call wins.
    pub fn build_global(self) -> Result<(), std::convert::Infallible> {
        set_global_threads(self.num_threads);
        Ok(())
    }
}

/// Worker count for a parallel pass over `len` items with a minimum
/// chunk size of `min_len`: enough threads that every chunk holds at
/// least `min_len` items, never more than [`current_num_threads`].
/// Spawning a thread for a handful of cheap items costs more than the
/// items themselves; the `with_min_len` hint is how callers say so.
fn effective_threads(len: usize, min_len: usize) -> usize {
    current_num_threads()
        .min(len.div_ceil(min_len.max(1)))
        .min(len.max(1))
}

/// Run `f` over `items` on up to [`effective_threads`] scoped threads,
/// returning outputs in input order.
fn run_map<T, U, F>(items: Vec<T>, min_len: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let len = items.len();
    let threads = effective_threads(len, min_len);
    if threads <= 1 || len <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk_size = len.div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut rest = items;
    while !rest.is_empty() {
        let take = chunk_size.min(rest.len());
        let tail = rest.split_off(take);
        chunks.push(std::mem::replace(&mut rest, tail));
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(move || chunk.into_iter().map(f).collect::<Vec<U>>()))
            .collect();
        let mut out = Vec::with_capacity(len);
        for h in handles {
            out.extend(h.join().expect("parallel worker panicked"));
        }
        out
    })
}

/// The single parallel-iterator type. Adapters evaluate eagerly (each
/// `map`/`filter` is one parallel pass), which keeps results ordered and
/// the implementation obviously correct.
pub struct ParIter<T> {
    items: Vec<T>,
    /// Minimum items per worker chunk (the `with_min_len` hint);
    /// propagated through adapters like rayon's producer splitting.
    min_len: usize,
}

impl<T: Send> ParIter<T> {
    /// Pair each item with its index (order-preserving).
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
            min_len: self.min_len,
        }
    }

    /// Parallel map; output order equals input order.
    pub fn map<U: Send, F: Fn(T) -> U + Sync>(self, f: F) -> ParIter<U> {
        ParIter {
            items: run_map(self.items, self.min_len, f),
            min_len: self.min_len,
        }
    }

    /// Parallel filter-map; surviving items keep their relative order.
    pub fn filter_map<U: Send, F: Fn(T) -> Option<U> + Sync>(self, f: F) -> ParIter<U> {
        ParIter {
            items: run_map(self.items, self.min_len, f)
                .into_iter()
                .flatten()
                .collect(),
            min_len: self.min_len,
        }
    }

    /// Parallel filter.
    pub fn filter<F: Fn(&T) -> bool + Sync>(self, f: F) -> ParIter<T> {
        ParIter {
            items: run_map(
                self.items,
                self.min_len,
                |t| if f(&t) { Some(t) } else { None },
            )
            .into_iter()
            .flatten()
            .collect(),
            min_len: self.min_len,
        }
    }

    /// Parallel flat-map; each item's expansion stays contiguous and in
    /// input order.
    pub fn flat_map<U: Send, I, F>(self, f: F) -> ParIter<U>
    where
        I: IntoIterator<Item = U>,
        F: Fn(T) -> I + Sync,
    {
        ParIter {
            items: run_map(self.items, self.min_len, |t| {
                f(t).into_iter().collect::<Vec<U>>()
            })
            .into_iter()
            .flatten()
            .collect(),
            min_len: self.min_len,
        }
    }

    /// Parallel for-each.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        run_map(self.items, self.min_len, &f);
    }

    /// Rayon-style reduction: per-chunk folds combined in chunk order.
    /// Deterministic for associative `op` regardless of thread count.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> T
    where
        ID: Fn() -> T + Sync,
        OP: Fn(T, T) -> T + Sync,
    {
        let len = self.items.len();
        let threads = effective_threads(len, self.min_len);
        if threads <= 1 || len <= 1 {
            return self.items.into_iter().fold(identity(), &op);
        }
        let chunk_size = len.div_ceil(threads);
        let mut chunks: Vec<Vec<T>> = Vec::new();
        let mut rest = self.items;
        while !rest.is_empty() {
            let take = chunk_size.min(rest.len());
            let tail = rest.split_off(take);
            chunks.push(std::mem::replace(&mut rest, tail));
        }
        let (identity, op) = (&identity, &op);
        let partials: Vec<T> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| scope.spawn(move || chunk.into_iter().fold(identity(), op)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("parallel worker panicked"))
                .collect()
        });
        partials.into_iter().fold(identity(), op)
    }

    /// Minimum by comparator (first minimum wins, as in sequential code).
    pub fn min_by<F: Fn(&T, &T) -> std::cmp::Ordering + Sync>(self, cmp: F) -> Option<T> {
        self.items.into_iter().min_by(|a, b| {
            // `Iterator::min_by` keeps the *last* minimum; invert equal
            // ordering so the first one wins like rayon's documented
            // "first" semantics for stable reductions.
            match cmp(a, b) {
                std::cmp::Ordering::Equal => std::cmp::Ordering::Less,
                o => o,
            }
        })
    }

    /// Number of items.
    pub fn count(self) -> usize {
        self.items.len()
    }

    /// Collect into any `FromIterator` container, preserving order.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Require at least `len` items per worker chunk. Caps the effective
    /// worker count at `ceil(items / len)`, so short inputs of cheap
    /// items stop paying a thread spawn per handful of elements. `0` is
    /// treated as `1` (rayon's semantics: no constraint).
    pub fn with_min_len(self, len: usize) -> Self {
        ParIter {
            items: self.items,
            min_len: len.max(1),
        }
    }
}

impl<T: Send + std::iter::Sum<T>> ParIter<T> {
    /// Sum all items (sequential combine, deterministic order).
    pub fn sum<S: std::iter::Sum<T>>(self) -> S {
        self.items.into_iter().sum()
    }
}

/// Conversion into a parallel iterator by value.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Create the parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter {
            items: self,
            min_len: 1,
        }
    }
}

impl<T: Send> IntoParallelIterator for std::ops::Range<T>
where
    std::ops::Range<T>: Iterator<Item = T>,
{
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter {
            items: self.collect(),
            min_len: 1,
        }
    }
}

/// Conversion into a parallel iterator over references.
pub trait IntoParallelRefIterator<'a> {
    /// Item type (a reference).
    type Item: Send;
    /// Create the parallel iterator.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
            min_len: 1,
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
            min_len: 1,
        }
    }
}

/// The glob-importable prelude, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParIter};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Every test sets the process-wide thread override (or the env
    /// var), and the harness runs tests concurrently: hold this while a
    /// test owns the global configuration.
    fn exclusive() -> MutexGuard<'static, ()> {
        static GLOBAL_CONFIG: Mutex<()> = Mutex::new(());
        GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn map_preserves_order_across_thread_counts() {
        let _config = exclusive();
        let input: Vec<u64> = (0..10_000).collect();
        let expect: Vec<u64> = input.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8] {
            set_global_threads(threads);
            let got: Vec<u64> = input.clone().into_par_iter().map(|x| x * 3 + 1).collect();
            assert_eq!(got, expect, "threads={threads}");
        }
        set_global_threads(0);
    }

    #[test]
    fn reduce_is_deterministic_for_associative_ops() {
        let _config = exclusive();
        let input: Vec<u64> = (1..=1000).collect();
        for threads in [1, 2, 7] {
            set_global_threads(threads);
            let s = input.clone().into_par_iter().reduce(|| 0, |a, b| a + b);
            assert_eq!(s, 500_500, "threads={threads}");
        }
        set_global_threads(0);
    }

    #[test]
    fn for_each_visits_every_item() {
        let _config = exclusive();
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits = AtomicUsize::new(0);
        set_global_threads(4);
        (0..257usize)
            .collect::<Vec<_>>()
            .into_par_iter()
            .for_each(|_| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        set_global_threads(0);
        assert_eq!(hits.load(Ordering::SeqCst), 257);
    }

    #[test]
    fn env_var_is_read_dynamically() {
        let _config = exclusive();
        set_global_threads(0);
        std::env::set_var("RAYON_NUM_THREADS", "3");
        assert_eq!(current_num_threads(), 3);
        std::env::remove_var("RAYON_NUM_THREADS");
    }

    #[test]
    fn with_min_len_caps_worker_fanout() {
        let _config = exclusive();
        use std::collections::HashSet;
        set_global_threads(8);
        let seen = Mutex::new(HashSet::new());
        (0..8usize)
            .collect::<Vec<_>>()
            .into_par_iter()
            .with_min_len(4)
            .for_each(|_| {
                seen.lock().unwrap().insert(std::thread::current().id());
            });
        // ceil(8 / 4) = 2 chunks: at most two distinct workers.
        assert!(seen.lock().unwrap().len() <= 2);
        assert_eq!(effective_threads(8, 4), 2);
        assert_eq!(effective_threads(8, 1), 8);
        assert_eq!(effective_threads(3, 100), 1);
        assert_eq!(effective_threads(0, 0), 0);
        set_global_threads(0);
    }

    #[test]
    fn min_len_survives_adapter_chains() {
        let _config = exclusive();
        set_global_threads(8);
        let out: Vec<usize> = (0..10usize)
            .collect::<Vec<_>>()
            .into_par_iter()
            .with_min_len(5)
            .enumerate()
            .map(|(i, x)| i + x)
            .filter(|&v| v % 2 == 0)
            .collect();
        set_global_threads(0);
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12, 14, 16, 18]);
    }

    #[test]
    fn min_by_keeps_first_minimum() {
        let _config = exclusive();
        set_global_threads(2);
        let items = vec![(3, 'a'), (1, 'b'), (1, 'c'), (2, 'd')];
        let got = items.into_par_iter().min_by(|a, b| a.0.cmp(&b.0)).unwrap();
        set_global_threads(0);
        assert_eq!(got, (1, 'b'));
    }
}
