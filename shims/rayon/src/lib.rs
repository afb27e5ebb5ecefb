//! Offline API-subset shim for the `rayon` crate.
//!
//! Implements the `par_iter`/`into_par_iter` → `map` → `collect` shape
//! on `std::thread::scope` with an atomic work queue (dynamic load
//! balancing, like rayon). Results always come back in input order, so
//! parallel runs are bit-identical to serial ones — a property the
//! simulator's batch runner relies on.
//!
//! Worker count is `available_parallelism`, clamped by the
//! `RAYON_NUM_THREADS` environment variable when set (same knob as
//! upstream rayon).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker-thread count: `RAYON_NUM_THREADS` if set, else the machine's
/// available parallelism, always at least 1.
#[must_use]
pub fn current_num_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get)
}

/// Runs `f` over `items` on scoped worker threads, returning results in
/// input order. The core primitive every adapter lowers to.
fn parallel_map_ordered<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = current_num_threads().min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let out: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("work queue lock never poisoned")
                    .take()
                    .expect("each slot taken exactly once");
                let r = f(item);
                *out[i].lock().expect("result lock never poisoned") = Some(r);
            });
        }
    });
    out.into_iter()
        .map(|m| m.into_inner().expect("result lock never poisoned").expect("every index computed"))
        .collect()
}

/// A to-be-parallelised sequence of items.
#[derive(Debug)]
pub struct ParIter<I> {
    items: Vec<I>,
}

impl<I: Send> ParIter<I> {
    /// Maps `f` over the items in parallel (lazily: work happens at
    /// [`Map::collect`] / [`Map::for_each`]).
    pub fn map<T, F>(self, f: F) -> Map<I, T, F>
    where
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        Map { items: self.items, f, _out: std::marker::PhantomData }
    }

    /// Runs `f` on every item in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(I) + Sync,
    {
        parallel_map_ordered(self.items, f);
    }
}

/// A mapped parallel iterator.
#[derive(Debug)]
pub struct Map<I, T, F> {
    items: Vec<I>,
    f: F,
    _out: std::marker::PhantomData<fn() -> T>,
}

impl<I: Send, T: Send, F: Fn(I) -> T + Sync> Map<I, T, F> {
    /// Executes the parallel map and collects results in input order.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        parallel_map_ordered(self.items, self.f).into_iter().collect()
    }

    /// Executes the parallel map for its effects.
    pub fn for_each(self) {
        parallel_map_ordered(self.items, self.f);
    }
}

/// Conversion into a parallel iterator by value.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Builds the parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter { items: self.collect() }
    }
}

/// Conversion into a parallel iterator over references.
pub trait IntoParallelRefIterator<'a> {
    /// Item type (a reference).
    type Item: Send;
    /// Builds the parallel iterator over `&self`'s elements.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter { items: self.iter().collect() }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter { items: self.iter().collect() }
    }
}

pub mod prelude {
    //! The usual `use rayon::prelude::*;` imports.
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..100).into_par_iter().map(|i| i * i).collect::<Vec<_>>();
        assert_eq!(v, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_over_refs() {
        let xs = vec![1u64, 2, 3, 4];
        let doubled: Vec<u64> = xs.par_iter().map(|x| x * 2).collect::<Vec<_>>();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
    }

    #[test]
    fn for_each_runs_every_item() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let sum = AtomicU64::new(0);
        (0..50usize).into_par_iter().for_each(|i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 49 * 50 / 2);
    }

    #[test]
    fn empty_input_is_fine() {
        let v: Vec<u32> = Vec::<u32>::new().into_par_iter().map(|x| x).collect::<Vec<_>>();
        assert!(v.is_empty());
    }
}
