//! An [`EntropyOracle`] wrapper that counts and samples calls from outside
//! the program.
//!
//! Timing every call is not an option: one Nursery sweep makes ~35M
//! `entropy()` calls, most of them cache hits that cost about as much as the
//! two clock reads that would time them. The wrapper instead counts every
//! call in a per-thread slot (plain loads and stores, no shared cache line)
//! and times a fixed 1-in-[`SAMPLE_EVERY`] sample, scaling the sampled time
//! up to estimate the oracle's busy time. Each sample is corrected by the
//! measured cost of an empty clock read.

use maimon::entropy::{EntropyOracle, OracleStats};
use maimon::relation::AttrSet;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One call in this many is timed. The stride is prime: the mining hot path
/// calls `entropy()` in fixed groups (four per mutual information, two per
/// conditional entropy), and a stride sharing a factor with a group size
/// would keep sampling the same position within it.
pub const SAMPLE_EVERY: u64 = 61;

/// Per-thread counters. Only the owning thread writes them; readers look
/// after the mining fan-out joined its workers, which orders the writes.
#[derive(Default)]
struct Slot {
    calls: AtomicU64,
    sampled: AtomicU64,
    sampled_ns: AtomicU64,
}

impl Slot {
    fn bump(counter: &AtomicU64, by: u64) {
        counter.store(counter.load(Ordering::Relaxed) + by, Ordering::Relaxed);
    }
}

thread_local! {
    /// The calling thread's slot, keyed by the wrapper it belongs to.
    static SLOT: RefCell<Option<(usize, Arc<Slot>)>> = const { RefCell::new(None) };
}

static NEXT_ID: AtomicUsize = AtomicUsize::new(1);

/// Median nanoseconds an `Instant::now()`/`elapsed()` pair reports around
/// nothing.
fn clock_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut samples: Vec<u64> = (0..10_001)
            .map(|_| {
                let t = Instant::now();
                u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    })
}

/// What the wrapper saw.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallStats {
    /// `entropy()` calls made through the wrapper.
    pub calls: u64,
    /// Threads that made at least one call.
    pub threads: usize,
    /// Estimated seconds spent inside the wrapped oracle's `entropy()`.
    pub busy_s: f64,
}

/// Counts and samples calls into `inner`.
pub struct TracedOracle<'a, O: EntropyOracle> {
    inner: &'a O,
    id: usize,
    slots: Mutex<Vec<Arc<Slot>>>,
}

impl<'a, O: EntropyOracle> TracedOracle<'a, O> {
    /// Wraps `inner`.
    pub fn new(inner: &'a O) -> Self {
        clock_overhead_ns();
        TracedOracle { inner, id: NEXT_ID.fetch_add(1, Ordering::Relaxed), slots: Mutex::default() }
    }

    /// Runs `f` on the calling thread's slot, registering one on first use.
    fn with_slot<R>(&self, f: impl FnOnce(&Slot) -> R) -> R {
        SLOT.with(|cell| {
            if !matches!(&*cell.borrow(), Some((id, _)) if *id == self.id) {
                let slot = Arc::new(Slot::default());
                self.slots.lock().expect("slot list lock").push(Arc::clone(&slot));
                *cell.borrow_mut() = Some((self.id, slot));
            }
            let cell = cell.borrow();
            let (_, slot) = cell.as_ref().expect("slot installed above");
            f(slot)
        })
    }

    /// Totals over every thread so far.
    pub fn call_stats(&self) -> CallStats {
        let slots = self.slots.lock().expect("slot list lock");
        let sum = |f: fn(&Slot) -> &AtomicU64| -> u64 {
            slots.iter().map(|s| f(s).load(Ordering::Relaxed)).sum()
        };
        let calls = sum(|s| &s.calls);
        let sampled = sum(|s| &s.sampled);
        let sampled_ns = sum(|s| &s.sampled_ns);
        let busy_s = if sampled == 0 {
            0.0
        } else {
            sampled_ns as f64 * 1e-9 * calls as f64 / sampled as f64
        };
        CallStats { calls, threads: slots.len(), busy_s }
    }
}

impl<O: EntropyOracle> EntropyOracle for TracedOracle<'_, O> {
    fn entropy(&self, attrs: AttrSet) -> f64 {
        self.with_slot(|slot| {
            let n = slot.calls.load(Ordering::Relaxed);
            Slot::bump(&slot.calls, 1);
            if n % SAMPLE_EVERY != 0 {
                return self.inner.entropy(attrs);
            }
            let started = Instant::now();
            let h = self.inner.entropy(attrs);
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let ns = ns.saturating_sub(clock_overhead_ns());
            Slot::bump(&slot.sampled, 1);
            Slot::bump(&slot.sampled_ns, ns);
            h
        })
    }

    fn n_rows(&self) -> usize {
        self.inner.n_rows()
    }

    fn arity(&self) -> usize {
        self.inner.arity()
    }

    fn stats(&self) -> OracleStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maimon::entropy::PliEntropyOracle;

    #[test]
    fn counts_every_call_on_every_thread() {
        let oracle = PliEntropyOracle::with_defaults(maimon_datasets::running_example());
        let traced = TracedOracle::new(&oracle);
        let attrs: AttrSet = [0usize, 1].into_iter().collect();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        assert_eq!(traced.entropy(attrs), oracle.entropy(attrs));
                    }
                });
            }
        });
        let stats = traced.call_stats();
        assert_eq!(stats.calls, 200);
        assert_eq!(stats.threads, 2);
        assert!(stats.busy_s >= 0.0);
    }
}
