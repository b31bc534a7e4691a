//! Debug-build runtime lock-order enforcement.
//!
//! Every shared lock in the server and cluster layers is an
//! [`OrderedMutex`] carrying a [`Rank`], its position in one process-wide
//! total order, and debug builds `debug_assert!` two things about the
//! ranks a thread holds:
//!
//! * **order** — each acquisition's rank is strictly greater than every
//!   rank the thread already holds, so any execution that could deadlock
//!   under some interleaving trips on its *first* out-of-order
//!   acquisition, deterministically, even when the run itself would have
//!   gotten lucky ([`OrderedMutex::lock`]);
//! * **no guard leaves with a message** — where a server or a client puts
//!   a message on the wire, or blocks for one, the thread holds no ranked
//!   lock at all (`assert_none_held`): a guard held across a send
//!   couples the lock order to the peer's backpressure, the cross-node
//!   deadlock shape no per-process order can rule out.
//!
//! Both are armed in every test the workspace runs (tests build with
//! debug assertions) and are the only gate on these invariants: they see
//! the orders that actually execute, closures and trait objects included,
//! which a static pass over names cannot (DESIGN.md §9).
//!
//! Release builds compile the bookkeeping away: `OrderedMutex<T>` is a
//! `parking_lot::Mutex<T>` plus its rank, `lock()` is a plain forwarding
//! call and `assert_none_held` is empty.

use parking_lot::{Mutex, MutexGuard};
use std::ops::{Deref, DerefMut};

/// The process-wide lock order: one variant per ranked lock, acquired in
/// increasing discriminant order. This is the whole rank table — a lock
/// cannot be built without a variant, and rustc rejects two variants with
/// one discriminant (E0081), so names and ranks are unique by
/// construction. Ranks are spaced so a new lock can slot in between
/// without renumbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u32)]
pub enum Rank {
    // The cluster client (`cluster.rs`): two locks per server slot, then
    // the per-travel table, a leaf.
    /// A slot's running server, `None` while it is crashed.
    Handle = 6,
    /// A slot's graph shard (swapped on restart).
    Partition = 7,
    /// The client's per-travel table.
    Travels = 8,
    // One server's shell (`server.rs`, `Shared`).
    /// Travels finished here; the fence for stray messages.
    Retired = 10,
    /// Reliable delivery and the peer-incarnation fence.
    Relay = 40,
    /// Ingests awaiting replica write acks.
    PendingIngest = 65,
    /// Outgoing partition copies.
    Copy = 66,
    /// Pending `rtn()` returns.
    Tokens = 70,
    /// Synchronous-engine step buffers.
    Barrier = 80,
    /// Hosted coordinator state.
    Coords = 90,
}

#[cfg(debug_assertions)]
thread_local! {
    /// Rank of every `OrderedMutex` the current thread holds, in
    /// acquisition order.
    static HELD: std::cell::RefCell<Vec<Rank>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Assert (debug builds) that the current thread holds no ranked lock.
/// Called at every point where a message leaves a server or a client and
/// where the client blocks for one; `at` names the point in the panic.
#[inline]
pub(crate) fn assert_none_held(at: &str) {
    #[cfg(debug_assertions)]
    HELD.with(|held| {
        let held = held.borrow();
        assert!(
            held.is_empty(),
            "ranked lock held across {at}: {held:?}; snapshot what you need, drop the \
             guard, then send",
        );
    });
    #[cfg(not(debug_assertions))]
    let _ = at;
}

/// A `parking_lot::Mutex` with a fixed position in the process-wide lock
/// order. Acquisitions must happen in strictly increasing rank within a
/// thread; debug builds assert this on every `lock()`.
#[derive(Debug)]
pub struct OrderedMutex<T> {
    rank: Rank,
    inner: Mutex<T>,
}

/// RAII guard returned by [`OrderedMutex::lock`]. Derefs to the protected
/// value; dropping it releases the lock and (in debug builds) pops the
/// rank from the thread's held-lock stack.
pub struct OrderedGuard<'a, T> {
    #[cfg(debug_assertions)]
    rank: Rank,
    guard: MutexGuard<'a, T>,
}

impl<T> OrderedMutex<T> {
    /// Create a mutex at position `rank` in the global lock order. Several
    /// mutexes may share a rank (one per server slot, say); two of them may
    /// then never be held together.
    pub const fn new(rank: Rank, value: T) -> Self {
        OrderedMutex {
            rank,
            inner: Mutex::new(value),
        }
    }

    /// Acquire the mutex, asserting (debug builds) that its rank exceeds
    /// every rank this thread already holds.
    pub fn lock(&self) -> OrderedGuard<'_, T> {
        #[cfg(debug_assertions)]
        HELD.with(|held| {
            if let Some(&top) = held.borrow().iter().max() {
                debug_assert!(
                    self.rank > top,
                    "lock-order violation: acquiring `{:?}` (rank {}) while holding \
                     `{top:?}` (rank {}); acquisitions must be in strictly increasing rank",
                    self.rank,
                    self.rank as u32,
                    top as u32,
                );
            }
        });
        let guard = self.inner.lock();
        #[cfg(debug_assertions)]
        HELD.with(|held| held.borrow_mut().push(self.rank));
        OrderedGuard {
            #[cfg(debug_assertions)]
            rank: self.rank,
            guard,
        }
    }

    /// Try to acquire without blocking. A successful `try_lock` still
    /// participates in the held-lock bookkeeping but is exempt from the
    /// ordering assertion: it cannot block, so it cannot deadlock.
    pub fn try_lock(&self) -> Option<OrderedGuard<'_, T>> {
        let guard = self.inner.try_lock()?;
        #[cfg(debug_assertions)]
        HELD.with(|held| held.borrow_mut().push(self.rank));
        Some(OrderedGuard {
            #[cfg(debug_assertions)]
            rank: self.rank,
            guard,
        })
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }

    /// The lock's position in the global order (for diagnostics).
    pub fn rank(&self) -> Rank {
        self.rank
    }
}

impl<T> Drop for OrderedGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(i) = held.iter().rposition(|&r| r == self.rank) {
                held.remove(i);
            }
        });
    }
}

impl<T> Deref for OrderedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for OrderedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_acquisition_is_fine() {
        let a = OrderedMutex::new(Rank::Retired, 0u32);
        let b = OrderedMutex::new(Rank::Relay, 0u32);
        let ga = a.lock();
        let gb = b.lock();
        assert_eq!(*ga + *gb, 0);
    }

    #[test]
    fn reacquire_after_release_is_fine() {
        let a = OrderedMutex::new(Rank::Retired, 0u32);
        let b = OrderedMutex::new(Rank::Relay, 0u32);
        {
            let _gb = b.lock();
        }
        // b was released, so taking a (lower rank) afterwards is legal.
        let _ga = a.lock();
        let _gb = b.lock();
    }

    #[test]
    fn guard_mutation_works() {
        let m = OrderedMutex::new(Rank::Tokens, Vec::new());
        m.lock().push(7u8);
        assert_eq!(*m.lock(), vec![7u8]);
        assert_eq!(m.into_inner(), vec![7u8]);
    }

    #[test]
    fn try_lock_contended_returns_none() {
        let m = OrderedMutex::new(Rank::Tokens, ());
        let _g = m.lock();
        assert!(m.try_lock().is_none());
    }

    // The violation test only exists in debug builds: in release builds the
    // assertion compiles away and there is nothing to trip.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn out_of_order_acquisition_panics() {
        let a = OrderedMutex::new(Rank::Retired, ());
        let b = OrderedMutex::new(Rank::Relay, ());
        let _gb = b.lock();
        let _ga = a.lock(); // rank 10 while holding rank 40: must panic
    }

    #[test]
    fn nothing_held_passes_the_send_check() {
        let a = OrderedMutex::new(Rank::Retired, ());
        drop(a.lock());
        assert_none_held("a test send");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "ranked lock held across a test send: [Relay]")]
    fn a_guard_held_at_a_send_point_panics() {
        let relay = OrderedMutex::new(Rank::Relay, ());
        let _g = relay.lock();
        assert_none_held("a test send");
    }
}
