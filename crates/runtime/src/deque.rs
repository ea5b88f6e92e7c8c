//! A bounded Chase–Lev work-stealing deque: the lock-free per-worker
//! queue at the heart of the real executor's dispatch loop.
//!
//! Each worker owns one [`StealDeque`]: it pushes and pops at the
//! *bottom* end without taking any lock, while thieves (other workers
//! that ran dry) remove elements from the *top* end with a single
//! compare-and-swap. This is the classic Chase–Lev layout ("Dynamic
//! circular work-stealing deque", SPAA '05) with one deliberate
//! simplification: the ring does **not** grow. A full deque rejects the
//! push and the caller spills the task to the shared overflow queue (see
//! `crate::dispatch`) — which is exactly the role the global
//! `Mutex<ReadyQueue>` retains after the work-stealing overhaul, and it
//! sidesteps the memory-reclamation problem that dynamic resizing drags
//! in (no epochs, no hazard pointers: a slot is only reused after `top`
//! has moved past it, and a stale read is always discarded by the failing
//! CAS).
//!
//! Why this is memory-safe without garbage collection, in brief:
//!
//! * elements are heap-allocated (`Box<T>`), the ring stores raw
//!   pointers; ownership transfers exactly once, at the moment a
//!   `pop`/`steal` *wins* its race (the CAS on `top`, or for the owner,
//!   holding `bottom` strictly above `top`);
//! * a thief may read a pointer from a slot that the owner is about to
//!   reuse, but reuse requires `bottom` to lap the ring, which the
//!   bounded-capacity push check forbids until `top` has advanced — and
//!   once `top` advanced, the thief's CAS on the old `top` fails and the
//!   stale pointer is dropped *without being dereferenced*;
//! * `Drop` drains whatever remains through `&mut self`, so no element
//!   leaks.
//!
//! Under `--cfg loom` the atomics come from the `loom` facade so the
//! model in `crate::loom_model` can drive the same code.

#[cfg(loom)]
use loom::sync::atomic::{fence, AtomicIsize, AtomicPtr, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{fence, AtomicIsize, AtomicPtr, Ordering};

/// Outcome of a [`StealDeque::steal`] attempt.
#[derive(Debug)]
pub enum Steal<T> {
    /// The deque was observed empty.
    Empty,
    /// Lost a race with the owner or another thief; worth retrying on a
    /// later sweep (the deque was *not* observed empty).
    Retry,
    /// Won the element at the top of the deque.
    Success(Box<T>),
}

/// A bounded lock-free work-stealing deque (see the module docs for the
/// algorithm and its safety argument).
///
/// One thread — the *owner* — may call [`push`](StealDeque::push),
/// [`pop`](StealDeque::pop) and [`pop_top`](StealDeque::pop_top); any
/// number of threads may call [`steal`](StealDeque::steal) and
/// [`len`](StealDeque::len) concurrently.
pub struct StealDeque<T> {
    buf: Box<[AtomicPtr<T>]>,
    mask: isize,
    /// Steal end; only ever incremented, via CAS.
    top: AtomicIsize,
    /// Owner end; written only by the owner.
    bottom: AtomicIsize,
}

// SAFETY: the deque hands each Box<T> to exactly one winner (see the
// module docs); T itself crosses threads, hence the Send bound.
unsafe impl<T: Send> Sync for StealDeque<T> {}
// SAFETY: moving the whole deque moves ownership of the boxed elements.
unsafe impl<T: Send> Send for StealDeque<T> {}

impl<T> StealDeque<T> {
    /// An empty deque holding at most `capacity` elements (rounded up to
    /// the next power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let buf = (0..cap)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        StealDeque {
            buf,
            mask: cap as isize - 1,
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
        }
    }

    /// Ring capacity (elements the deque can hold before spilling).
    pub fn capacity(&self) -> usize {
        self.mask as usize + 1
    }

    /// Number of elements currently queued. Racy by nature when called
    /// by a non-owner — a snapshot, good for telemetry and victim
    /// selection, never for correctness decisions.
    pub fn len(&self) -> usize {
        let b = self.bottom.load(Ordering::Acquire);
        let t = self.top.load(Ordering::Acquire);
        b.saturating_sub(t).max(0) as usize
    }

    /// True when nothing is queued (same snapshot caveat as
    /// [`len`](StealDeque::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Owner-only: append at the bottom. Returns the element back when
    /// the ring is full so the caller can spill it to the overflow queue.
    pub fn push(&self, value: Box<T>) -> Result<(), Box<T>> {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        if b - t > self.mask {
            // Full. A stale (small) `t` only makes this check more
            // conservative, never less — reuse of a live slot is
            // impossible.
            return Err(value);
        }
        let ptr = Box::into_raw(value);
        self.buf[(b & self.mask) as usize].store(ptr, Ordering::Relaxed);
        // Publish the slot before publishing the new bottom, so a thief
        // that observes `bottom = b + 1` also observes the pointer.
        fence(Ordering::Release);
        self.bottom.store(b + 1, Ordering::Release);
        Ok(())
    }

    /// Owner-only: take from the bottom (LIFO — the task most recently
    /// released, the cache-warm end).
    pub fn pop(&self) -> Option<Box<T>> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        // Announce the claim on slot `b` before reading `top`: the SeqCst
        // fence pairs with the one in `steal`, so either the thief sees
        // the decremented bottom (and backs off) or we see its
        // incremented top.
        self.bottom.store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t > b {
            // Empty; restore bottom.
            self.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        let ptr = self.buf[(b & self.mask) as usize].load(Ordering::Relaxed);
        if b > t {
            // More than one element: thieves target `t < b`, no race on
            // slot `b`.
            // SAFETY: `ptr` was written by a successful `push` at index
            // `b` and no other thread can claim slot `b` while
            // `top <= b - 1 < b`; ownership transfers to us exactly once.
            return Some(unsafe { Box::from_raw(ptr) });
        }
        // Exactly one element: race thieves for it via the CAS on top.
        let won = self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok();
        self.bottom.store(b + 1, Ordering::Relaxed);
        if won {
            // SAFETY: winning the CAS on `top == t == b` makes us the
            // unique claimant of slot `b`; the pointer came from `push`.
            Some(unsafe { Box::from_raw(ptr) })
        } else {
            None
        }
    }

    /// Owner-only: take from the *top* (FIFO — the oldest queued task).
    /// Shares the steal path, so FIFO dispatch order is preserved even
    /// while thieves are active. Retries internally on CAS contention.
    pub fn pop_top(&self) -> Option<Box<T>> {
        loop {
            match self.steal() {
                Steal::Empty => return None,
                Steal::Retry => std::hint::spin_loop(),
                Steal::Success(v) => return Some(v),
            }
        }
    }

    /// Thief: try to take the element at the top of the deque.
    pub fn steal(&self) -> Steal<T> {
        let t = self.top.load(Ordering::Acquire);
        // Pair with the SeqCst fence in `pop`: see the claim ordering
        // argument there.
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let ptr = self.buf[(t & self.mask) as usize].load(Ordering::Relaxed);
        if self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            // SAFETY: the CAS succeeded on the `top` we read the slot
            // under, so the slot cannot have been reused (reuse requires
            // `top` to have advanced first — module docs) and we are the
            // unique claimant of index `t`.
            Steal::Success(unsafe { Box::from_raw(ptr) })
        } else {
            Steal::Retry
        }
    }
}

impl<T> Drop for StealDeque<T> {
    fn drop(&mut self) {
        // &mut self: no concurrent owner or thieves; drain what remains.
        let t = self.top.load(Ordering::Relaxed);
        let b = self.bottom.load(Ordering::Relaxed);
        for i in t..b {
            let ptr = self.buf[(i & self.mask) as usize].load(Ordering::Relaxed);
            if !ptr.is_null() {
                // SAFETY: indices in [top, bottom) hold live elements
                // pushed by `push` and claimed by nobody; exclusive
                // access via &mut self.
                drop(unsafe { Box::from_raw(ptr) });
            }
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn lifo_pop_order() {
        let d = StealDeque::with_capacity(8);
        for i in 0..4 {
            d.push(Box::new(i)).unwrap();
        }
        assert_eq!(d.len(), 4);
        let popped: Vec<i32> = std::iter::from_fn(|| d.pop().map(|b| *b)).collect();
        assert_eq!(popped, vec![3, 2, 1, 0]);
        assert!(d.is_empty());
        assert!(d.pop().is_none());
    }

    #[test]
    fn fifo_pop_top_order() {
        let d = StealDeque::with_capacity(8);
        for i in 0..4 {
            d.push(Box::new(i)).unwrap();
        }
        let popped: Vec<i32> = std::iter::from_fn(|| d.pop_top().map(|b| *b)).collect();
        assert_eq!(popped, vec![0, 1, 2, 3]);
    }

    #[test]
    fn steal_takes_the_oldest() {
        let d = StealDeque::with_capacity(8);
        for i in 0..3 {
            d.push(Box::new(i)).unwrap();
        }
        match d.steal() {
            Steal::Success(v) => assert_eq!(*v, 0),
            other => panic!("expected success, got {other:?}"),
        }
        // Owner still sees the newest at the bottom.
        assert_eq!(*d.pop().unwrap(), 2);
    }

    #[test]
    fn full_deque_rejects_push_and_returns_the_element() {
        let d = StealDeque::with_capacity(2);
        assert_eq!(d.capacity(), 2);
        d.push(Box::new(0)).unwrap();
        d.push(Box::new(1)).unwrap();
        let back = d.push(Box::new(2)).unwrap_err();
        assert_eq!(*back, 2);
        // Freeing a slot re-enables pushing.
        assert_eq!(*d.pop_top().unwrap(), 0);
        d.push(Box::new(2)).unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn steal_empty_reports_empty() {
        let d: StealDeque<i32> = StealDeque::with_capacity(4);
        assert!(matches!(d.steal(), Steal::Empty));
    }

    #[test]
    fn drop_frees_remaining_elements() {
        #[derive(Debug)]
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let d = StealDeque::with_capacity(8);
            for _ in 0..5 {
                d.push(Box::new(Counted(Arc::clone(&drops)))).unwrap();
            }
            drop(d.pop()); // one explicit
        }
        assert_eq!(drops.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn concurrent_steals_conserve_elements() {
        // 2 thieves + the owner drain 10_000 elements; every element is
        // claimed exactly once (sum check) and none is lost.
        const N: u64 = 10_000;
        let d = Arc::new(StealDeque::with_capacity(16));
        let claimed = Arc::new(AtomicUsize::new(0));
        let sum = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let thieves: Vec<_> = (0..2)
            .map(|_| {
                let d = Arc::clone(&d);
                let claimed = Arc::clone(&claimed);
                let sum = Arc::clone(&sum);
                let done = Arc::clone(&done);
                std::thread::spawn(move || loop {
                    match d.steal() {
                        Steal::Success(v) => {
                            claimed.fetch_add(1, Ordering::SeqCst);
                            sum.fetch_add(*v, Ordering::SeqCst);
                        }
                        Steal::Retry => std::hint::spin_loop(),
                        Steal::Empty => {
                            if done.load(Ordering::SeqCst) && d.is_empty() {
                                return;
                            }
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for next in 0..N {
            let mut item = Box::new(next);
            loop {
                match d.push(item) {
                    Ok(()) => break,
                    Err(back) => {
                        // Ring full: the owner drains one from its own
                        // bottom to make room, then retries the same box.
                        item = back;
                        if let Some(v) = d.pop() {
                            claimed.fetch_add(1, Ordering::SeqCst);
                            sum.fetch_add(*v, Ordering::SeqCst);
                        }
                    }
                }
            }
        }
        done.store(true, Ordering::SeqCst);
        for h in thieves {
            h.join().unwrap();
        }
        while let Some(v) = d.pop() {
            claimed.fetch_add(1, Ordering::SeqCst);
            sum.fetch_add(*v, Ordering::SeqCst);
        }
        assert_eq!(claimed.load(Ordering::SeqCst) as u64, N);
        assert_eq!(sum.load(Ordering::SeqCst), N * (N - 1) / 2);
    }
}
