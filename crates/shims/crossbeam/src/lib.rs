//! In-tree stand-in for `crossbeam`.
//!
//! Two pieces, matching what the workspace uses:
//!
//! * [`scope`] — crossbeam-style scoped threads (spawn closures borrow the
//!   stack; panics are collected into an `Err` instead of aborting), built
//!   on `std::thread::scope`.
//! * [`deque`] — `Injector` / `Worker` / `Stealer` work-stealing queues.
//!   The shim backs them with mutex-guarded `VecDeque`s rather than
//!   lock-free Chase–Lev deques; same semantics (FIFO injector, FIFO or
//!   LIFO worker by constructor, FIFO steal), more contention under heavy
//!   stealing — fine for the coarse-grained root tasks the enumerator
//!   distributes.

#![forbid(unsafe_code)]
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A handle for spawning threads inside a [`scope`] call.
///
/// Wraps `std::thread::Scope`; spawn closures receive a `&Scope` argument
/// (crossbeam's signature) so nested spawning works.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a thread scoped to the enclosing [`scope`] call.
    pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
    where
        F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let inner = self.inner;
        self.inner.spawn(move || f(&Scope { inner }))
    }
}

/// Runs `f` with a scope handle; all spawned threads are joined before
/// returning.
///
/// # Errors
///
/// Returns `Err` with the panic payload if `f` or any spawned thread
/// panicked (crossbeam's contract; `std::thread::scope` re-raises child
/// panics on join, which the `catch_unwind` here converts back to a value).
pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    catch_unwind(AssertUnwindSafe(|| {
        std::thread::scope(|s| f(&Scope { inner: s }))
    }))
}

pub mod deque {
    //! Work-stealing queues: shared [`Injector`], per-thread [`Worker`],
    //! cross-thread [`Stealer`].

    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex};

    /// Outcome of a steal attempt.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Steal<T> {
        /// The queue was observed empty.
        Empty,
        /// One task was stolen.
        Success(T),
        /// A race was lost; try again.
        Retry,
    }

    impl<T> Steal<T> {
        /// Converts to `Option`, dropping the `Empty`/`Retry` distinction.
        pub fn success(self) -> Option<T> {
            match self {
                Steal::Success(t) => Some(t),
                _ => None,
            }
        }

        /// `true` if the queue was observed empty.
        pub fn is_empty(&self) -> bool {
            matches!(self, Steal::Empty)
        }
    }

    fn locked<T>(q: &Mutex<VecDeque<T>>) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        match q.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// A global FIFO task queue shared by all workers.
    #[derive(Debug)]
    pub struct Injector<T> {
        q: Mutex<VecDeque<T>>,
    }

    impl<T> Default for Injector<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<T> Injector<T> {
        /// Creates an empty injector.
        pub fn new() -> Self {
            Injector {
                q: Mutex::new(VecDeque::new()),
            }
        }

        /// Appends a task to the back of the queue.
        pub fn push(&self, task: T) {
            locked(&self.q).push_back(task);
        }

        /// Steals the task at the front of the queue.
        pub fn steal(&self) -> Steal<T> {
            match locked(&self.q).pop_front() {
                Some(t) => Steal::Success(t),
                None => Steal::Empty,
            }
        }

        /// Steals a batch into `dest`'s queue and pops one task from it.
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            let mut src = locked(&self.q);
            // Take up to half of what is queued (at least one).
            let take = (src.len() / 2).max(1);
            let mut moved: Vec<T> = Vec::with_capacity(take);
            for _ in 0..take {
                match src.pop_front() {
                    Some(t) => moved.push(t),
                    None => break,
                }
            }
            drop(src);
            if moved.is_empty() {
                return Steal::Empty;
            }
            let mut moved = moved.into_iter();
            let first = moved.next().expect("moved at least one task");
            locked(&dest.q).extend(moved);
            Steal::Success(first)
        }

        /// `true` if no tasks are queued.
        pub fn is_empty(&self) -> bool {
            locked(&self.q).is_empty()
        }
    }

    /// A per-thread queue. The owner pushes at the back and pops from the
    /// front ([`Worker::new_fifo`]) or the back ([`Worker::new_lifo`]);
    /// stealers always take from the front.
    #[derive(Debug)]
    pub struct Worker<T> {
        q: Arc<Mutex<VecDeque<T>>>,
        lifo: bool,
    }

    impl<T> Worker<T> {
        fn with_flavor(lifo: bool) -> Self {
            Worker {
                q: Arc::new(Mutex::new(VecDeque::new())),
                lifo,
            }
        }

        /// Creates an empty FIFO worker queue: `pop` returns the oldest
        /// task.
        pub fn new_fifo() -> Self {
            Self::with_flavor(false)
        }

        /// Creates an empty LIFO worker queue: `pop` returns the newest
        /// task.
        pub fn new_lifo() -> Self {
            Self::with_flavor(true)
        }

        /// Pushes a task onto the back of the queue.
        pub fn push(&self, task: T) {
            locked(&self.q).push_back(task);
        }

        /// Pops a task: the oldest for a FIFO worker, the newest for a
        /// LIFO one.
        pub fn pop(&self) -> Option<T> {
            let mut q = locked(&self.q);
            if self.lifo {
                q.pop_back()
            } else {
                q.pop_front()
            }
        }

        /// Creates a stealer handle for other threads.
        pub fn stealer(&self) -> Stealer<T> {
            Stealer { q: self.q.clone() }
        }

        /// `true` if the queue holds no tasks.
        pub fn is_empty(&self) -> bool {
            locked(&self.q).is_empty()
        }
    }

    /// A handle that steals from the opposite end of a [`Worker`]'s queue.
    #[derive(Debug)]
    pub struct Stealer<T> {
        q: Arc<Mutex<VecDeque<T>>>,
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Self {
            Stealer { q: self.q.clone() }
        }
    }

    impl<T> Stealer<T> {
        /// Steals the task at the victim's front.
        pub fn steal(&self) -> Steal<T> {
            match locked(&self.q).pop_front() {
                Some(t) => Steal::Success(t),
                None => Steal::Empty,
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn injector_is_fifo() {
            let inj = Injector::new();
            inj.push(1);
            inj.push(2);
            assert_eq!(inj.steal().success(), Some(1));
            assert_eq!(inj.steal().success(), Some(2));
            assert!(inj.steal().is_empty());
        }

        #[test]
        fn fifo_worker_pops_oldest_stealer_takes_oldest() {
            let w = Worker::new_fifo();
            let s = w.stealer();
            for i in 1..=4 {
                w.push(i);
            }
            assert_eq!(s.steal().success(), Some(1));
            assert_eq!(w.pop(), Some(2));
            assert_eq!(w.pop(), Some(3));
            assert_eq!(s.steal().success(), Some(4));
            assert_eq!(w.pop(), None);
        }

        #[test]
        fn lifo_worker_pops_newest_stealer_takes_oldest() {
            let w = Worker::new_lifo();
            let s = w.stealer();
            for i in 1..=4 {
                w.push(i);
            }
            assert_eq!(s.steal().success(), Some(1));
            assert_eq!(w.pop(), Some(4));
            assert_eq!(w.pop(), Some(3));
            assert_eq!(s.steal().success(), Some(2));
            assert_eq!(w.pop(), None);
        }

        #[test]
        fn steal_batch_and_pop_keeps_injector_order() {
            let inj = Injector::new();
            for i in 0..8 {
                inj.push(i);
            }
            let w = Worker::new_fifo();
            // Half the queue moves: the first task is returned, the rest
            // land in the worker in order; the injector keeps the tail.
            assert_eq!(inj.steal_batch_and_pop(&w).success(), Some(0));
            let drained: Vec<i32> = std::iter::from_fn(|| w.pop()).collect();
            assert_eq!(drained, vec![1, 2, 3]);
            assert_eq!(inj.steal().success(), Some(4));
            // A one-task queue still yields that task.
            let single = Injector::new();
            single.push(9);
            assert_eq!(single.steal_batch_and_pop(&w).success(), Some(9));
            assert!(w.is_empty());
            assert!(single.steal_batch_and_pop(&w).is_empty());
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn scope_joins_and_collects_results() {
        let data = vec![1, 2, 3];
        let total = std::sync::atomic::AtomicUsize::new(0);
        super::scope(|s| {
            for &x in &data {
                let total = &total;
                s.spawn(move |_| {
                    total.fetch_add(x, std::sync::atomic::Ordering::Relaxed);
                });
            }
        })
        .expect("no panics");
        assert_eq!(total.load(std::sync::atomic::Ordering::Relaxed), 6);
    }

    #[test]
    fn scope_reports_child_panic_as_err() {
        let r = super::scope(|s| {
            s.spawn(|_| panic!("child dies"));
        });
        assert!(r.is_err());
    }
}
