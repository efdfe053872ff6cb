//! The persistent worker pool.
//!
//! A [`WorkerPool`] is owned by the engine ([`crate::Pathfinder`] creates
//! exactly one and reuses it for every query): its workers are spawned
//! once, park on a condition variable when idle, and run the **morsels**
//! of partitioned operators (chunked sorts, staircase shards, pipeline
//! ranges, join probes, aggregate partials).  The executor dispatches
//! plan nodes one after another on the query's own thread; morsels are
//! the pool's only work.
//!
//! Morsels are always submitted through [`WorkerPool::run_scoped_tagged`],
//! which *blocks until every task finished* — the tasks may therefore
//! borrow the caller's stack (the classic scoped-threads contract), and
//! the submitting thread drains its own task group, so progress never
//! depends on a worker being free (no deadlock when every worker is
//! busy).  A submitter whose group is empty but not yet finished helps
//! execute other queued jobs instead of blocking.
//!
//! **Fairness across queries.**  One engine serves many concurrent
//! queries over this single pool, so every job carries the [`QueryTag`]
//! of the query that submitted it and the queue is organized as per-tag
//! FIFO *lanes*.  Dequeue picks round-robin across lanes: after a lane
//! supplies a job it rotates to the back, so a query flooding the pool
//! with morsels cannot starve a lighter concurrent query — each in-flight
//! query gets roughly one job slot per scheduling round.
//!
//! Wake-ups use an epoch counter: every state change a waiter could be
//! waiting for (job pushed, task group drained) increments the epoch and
//! notifies under the queue lock, so a waiter that sampled the epoch
//! before checking its predicate can never miss the wake-up.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A type-erased, lifetime-erased job (see the safety note in
/// [`WorkerPool::run_scoped_tagged`]: every erased task is executed before
/// the borrows it captures go out of scope).
type RawJob = Box<dyn FnOnce() + Send + 'static>;

/// Counts pools ever created in this process; [`WorkerPool::generation`]
/// exposes each pool's birth number so tests can assert that an engine
/// reuses one pool instead of spawning per query.
static POOL_GENERATIONS: AtomicU64 = AtomicU64::new(0);

/// Identifies the query a job belongs to, for fair scheduling across the
/// concurrent queries sharing one pool.  The engine stamps every query
/// execution with a fresh tag; standalone executors and pool-level tests
/// use tag `0`.
pub type QueryTag = u64;

/// The job FIFO of one query.
struct Lane {
    tag: QueryTag,
    jobs: VecDeque<RawJob>,
}

#[derive(Default)]
struct Queues {
    /// One lane per query with queued jobs, in round-robin rotation order.
    lanes: VecDeque<Lane>,
    shutdown: bool,
}

impl Queues {
    fn push(&mut self, tag: QueryTag, job: RawJob) {
        match self.lanes.iter_mut().find(|l| l.tag == tag) {
            Some(lane) => lane.jobs.push_back(job),
            None => self.lanes.push_back(Lane {
                tag,
                jobs: VecDeque::from([job]),
            }),
        }
    }

    /// The fair pick: the front job of the first lane.  The supplying lane
    /// rotates to the back (and is dropped once empty), so consecutive
    /// picks cycle through the queries with queued work.
    fn pop(&mut self) -> Option<RawJob> {
        let mut lane = self.lanes.pop_front()?;
        let job = lane.jobs.pop_front().expect("queued lanes are non-empty");
        if !lane.jobs.is_empty() {
            self.lanes.push_back(lane);
        }
        Some(job)
    }

    /// `true` when a `pop` would find a job.
    fn has_jobs(&self) -> bool {
        !self.lanes.is_empty()
    }
}

struct PoolShared {
    queues: Mutex<Queues>,
    wake: Condvar,
    /// Wake-up epoch (see the module docs).
    epoch: AtomicU64,
}

impl PoolShared {
    /// Announce a state change: bump the epoch and notify every waiter.
    /// Taking the queue lock around the notify closes the race against a
    /// waiter that checked its predicate and is about to wait.
    fn bump(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let _guard = self.queues.lock().expect("pool lock poisoned");
        self.wake.notify_all();
    }
}

/// A fixed set of parked OS threads executing jobs for one engine.
///
/// Created once (per [`crate::Pathfinder`], or lazily per standalone
/// [`crate::Executor`]) and reused across queries; dropped, it shuts its
/// workers down and joins them.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    generation: u64,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .field("generation", &self.generation)
            .finish()
    }
}

impl WorkerPool {
    /// Spawn a pool of `workers` parked threads (0 is allowed: every job
    /// then runs on the thread that submitted it).
    pub fn new(workers: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            queues: Mutex::new(Queues::default()),
            wake: Condvar::new(),
            epoch: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pf-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            workers,
            generation: POOL_GENERATIONS.fetch_add(1, Ordering::SeqCst) + 1,
        }
    }

    /// Number of worker threads (excluding the threads that submit work
    /// and help while waiting).
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// This pool's birth number (process-wide, 1-based): constant for the
    /// pool's lifetime, so an engine that reuses its pool reports the same
    /// generation for every query.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    fn push_job(&self, tag: QueryTag, job: RawJob) {
        let mut q = self.shared.queues.lock().expect("pool lock poisoned");
        q.push(tag, job);
        self.shared.epoch.fetch_add(1, Ordering::SeqCst);
        self.shared.wake.notify_all();
    }

    fn try_pop(&self) -> Option<RawJob> {
        let mut q = self.shared.queues.lock().expect("pool lock poisoned");
        q.pop()
    }

    /// Execute queued jobs — sleeping when there are none — until `done()`
    /// returns true.  `done` is always evaluated with no pool lock held;
    /// any event that can flip it must go through [`PoolShared::bump`]
    /// (or a job push), or the waiter could sleep through it.
    fn help_until(&self, mut done: impl FnMut() -> bool) {
        loop {
            let epoch = self.shared.epoch.load(Ordering::SeqCst);
            if done() {
                return;
            }
            if let Some(job) = self.try_pop() {
                job();
                continue;
            }
            let mut q = self.shared.queues.lock().expect("pool lock poisoned");
            while self.shared.epoch.load(Ordering::SeqCst) == epoch && !q.has_jobs() {
                q = self.shared.wake.wait(q).expect("pool lock poisoned");
            }
        }
    }

    /// Run `tasks` to completion on the pool **plus the calling thread**
    /// and return once every task finished.  Tasks may borrow from the
    /// caller's stack (they cannot outlive this call); a panicking task is
    /// caught, the remaining tasks still run, and the first panic is
    /// resumed on the calling thread afterwards.
    ///
    /// The calling thread drains the group itself (and, once its group is
    /// empty, helps with *other* queued jobs while waiting for stragglers),
    /// so completion never depends on a worker being idle.
    pub fn run_scoped<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        self.run_scoped_tagged(0, tasks);
    }

    /// [`WorkerPool::run_scoped`] with an explicit [`QueryTag`]: the drain
    /// jobs queue on `tag`'s lane, so the morsels of concurrent queries
    /// are scheduled round-robin instead of first-come-first-served.
    #[allow(unsafe_code)] // lifetime erasure; see the SAFETY comment below
    pub fn run_scoped_tagged<'env>(
        &self,
        tag: QueryTag,
        tasks: Vec<Box<dyn FnOnce() + Send + 'env>>,
    ) {
        if tasks.is_empty() {
            return;
        }
        let total = tasks.len();
        // SAFETY: the tasks are erased to 'static so they can sit in the
        // 'static queues, but every one of them is executed (or at least
        // begun and finished) before this function returns — `remaining`
        // only reaches 0 when each task has run to completion, and we wait
        // for exactly that below.  Borrows captured by the tasks therefore
        // never dangle.  Drain jobs left in the queue after that hold only
        // the (empty) group, never a task.
        let erased: VecDeque<RawJob> = tasks
            .into_iter()
            .map(|task| unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, RawJob>(task)
            })
            .collect();
        let group = Arc::new(ScopedGroup {
            tasks: Mutex::new(erased),
            remaining: AtomicUsize::new(total),
            panic: Mutex::new(None),
        });
        // One drain job per worker that could usefully help (the calling
        // thread takes one share itself).
        let helpers = self.workers.min(total.saturating_sub(1));
        for _ in 0..helpers {
            let group = Arc::clone(&group);
            let shared = Arc::clone(&self.shared);
            self.push_job(tag, Box::new(move || drain_group(&shared, &group)));
        }
        drain_group(&self.shared, &group);
        self.help_until(|| group.remaining.load(Ordering::SeqCst) == 0);
        let payload = group.panic.lock().expect("group lock poisoned").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queues.lock().expect("pool lock poisoned");
            q.shutdown = true;
        }
        self.shared.wake.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One `run_scoped` task group.
struct ScopedGroup {
    tasks: Mutex<VecDeque<RawJob>>,
    /// Tasks not yet run to completion (claimed-but-running tasks count).
    remaining: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Pop and run the group's tasks until it is empty (executed by workers
/// via drain jobs and by the submitting thread directly).
fn drain_group(shared: &PoolShared, group: &ScopedGroup) {
    loop {
        let task = group.tasks.lock().expect("group lock poisoned").pop_front();
        let Some(task) = task else { return };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
            group
                .panic
                .lock()
                .expect("group lock poisoned")
                .get_or_insert(payload);
        }
        if group.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last task done: wake the submitter (and anyone else waiting).
            shared.bump();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut q = shared.queues.lock().expect("pool lock poisoned");
    loop {
        let job = q.pop();
        if let Some(job) = job {
            drop(q);
            // Jobs arrive pre-wrapped in catch_unwind (drain jobs catch
            // per task); this outer catch only shields the pool itself
            // from a hypothetical unwinding bug, keeping the worker alive.
            let _ = catch_unwind(AssertUnwindSafe(job));
            q = shared.queues.lock().expect("pool lock poisoned");
            continue;
        }
        if q.shutdown {
            return;
        }
        q = shared.wake.wait(q).expect("pool lock poisoned");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scoped_tasks_run_to_completion_and_may_borrow() {
        let pool = WorkerPool::new(2);
        let mut results = vec![0usize; 64];
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = results
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| Box::new(move || *slot = i * i) as Box<dyn FnOnce() + Send + '_>)
            .collect();
        pool.run_scoped(tasks);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, i * i);
        }
    }

    #[test]
    fn run_scoped_works_without_any_workers() {
        // A zero-worker pool degenerates to the calling thread draining
        // the whole group itself.
        let pool = WorkerPool::new(0);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..16)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_scoped(tasks);
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn a_panicking_task_does_not_strand_its_group() {
        let pool = WorkerPool::new(1);
        let done = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
            .map(|i| {
                let done = &done;
                Box::new(move || {
                    if i == 3 {
                        panic!("task 3 exploded");
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run_scoped(tasks)));
        assert!(outcome.is_err(), "the panic is resumed on the caller");
        assert_eq!(done.load(Ordering::SeqCst), 7, "the other tasks still ran");
        // The pool survives and runs further work.
        let after = AtomicUsize::new(0);
        pool.run_scoped(vec![Box::new(|| {
            after.fetch_add(1, Ordering::SeqCst);
        })]);
        assert_eq!(after.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn the_pool_is_reused_across_scopes_without_respawning() {
        let pool = WorkerPool::new(2);
        let generation = pool.generation();
        for _ in 0..10 {
            let hits = AtomicUsize::new(0);
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                .map(|_| {
                    let hits = &hits;
                    Box::new(move || {
                        hits.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_scoped(tasks);
            assert_eq!(hits.load(Ordering::SeqCst), 4);
        }
        // Same pool, same generation: no thread was spawned in between.
        assert_eq!(pool.generation(), generation);
        assert_eq!(pool.worker_count(), 2);
    }

    #[test]
    fn generations_are_distinct_per_pool() {
        let a = WorkerPool::new(0);
        let b = WorkerPool::new(0);
        assert!(b.generation() > a.generation());
    }

    /// Queue a batch of jobs for two query tags and drain with a
    /// zero-worker pool: the round-robin lanes must interleave the tags
    /// instead of finishing the first query's backlog before the second
    /// query gets a slot.
    #[test]
    fn dequeue_alternates_across_query_tags() {
        let pool = WorkerPool::new(0);
        let order: Arc<Mutex<Vec<QueryTag>>> = Arc::new(Mutex::new(Vec::new()));
        for tag in [1u64, 2u64] {
            for _ in 0..4 {
                let order = Arc::clone(&order);
                pool.push_job(tag, Box::new(move || order.lock().unwrap().push(tag)));
            }
        }
        // Drain on this thread (no workers exist to race with).
        pool.help_until(|| !pool.shared.queues.lock().unwrap().has_jobs());
        let order = order.lock().unwrap();
        assert_eq!(*order, vec![1, 2, 1, 2, 1, 2, 1, 2]);
    }
}
