//! A persistent worker pool with barrier-style indexed batches.
//!
//! [`WorkerPool`] spawns its threads **once** and keeps them alive for the
//! pool's lifetime; [`WorkerPool::run_indexed`] runs `f(0..count)` and
//! blocks until every index has finished — the calling thread *is* the
//! barrier. The caller is also a participant: it claims indices from the
//! same counter as the workers, so a batch only pays for the workers it
//! wakes, and a 1-index batch wakes none. This is what lets
//! [`crate::ShardedNetwork`] execute its two per-round phases without any
//! per-round `thread::spawn`: each phase becomes one batch on a long-lived
//! pool, and the `run_indexed` return is the phase barrier.
//!
//! Batches from different threads may be in flight simultaneously (the
//! batch service keeps one engine per in-flight job); tasks are keyed by
//! the index they write into, never by which thread executed them, so
//! results are deterministic regardless of pool size or scheduling.
//!
//! # Deadlock rule
//!
//! A task running **on** the pool must never call `run_indexed` on the
//! same pool. Such a nested batch would still finish — its caller runs
//! every index no worker claims — but it holds a worker in a barrier for
//! its whole length, and nothing in the workspace relies on or tests it.
//! The batch query service therefore runs jobs on its own dedicated
//! threads and leaves the [`global_pool`] to the round engine.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// A raw reference to an [`IndexedShared`] living on a `run_indexed`
/// caller's stack — the only kind of queue entry. Sound to send to workers
/// because `run_indexed` does not return until every queued copy has been
/// either consumed (participation registered under the queue lock) or
/// purged from the queue.
#[derive(Clone, Copy)]
struct IndexedRef(*const IndexedShared);

// SAFETY: see `IndexedRef` — the pointee outlives every dereference by the
// blocking protocol of `run_indexed`.
unsafe impl Send for IndexedRef {}

/// The index and payload of a panicking task.
type Panic = (usize, Box<dyn std::any::Any + Send>);

/// Shared state of one `run_indexed` batch, stack-allocated in the caller.
struct IndexedShared {
    /// The index-parameterized task body, lifetime-erased (valid for the
    /// whole batch because `run_indexed` blocks until the batch retires).
    f: *const (dyn Fn(usize) + Sync),
    /// Next unclaimed index; the caller and workers `fetch_add` to claim.
    next: AtomicUsize,
    /// Total number of indices.
    count: usize,
    state: Mutex<IndexedState>,
    done: Condvar,
}

struct IndexedState {
    /// Indices not yet run to completion.
    remaining: usize,
    /// Workers currently holding a reference to this batch.
    participants: usize,
    /// Lowest-index panic payload observed so far.
    panic: Option<Panic>,
}

impl IndexedState {
    /// Folds one participant's finished count and lowest panic into the
    /// batch.
    fn absorb(&mut self, finished: usize, panic: Option<Panic>) {
        self.remaining -= finished;
        if let Some((i, payload)) = panic {
            if self.panic.as_ref().is_none_or(|(j, _)| i < *j) {
                self.panic = Some((i, payload));
            }
        }
    }
}

struct PoolShared {
    /// `(pending batch copies, shutting down)`.
    queue: Mutex<(VecDeque<IndexedRef>, bool)>,
    work_ready: Condvar,
}

/// A fixed-size pool of persistent worker threads executing batches of
/// scoped tasks. See the module docs for the execution and safety model.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    /// Leases currently held (see [`WorkerPool::lease`]).
    active_leases: AtomicUsize,
    /// High-water mark of concurrently held leases.
    peak_leases: AtomicUsize,
    /// Per-tenant `(active, peak)` lease counts (see
    /// [`WorkerPool::lease_for`]).
    tenant_leases: Mutex<HashMap<u32, (usize, usize)>>,
    /// Barrier batches ever executed (`run_indexed` calls with work).
    batches: AtomicU64,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("size", &self.workers.len()).finish()
    }
}

impl WorkerPool {
    /// Spawns a pool with `size` persistent worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        assert!(size >= 1, "need at least one worker");
        let shared = Arc::new(PoolShared {
            queue: Mutex::new((VecDeque::new(), false)),
            work_ready: Condvar::new(),
        });
        let workers = (0..size)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("clique-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            active_leases: AtomicUsize::new(0),
            peak_leases: AtomicUsize::new(0),
            tenant_leases: Mutex::new(HashMap::new()),
            batches: AtomicU64::new(0),
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Takes an instrumented **lease** on the pool: a RAII handle marking
    /// one logical client (e.g. one admitted sharded-engine job) as
    /// currently running batches here. Leases are bookkeeping, not
    /// capacity — they never block, and `run_indexed` works the same with
    /// or without one. Admission controllers (the batch query service)
    /// take one lease per admitted job so tests and operators can observe
    /// how many round-barrier clients interleave on the pool at once via
    /// [`WorkerPool::active_leases`] / [`WorkerPool::peak_leases`].
    pub fn lease(self: &Arc<Self>) -> PoolLease {
        let wait = obs::maybe_now();
        let now = self.active_leases.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak_leases.fetch_max(now, Ordering::SeqCst);
        let m = obs::metrics();
        m.pool_lease_wait_ns.observe_elapsed(wait);
        m.pool_leases.inc();
        m.pool_active_leases.set(now as u64);
        m.pool_peak_leases.set_max(now as u64);
        PoolLease { pool: Arc::clone(self), tenant: None }
    }

    /// [`WorkerPool::lease`] attributed to a tenant: the lease counts
    /// against the pool-wide totals **and** the tenant's own
    /// `(active, peak)` pair, so a multi-tenant admission controller can
    /// observe how many of one tenant's jobs ever overlapped on the pool
    /// ([`WorkerPool::active_leases_for`] / [`WorkerPool::peak_leases_for`])
    /// — the observability side of per-tenant in-flight caps.
    pub fn lease_for(self: &Arc<Self>, tenant: u32) -> PoolLease {
        // lease-wait = time to acquire all lease bookkeeping (the atomics
        // plus the per-tenant map lock), the contended part of admission
        let wait = obs::maybe_now();
        let now = self.active_leases.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak_leases.fetch_max(now, Ordering::SeqCst);
        let (cur, peak) = {
            let mut tenants = lock_ignore_poison(&self.tenant_leases);
            let entry = tenants.entry(tenant).or_insert((0, 0));
            entry.0 += 1;
            entry.1 = entry.1.max(entry.0);
            (entry.0, entry.1)
        };
        let m = obs::metrics();
        m.pool_lease_wait_ns.observe_elapsed(wait);
        m.pool_leases.inc();
        m.pool_active_leases.set(now as u64);
        m.pool_peak_leases.set_max(now as u64);
        let slot = obs::tenant_slot(tenant);
        m.tenant_active[slot].set(cur as u64);
        m.tenant_peak[slot].set_max(peak as u64);
        PoolLease { pool: Arc::clone(self), tenant: Some(tenant) }
    }

    /// Leases currently held.
    pub fn active_leases(&self) -> usize {
        self.active_leases.load(Ordering::SeqCst)
    }

    /// The most leases ever held concurrently over the pool's lifetime.
    pub fn peak_leases(&self) -> usize {
        self.peak_leases.load(Ordering::SeqCst)
    }

    /// Leases the given tenant currently holds (0 for unknown tenants).
    pub fn active_leases_for(&self, tenant: u32) -> usize {
        lock_ignore_poison(&self.tenant_leases).get(&tenant).map_or(0, |e| e.0)
    }

    /// The most leases the given tenant ever held concurrently.
    pub fn peak_leases_for(&self, tenant: u32) -> usize {
        lock_ignore_poison(&self.tenant_leases).get(&tenant).map_or(0, |e| e.1)
    }

    /// Barrier batches executed over the pool's lifetime (one per
    /// non-empty [`WorkerPool::run_indexed`] call, including 1-index
    /// batches the caller runs alone) —
    /// lets tests assert that a computation's batches landed on *this*
    /// pool rather than the global one.
    pub fn batches_run(&self) -> u64 {
        self.batches.load(Ordering::SeqCst)
    }

    /// Executes `f(0)`, `f(1)`, …, `f(count - 1)` and blocks until all of
    /// them have completed — the **allocation-free** barrier batch. The
    /// calling thread claims indices from the same atomic counter as the
    /// workers, so each index runs exactly once on whichever thread claimed
    /// it; only `min(count - 1, size)` copies of the batch are queued for
    /// workers, none for a 1-index batch. `f` is shared by reference
    /// across threads (hence `Fn + Sync`), and the batch descriptor lives
    /// on this caller's stack — in steady state the only queue traffic is
    /// copies of one raw pointer into a capacity-retaining deque, which is
    /// what lets the sharded round engine run both of its per-round phases
    /// without a single heap allocation.
    ///
    /// If any index panics, every other index still runs, and the payload
    /// of the **lowest** panicking index is re-raised here after the whole
    /// batch has drained — so partially-executed batches never leave tasks
    /// running against freed borrows, and the surfaced panic does not
    /// depend on completion order or on which thread ran the index (shard
    /// 0's violation wins, matching the sequential engine, which hits the
    /// lowest vertex first).
    ///
    /// The [deadlock rule](self) applies: never call this from a task
    /// running on the same pool.
    pub fn run_indexed<'scope, F>(&self, count: usize, f: F)
    where
        F: Fn(usize) + Sync + 'scope,
    {
        if count == 0 {
            return;
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        obs::metrics().pool_batches.inc();
        let f_obj: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: lifetime erasure only — this function does not return
        // until every participant has finished calling `f` and every
        // queued reference to `job` has been consumed or purged, so the
        // erased borrow strictly outlives all uses.
        let f_ptr: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f_obj) };
        let job = IndexedShared {
            f: f_ptr,
            next: AtomicUsize::new(0),
            count,
            state: Mutex::new(IndexedState { remaining: count, participants: 0, panic: None }),
            done: Condvar::new(),
        };
        // one queue entry per worker that could usefully join the caller
        let copies = (count - 1).min(self.workers.len());
        if copies > 0 {
            let mut q = self.shared.queue.lock().unwrap();
            for _ in 0..copies {
                q.0.push_back(IndexedRef(&job));
                self.shared.work_ready.notify_one();
            }
        }
        // 1. run indices here until the counter runs out, then wait until
        //    every index claimed elsewhere has run to completion
        let (finished, panic) = claim_indices(&job);
        let mut st = job.state.lock().unwrap();
        st.absorb(finished, panic);
        while st.remaining > 0 {
            st = job.done.wait(st).unwrap();
        }
        drop(st);
        // 2. purge queue copies nobody picked up (a worker that pops a
        //    copy registers as a participant *under the queue lock*, so
        //    after this purge no new participant can appear)
        if copies > 0 {
            let mut q = self.shared.queue.lock().unwrap();
            q.0.retain(|r| !std::ptr::eq(r.0, &job));
        }
        // 3. wait for active participants to let go of the batch, then
        //    `job` (and `f`) may safely die with this frame
        let mut st = job.state.lock().unwrap();
        while st.participants > 0 {
            st = job.done.wait(st).unwrap();
        }
        if let Some((_, payload)) = st.panic.take() {
            drop(st);
            resume_unwind(payload);
        }
    }
}

/// Claims indices of `job` until the counter runs out, running each under
/// `catch_unwind`. Returns how many ran here and the lowest-index panic
/// among them.
fn claim_indices(job: &IndexedShared) -> (usize, Option<Panic>) {
    // SAFETY: `job.f` is valid for the batch's lifetime (see run_indexed).
    let f = unsafe { &*job.f };
    let mut finished = 0usize;
    let mut local_panic: Option<Panic> = None;
    loop {
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.count {
            break;
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
            if local_panic.as_ref().is_none_or(|(j, _)| i < *j) {
                local_panic = Some((i, payload));
            }
        }
        finished += 1;
    }
    (finished, local_panic)
}

/// One worker's engagement with an indexed batch: claim indices until the
/// counter runs out, then retire under the batch lock.
fn participate(job: &IndexedShared) {
    let (finished, panic) = claim_indices(job);
    let mut st = job.state.lock().unwrap();
    st.absorb(finished, panic);
    st.participants -= 1;
    // notify while still holding the lock: the submitter cannot observe
    // the updated counters and free `job` before we are done touching it
    job.done.notify_all();
}

/// A `Send`/`Sync`-asserting raw view of a mutable slice, for handing
/// disjoint sub-ranges of one buffer to the tasks of a
/// [`WorkerPool::run_indexed`] batch without allocating per-task closures.
///
/// The caller promises that concurrent tasks access **disjoint** index
/// ranges (each `run_indexed` index is claimed exactly once, so "task `i`
/// touches only range `i`" is the usual argument) and that the underlying
/// slice outlives the batch — both hold trivially for the blocking
/// `run_indexed` pattern the round engines use.
#[derive(Clone, Copy, Debug)]
pub struct SlicePtr<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: asserted by the disjoint-access contract in the type docs.
unsafe impl<T: Send> Send for SlicePtr<T> {}
unsafe impl<T: Send> Sync for SlicePtr<T> {}

impl<T> SlicePtr<T> {
    /// Captures a raw view of `slice`.
    pub fn new(slice: &mut [T]) -> Self {
        SlicePtr { ptr: slice.as_mut_ptr(), len: slice.len() }
    }

    /// Reborrows the sub-slice `start..start + len`.
    ///
    /// # Safety
    ///
    /// The range must be in bounds, no other live borrow may overlap it,
    /// and the underlying slice must still be alive.
    pub unsafe fn slice_mut<'a>(&self, start: usize, len: usize) -> &'a mut [T] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }

    /// Reborrows element `i`.
    ///
    /// # Safety
    ///
    /// Same contract as [`SlicePtr::slice_mut`] for the single index `i`.
    pub unsafe fn index_mut<'a>(&self, i: usize) -> &'a mut T {
        debug_assert!(i < self.len);
        &mut *self.ptr.add(i)
    }
}

/// Locks a pool mutex, shrugging off poison: the guarded lease table only
/// ever mutates coherently (increment/decrement pairs), so a panic that
/// unwound through a guard left valid counts behind.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// RAII handle for one instrumented pool lease (see [`WorkerPool::lease`]
/// and the tenant-attributed [`WorkerPool::lease_for`]). Dropping it
/// releases the lease.
#[derive(Debug)]
pub struct PoolLease {
    pool: Arc<WorkerPool>,
    tenant: Option<u32>,
}

impl PoolLease {
    /// The pool this lease counts against.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// The tenant this lease is attributed to (`None` for untenanted
    /// [`WorkerPool::lease`] leases).
    pub fn tenant(&self) -> Option<u32> {
        self.tenant
    }
}

impl Drop for PoolLease {
    fn drop(&mut self) {
        let now = self.pool.active_leases.fetch_sub(1, Ordering::SeqCst) - 1;
        obs::metrics().pool_active_leases.set(now as u64);
        if let Some(tenant) = self.tenant {
            if let Some(e) = lock_ignore_poison(&self.pool.tenant_leases).get_mut(&tenant) {
                e.0 -= 1;
                obs::metrics().tenant_active[obs::tenant_slot(tenant)].set(e.0 as u64);
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.1 = true;
            self.shared.work_ready.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let r = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(r) = q.0.pop_front() {
                    // register participation BEFORE releasing the queue
                    // lock: the submitter purges leftover references under
                    // this lock before invalidating the batch, so a
                    // registered participant is guaranteed a live one (lock
                    // order queue → batch state, used nowhere else, so this
                    // nesting cannot deadlock).
                    unsafe { &*r.0 }.state.lock().unwrap().participants += 1;
                    break r;
                }
                if q.1 {
                    return;
                }
                q = shared.work_ready.wait(q).unwrap();
            }
        };
        // SAFETY: participation registered above keeps the batch alive.
        participate(unsafe { &*r.0 });
    }
}

/// The process-wide pool the sharded round engine runs on by default —
/// sized by [`crate::available_shards`] (so `CLIQUE_SHARDS` bounds it) and
/// spawned lazily on first use. All engines share it: a round phase is a
/// batch, and batches interleave safely.
pub fn global_pool() -> &'static Arc<WorkerPool> {
    static POOL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
    POOL.get_or_init(|| Arc::new(WorkerPool::new(crate::available_shards())))
}

thread_local! {
    /// The ambient engine pool of the current thread (see
    /// [`with_ambient_pool`]).
    static AMBIENT_POOL: std::cell::RefCell<Option<Arc<WorkerPool>>> =
        const { std::cell::RefCell::new(None) };
}

/// Runs `f` with `pool` installed as this thread's **ambient engine pool**:
/// for the dynamic extent of `f`, [`ambient_pool`] resolves to `pool`
/// instead of the process-wide [`global_pool`].
///
/// This is how an admission controller extends its lease's reach to
/// *indirect* pool clients: the batch service wraps each admitted job's
/// execution in `with_ambient_pool(leased_pool, …)`, so helper computations
/// deep inside the algorithms (the expander decomposition's power-iteration
/// chunk batches) land on the pool the job's `PoolLease` is held on — and
/// therefore respect the `CLIQUE_ADMIT` gate — without threading a pool
/// handle through every layer. Nesting restores the previous ambient pool
/// on exit (panic-safe via an RAII guard).
pub fn with_ambient_pool<R>(pool: &Arc<WorkerPool>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<WorkerPool>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            AMBIENT_POOL.with(|slot| *slot.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(AMBIENT_POOL.with(|slot| slot.borrow_mut().replace(Arc::clone(pool))));
    f()
}

/// The pool ambient helper computations should run their batches on: the
/// pool installed by an enclosing [`with_ambient_pool`], else the
/// process-wide [`global_pool`].
pub fn ambient_pool() -> Arc<WorkerPool> {
    AMBIENT_POOL.with(|slot| slot.borrow().clone()).unwrap_or_else(|| Arc::clone(global_pool()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    /// How long a caller-path test waits before failing instead of hanging.
    const PATIENCE: Duration = Duration::from_secs(10);

    /// Runs `f` on a fresh thread while the only worker of the 1-worker
    /// `pool` is held inside a batch another thread submitted, so every
    /// batch `f` submits can only make progress on its own caller. Returns
    /// `f`'s result and the id of the thread it ran on; fails instead of
    /// hanging if the worker cannot be held or `f` does not return in time.
    fn with_busy_worker<R: Send>(pool: &WorkerPool, f: impl FnOnce() -> R + Send) -> (R, ThreadId) {
        assert_eq!(pool.size(), 1);
        let entered = AtomicUsize::new(0);
        let release = AtomicBool::new(false);
        let hold = |_| {
            entered.fetch_add(1, Ordering::SeqCst);
            while !release.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        std::thread::scope(|scope| {
            scope.spawn(|| pool.run_indexed(2, hold));
            // one index held by that submitter, the other by the worker
            let deadline = Instant::now() + PATIENCE;
            while entered.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            if entered.load(Ordering::SeqCst) < 2 {
                release.store(true, Ordering::SeqCst);
                panic!("the worker and the holding caller never both held an index");
            }
            let (tx, rx) = std::sync::mpsc::channel();
            let runner = scope.spawn(move || {
                let r = f();
                let _ = tx.send(());
                (r, std::thread::current().id())
            });
            let finished = rx.recv_timeout(PATIENCE);
            release.store(true, Ordering::SeqCst);
            assert!(finished.is_ok(), "batch did not finish while the only worker was busy");
            runner.join().unwrap()
        })
    }

    #[test]
    fn caller_runs_the_batch_when_every_worker_is_busy() {
        let pool = WorkerPool::new(1);
        let runs: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        let ran_on: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
        let ((), caller) = with_busy_worker(&pool, || {
            pool.run_indexed(4, |i| {
                runs[i].fetch_add(1, Ordering::SeqCst);
                ran_on.lock().unwrap().push(std::thread::current().id());
            });
        });
        assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1), "each index exactly once");
        assert_eq!(ran_on.into_inner().unwrap(), vec![caller; 4]);
    }

    #[test]
    fn lowest_index_panic_is_reraised_when_the_caller_ran_it() {
        let pool = WorkerPool::new(1);
        let ran = AtomicUsize::new(0);
        let (result, _) = with_busy_worker(&pool, || {
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run_indexed(5, |i| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if i % 2 == 1 {
                        panic!("index {i} failed");
                    }
                });
            }))
        });
        let payload = result.expect_err("panic must reach the submitter");
        assert_eq!(payload.downcast_ref::<String>().expect("panic message"), "index 1 failed");
        assert_eq!(ran.load(Ordering::SeqCst), 5, "every index still ran");
        // a 1-index batch always runs on its caller
        let single = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(1, |_| panic!("only index failed"));
        }));
        let payload = single.expect_err("panic must reach the submitter");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"only index failed"));
    }

    #[test]
    fn single_index_batch_queues_nothing_and_is_counted() {
        let pool = WorkerPool::new(2);
        let caller = std::thread::current().id();
        let ran = AtomicUsize::new(0);
        pool.run_indexed(1, |i| {
            assert_eq!(i, 0);
            assert_eq!(std::thread::current().id(), caller, "runs on the caller");
            assert!(pool.shared.queue.lock().unwrap().0.is_empty(), "no copy queued");
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(pool.batches_run(), 1);
    }

    #[test]
    fn borrowed_state_is_visible_after_the_barrier() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        for _ in 0..5 {
            pool.run_indexed(8, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn leases_track_active_and_peak_counts() {
        let pool = Arc::new(WorkerPool::new(1));
        assert_eq!((pool.active_leases(), pool.peak_leases()), (0, 0));
        let a = pool.lease();
        let b = pool.lease();
        assert_eq!((pool.active_leases(), pool.peak_leases()), (2, 2));
        drop(a);
        assert_eq!((pool.active_leases(), pool.peak_leases()), (1, 2));
        let c = pool.lease();
        assert_eq!((pool.active_leases(), pool.peak_leases()), (2, 2));
        drop(b);
        drop(c);
        assert_eq!((pool.active_leases(), pool.peak_leases()), (0, 2));
    }

    #[test]
    fn tenant_leases_track_per_tenant_active_and_peak() {
        let pool = Arc::new(WorkerPool::new(1));
        assert_eq!((pool.active_leases_for(7), pool.peak_leases_for(7)), (0, 0));
        let a = pool.lease_for(7);
        let b = pool.lease_for(7);
        let c = pool.lease_for(9);
        let d = pool.lease(); // untenanted: pool-wide only
        assert_eq!(a.tenant(), Some(7));
        assert_eq!(d.tenant(), None);
        assert_eq!((pool.active_leases_for(7), pool.peak_leases_for(7)), (2, 2));
        assert_eq!((pool.active_leases_for(9), pool.peak_leases_for(9)), (1, 1));
        assert_eq!((pool.active_leases(), pool.peak_leases()), (4, 4));
        drop(a);
        drop(c);
        assert_eq!((pool.active_leases_for(7), pool.peak_leases_for(7)), (1, 2));
        assert_eq!((pool.active_leases_for(9), pool.peak_leases_for(9)), (0, 1));
        drop(b);
        drop(d);
        assert_eq!(pool.active_leases(), 0);
        assert_eq!(pool.peak_leases_for(7), 2, "peaks persist after release");
    }

    #[test]
    fn ambient_pool_scopes_nest_and_restore() {
        let outer = Arc::new(WorkerPool::new(1));
        let inner = Arc::new(WorkerPool::new(1));
        assert!(Arc::ptr_eq(&ambient_pool(), global_pool()));
        with_ambient_pool(&outer, || {
            assert!(Arc::ptr_eq(&ambient_pool(), &outer));
            with_ambient_pool(&inner, || {
                assert!(Arc::ptr_eq(&ambient_pool(), &inner));
            });
            assert!(Arc::ptr_eq(&ambient_pool(), &outer), "nesting must restore");
        });
        assert!(Arc::ptr_eq(&ambient_pool(), global_pool()));
        // panic-safety: the guard restores even on unwind
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            with_ambient_pool(&outer, || panic!("boom"));
        }));
        assert!(result.is_err());
        assert!(Arc::ptr_eq(&ambient_pool(), global_pool()));
    }

    #[test]
    fn batches_run_counts_both_batch_kinds() {
        // the two kinds: 1-index batches the caller runs alone, and
        // batches it shares with the workers
        let pool = WorkerPool::new(2);
        assert_eq!(pool.batches_run(), 0);
        pool.run_indexed(1, |_| {});
        pool.run_indexed(3, |_| {});
        pool.run_indexed(0, |_| {}); // no-ops don't count
        assert_eq!(pool.batches_run(), 2);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = WorkerPool::new(1);
        pool.run_indexed(0, |_| unreachable!("no indices to run"));
        assert_eq!(pool.batches_run(), 0);
    }

    #[test]
    fn indexed_batch_runs_every_index_exactly_once() {
        let pool = WorkerPool::new(3);
        for round in 0..50 {
            let mut slots = vec![0usize; 17];
            let ptr = SlicePtr::new(&mut slots);
            pool.run_indexed(17, |i| {
                // SAFETY: index i is claimed exactly once per batch
                *unsafe { ptr.index_mut(i) } += i + round;
            });
            for (i, s) in slots.iter().enumerate() {
                assert_eq!(*s, i + round);
            }
        }
    }

    #[test]
    fn indexed_batch_propagates_the_lowest_index_panic_after_draining() {
        let pool = WorkerPool::new(4);
        for _ in 0..20 {
            let ran = AtomicUsize::new(0);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run_indexed(8, |i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if i >= 2 {
                        panic!("index {i} failed");
                    }
                });
            }));
            let payload = result.expect_err("panic must reach the submitter");
            let msg = payload.downcast_ref::<String>().expect("panic message");
            assert_eq!(msg, "index 2 failed");
            // every index still ran before the panic was re-raised
            assert_eq!(ran.load(Ordering::Relaxed), 8);
        }
        // the pool survives panicked indexed batches
        let counter = AtomicUsize::new(0);
        pool.run_indexed(5, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn indexed_batches_interleave_across_threads() {
        let pool = Arc::new(WorkerPool::new(2));
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    for _ in 0..10 {
                        let mut sums = [0u64; 9];
                        let ptr = SlicePtr::new(&mut sums[..]);
                        pool.run_indexed(9, |i| {
                            // SAFETY: disjoint indices per batch
                            *unsafe { ptr.index_mut(i) } = (t * 100 + i) as u64;
                        });
                        for (i, s) in sums.iter().enumerate() {
                            assert_eq!(*s, (t * 100 + i) as u64);
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn indexed_batch_with_more_indices_than_workers_completes() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        pool.run_indexed(64, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn concurrent_batches_from_many_threads_interleave() {
        // more submitters than workers: callers run what the one worker
        // cannot reach
        let pool = Arc::new(WorkerPool::new(1));
        std::thread::scope(|scope| {
            for t in 0..6usize {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    for round in 0..20 {
                        let mut sums = [0u64; 5];
                        let ptr = SlicePtr::new(&mut sums[..]);
                        pool.run_indexed(5, |i| {
                            // SAFETY: disjoint indices per batch
                            *unsafe { ptr.index_mut(i) } = (t * 1000 + round * 10 + i) as u64;
                        });
                        for (i, s) in sums.iter().enumerate() {
                            assert_eq!(*s, (t * 1000 + round * 10 + i) as u64);
                        }
                    }
                });
            }
        });
        assert_eq!(pool.batches_run(), 120);
    }
}
