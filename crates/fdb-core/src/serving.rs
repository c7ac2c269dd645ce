//! Concurrent query serving on shared arenas.
//!
//! A frozen f-representation is immutable (the sharing contract in the
//! `fdb-frep` crate docs), so serving many queries over one database needs
//! no locking on the data path at all:
//!
//! * [`SharedDatabase`] holds the frozen representations behind `Arc`s and
//!   hands out stable [`RepId`]s — workers read the same arenas in place;
//! * [`FdbServer`] executes batches of [`ServeRequest`]s on a vendored
//!   work-stealing [`ThreadPool`], each request being one
//!   [`FdbEngine::run`] call;
//! * [`PlanCache`] memoises the optimiser's output per input f-tree and
//!   equality list — all the optimiser reads; selections, projection and a
//!   head's chain swaps are added per request — so repeated traffic (the
//!   common case under a skewed query mix) skips optimisation entirely,
//!   whatever constants, projection or head a request carries.  Hits and
//!   misses surface in
//!   [`EvalStats::counters_table`](crate::EvalStats::counters_table).
//!
//! Results are deterministic: execution is a pure function of the frozen
//! input and the query, so a batch served on 8 workers is store-identical
//! to the same batch evaluated sequentially (the randomized suite in
//! `tests/concurrent_equivalence.rs` pins this).
//!
//! # Hot swap
//!
//! Database slots are **versioned**: [`SharedDatabase::replace`] publishes
//! a new representation under an existing [`RepId`] atomically, bumping the
//! slot's epoch, while in-flight queries finish on whichever `Arc` they
//! pinned.  [`FdbServer::replace`] pairs the swap with targeted plan-cache
//! invalidation — exactly the entries keyed on the replaced
//! representation's f-tree are dropped (cache keys embed the full tree
//! structure, so plans for other trees are untouched and stale hits are
//! structurally impossible) — and surfaces the drop count as
//! `plan_cache_invalidations` in [`ServerStats::counters_table`].  The
//! chaos suite (`tests/snapshot_recovery.rs`) swaps under concurrent load
//! at 1–8 workers and panics mid-swap through the `db.swap` failpoint.

use crate::engine::{FactorisedQuery, FdbEngine, Head, ServeOutcome, Source};
use fdb_common::{failpoint, AggregateHead, AttrId, ExecCtx, FdbError, QueryLimits, Result};
use fdb_frep::FRep;
use fdb_ftree::{FTree, SCostMemo};
use fdb_plan::OptimizedPlan;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, RwLock};
pub use workpool::{default_threads, ThreadPool};

/// Handle to a frozen representation registered in a [`SharedDatabase`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RepId(usize);

/// An `Arc`-shared database of frozen f-representations.
///
/// Registration (`insert`) is the freeze point: the representation is moved
/// behind an `Arc` and never mutated again, so any number of serving
/// threads may read it concurrently without synchronisation.  Every slot is
/// **versioned**: [`SharedDatabase::replace`] publishes a new representation
/// under the same [`RepId`] atomically, bumping the slot's epoch.  In-flight
/// queries keep reading whichever `Arc` they pinned — the old arena stays
/// valid until its last reader drops it — while every request that resolves
/// the id after the swap reads the new epoch.  Name lookup goes through a
/// hash-map index kept consistent across `insert` and `replace`.
#[derive(Debug, Default)]
pub struct SharedDatabase {
    names: Vec<String>,
    slots: Vec<RepSlot>,
    by_name: HashMap<String, RepId>,
}

/// One registered slot: the current representation and its epoch, swapped
/// together under a short write lock.  Readers clone the `Arc` and get out;
/// the lock is never held across evaluation.
#[derive(Debug)]
struct RepSlot {
    current: RwLock<VersionedRep>,
}

#[derive(Clone, Debug)]
struct VersionedRep {
    rep: Arc<FRep>,
    epoch: u64,
}

impl RepSlot {
    fn new(rep: FRep) -> Self {
        RepSlot {
            current: RwLock::new(VersionedRep {
                rep: Arc::new(rep),
                epoch: 0,
            }),
        }
    }

    /// The slot's current state, with a poisoned lock recovered (the
    /// critical sections only swap whole values, so every intermediate
    /// state is valid).
    fn read(&self) -> VersionedRep {
        self.current
            .read()
            .unwrap_or_else(|poison| poison.into_inner())
            .clone()
    }
}

impl Clone for SharedDatabase {
    fn clone(&self) -> Self {
        SharedDatabase {
            names: self.names.clone(),
            slots: self
                .slots
                .iter()
                .map(|slot| RepSlot {
                    current: RwLock::new(slot.read()),
                })
                .collect(),
            by_name: self.by_name.clone(),
        }
    }
}

impl SharedDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        SharedDatabase::default()
    }

    /// Registers a frozen representation under a name and returns its id.
    ///
    /// Names are stable handles for clients ([`SharedDatabase::find`]), so
    /// registering a name twice is refused with
    /// [`FdbError::DuplicateName`] instead of silently minting a second id
    /// the name lookup can never reach.  (The old behaviour registered the
    /// shadowed slot anyway: a client that inserted, resolved by name and
    /// then queried would silently read the *first* registration's data.)
    /// To change the data under an existing name, resolve the id and
    /// [`SharedDatabase::replace`] it — replacement keeps the name → id
    /// binding and bumps the slot's epoch.
    pub fn insert(&mut self, name: impl Into<String>, rep: FRep) -> Result<RepId> {
        let id = RepId(self.slots.len());
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(FdbError::DuplicateName { name });
        }
        self.by_name.insert(name.clone(), id);
        self.names.push(name);
        self.slots.push(RepSlot::new(rep));
        Ok(id)
    }

    /// The current representation registered under `id`.  The returned
    /// `Arc` is pinned: a concurrent [`SharedDatabase::replace`] publishes
    /// a new epoch without affecting it.
    pub fn get(&self, id: RepId) -> Option<Arc<FRep>> {
        self.slots.get(id.0).map(|slot| slot.read().rep)
    }

    /// The slot's current epoch: 0 at registration, bumped by every
    /// [`SharedDatabase::replace`].
    pub fn epoch(&self, id: RepId) -> Option<u64> {
        self.slots.get(id.0).map(|slot| slot.read().epoch)
    }

    /// Atomically publishes a new representation under an existing id,
    /// bumping the slot's epoch, and returns the replaced `Arc` (still
    /// valid for every in-flight reader that pinned it).  This does not
    /// touch any plan cache — [`FdbServer::replace`] is the serving-layer
    /// entry point that also invalidates the plans keyed on the replaced
    /// representation's f-tree.
    pub fn replace(&self, id: RepId, rep: FRep) -> Result<Arc<FRep>> {
        let slot = self.slots.get(id.0).ok_or_else(|| FdbError::InvalidInput {
            detail: format!("unknown representation id {id:?}"),
        })?;
        let mut guard = slot
            .current
            .write()
            .unwrap_or_else(|poison| poison.into_inner());
        let epoch = guard.epoch + 1;
        let old = std::mem::replace(
            &mut *guard,
            VersionedRep {
                rep: Arc::new(rep),
                epoch,
            },
        );
        Ok(old.rep)
    }

    /// The registration name of a slot.
    pub fn name(&self, id: RepId) -> Option<&str> {
        self.names.get(id.0).map(String::as_str)
    }

    /// Finds a representation by registration name — a hash-map lookup.
    /// Each name maps to exactly one slot ([`SharedDatabase::insert`]
    /// refuses duplicates), and [`SharedDatabase::replace`] keeps the
    /// binding while swapping the data, so the resolved id stays valid
    /// across hot swaps.
    pub fn find(&self, name: &str) -> Option<RepId> {
        self.by_name.get(name).copied()
    }

    /// The id of every registered slot, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = RepId> + '_ {
        (0..self.slots.len()).map(RepId)
    }

    /// Number of registered representations.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no representation is registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// The cache key: everything the optimiser's answer depends on, and
/// nothing else — the input f-tree's exact structure (node ids, parent
/// links, classes, visible attributes, bound constants and edge
/// cardinalities; the cached plan's operators reference node ids, so
/// structural identity is required for validity) and the equality
/// conditions.  The cached value is the optimiser's plan for exactly these
/// two; a request's constant selections, its projection and its head's
/// chain swaps are added around that plan per request, after the lookup.
/// So every request over one tree with the same equalities — whatever its
/// selection constants, selections, projection or head — shares one entry,
/// and none replays a plan that lacks its own tail.
pub(crate) fn plan_key(tree: &FTree, equalities: &[(AttrId, AttrId)]) -> String {
    let mut key = tree_fingerprint(tree);
    key.push('|');
    for (a, b) in equalities {
        let _ = write!(key, "q{}={};", a.0, b.0);
    }
    key
}

/// The input-f-tree portion of a [`plan_key`]: the tree's exact structure —
/// node ids, parent links, classes, projected attributes, bound constants —
/// plus the dependency edges with their cardinalities.  Every cache key
/// starts with this fingerprint verbatim, which is what makes targeted
/// invalidation possible: the plans keyed on a replaced representation's
/// tree are exactly the keys carrying its fingerprint.
pub(crate) fn tree_fingerprint(tree: &FTree) -> String {
    let mut key = String::new();
    for edge in tree.edges() {
        let _ = write!(key, "e{}:", edge.cardinality);
        for attr in &edge.attrs {
            let _ = write!(key, "{},", attr.0);
        }
        key.push(';');
    }
    key.push('|');
    for node in tree.node_ids() {
        let _ = write!(key, "n{}", node.index());
        if let Some(parent) = tree.parent(node) {
            let _ = write!(key, "p{}", parent.index());
        }
        key.push('c');
        for attr in tree.class(node) {
            let _ = write!(key, "{},", attr.0);
        }
        key.push('v');
        for attr in tree.projected_attrs(node) {
            let _ = write!(key, "{},", attr.0);
        }
        if let Some(constant) = tree.constant(node) {
            let _ = write!(key, "k{}", constant.0);
        }
        key.push(';');
    }
    key
}

/// Whether a cache key was built over the given input-tree fingerprint:
/// the fingerprint opens the key and the `|` that opens the equality list
/// follows it, so the trailing delimiter keeps a tree whose fingerprint
/// happens to be a prefix of another's from matching.
fn key_matches_tree(key: &str, fingerprint: &str) -> bool {
    key.strip_prefix(fingerprint)
        .is_some_and(|rest| rest.starts_with('|'))
}

/// Default bound on the number of cached plans — generous for any realistic
/// shape mix while keeping an adversarial stream of one-off shapes from
/// growing the cache without limit.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 1024;

/// The map plus its insertion order, updated together under one lock.
#[derive(Debug, Default)]
struct PlanCacheInner {
    plans: HashMap<String, Arc<OptimizedPlan>>,
    /// Keys in insertion order — the FIFO eviction queue.
    order: VecDeque<String>,
}

/// A concurrent, **bounded** cache of optimised f-plans, keyed on what the
/// optimiser reads: the input f-tree and the equalities.
///
/// The map is guarded by a plain mutex — entries are tiny `Arc`s and the
/// critical section is one hash-map probe, negligible next to the
/// optimisation it saves — while the hit/miss/eviction counters are
/// lock-free.  When the cache is full, publishing a new shape evicts the
/// oldest entry (FIFO; an evicted plan still in use stays alive through its
/// `Arc`).  The lock is poison-proof: a panic inside the critical section
/// (which only performs map and counter updates, so every intermediate
/// state is valid) does not take the cache down with it — later requests
/// recover the guard and keep serving.
///
/// Beside its plans the cache keeps a pool of idle path-cover memos
/// ([`SCostMemo`]): a miss borrows one for its search and puts it back, so a
/// cold request reads the covers its predecessors solved instead of solving
/// them again.  The pool takes its lock twice a miss and never on a hit, and
/// it never holds more memos than misses have run at once; each memo bounds
/// itself.  Idle memos survive `invalidate_tree`, the invalidation of a hot
/// swap ([`FdbServer::replace`]): a cover is a function of its incidence
/// sets alone, never stale.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<PlanCacheInner>,
    /// Idle path-cover memos, lent to one miss at a time.
    pub(crate) memos: Mutex<Vec<SCostMemo>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    /// Creates an empty cache bounded at [`DEFAULT_PLAN_CACHE_CAPACITY`].
    pub fn new() -> Self {
        PlanCache::with_capacity(DEFAULT_PLAN_CACHE_CAPACITY)
    }

    /// Creates an empty cache bounded at `capacity` plans (clamped to at
    /// least one).
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(PlanCacheInner::default()),
            memos: Mutex::default(),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// The lock, recovered if a previous holder panicked mid-update (the
    /// critical sections only swap whole values, so the state is valid).
    fn locked(&self) -> MutexGuard<'_, PlanCacheInner> {
        self.inner
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.locked().plans.len()
    }

    /// Whether the cache holds no plan.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a plan, bumping the hit/miss counters.
    pub(crate) fn lookup(&self, key: &str) -> Option<Arc<OptimizedPlan>> {
        let found = self.locked().plans.get(key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::SeqCst),
            None => self.misses.fetch_add(1, Ordering::SeqCst),
        };
        found
    }

    /// Publishes a plan for a key (last writer wins; racing optimisers of
    /// the same shape produce equal-cost plans, so either result is fine),
    /// evicting the oldest entries if the cache is full.  Returns how many
    /// entries were evicted.
    pub(crate) fn insert(&self, key: String, plan: Arc<OptimizedPlan>) -> u64 {
        let mut evicted = 0;
        let mut inner = self.locked();
        if inner.plans.insert(key.clone(), plan).is_none() {
            inner.order.push_back(key);
            while inner.plans.len() > self.capacity {
                let Some(oldest) = inner.order.pop_front() else {
                    break;
                };
                inner.plans.remove(&oldest);
                evicted += 1;
            }
        }
        drop(inner);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::SeqCst);
        }
        evicted
    }

    /// Drops every plan keyed on the given input-tree fingerprint (see
    /// [`tree_fingerprint`]) — the entries that were built over a
    /// representation that has just been replaced.  Keys pin the exact tree
    /// structure, so plans for *other* trees — including the replacement,
    /// if it has a different structure — are untouched.  Returns how many
    /// entries were dropped, and adds them to the invalidation counter.
    ///
    /// Note that staleness is already structurally impossible: a cached
    /// plan can only ever be looked up by a query over the exact tree it
    /// was optimised for, for which it remains correct.  Invalidation is
    /// hygiene (the replaced tree's shapes would otherwise linger until
    /// FIFO eviction) and observability (the counter surfaces swaps in
    /// [`ServerStats`]).
    pub(crate) fn invalidate_tree(&self, fingerprint: &str) -> u64 {
        let mut inner = self.locked();
        let before = inner.plans.len();
        inner
            .plans
            .retain(|key, _| !key_matches_tree(key, fingerprint));
        let dropped = (before - inner.plans.len()) as u64;
        if dropped > 0 {
            let inner = &mut *inner;
            inner.order.retain(|key| inner.plans.contains_key(key));
        }
        drop(inner);
        if dropped > 0 {
            self.invalidations.fetch_add(dropped, Ordering::SeqCst);
        }
        dropped
    }
}

/// One query to serve: which representation to read, the query, and an
/// optional head — an aggregate head (folds on the fused overlay, returns
/// no representation) or an `ORDER BY` list (returns the flat rows in the
/// canonical order).  The two heads are mutually exclusive
/// ([`FdbEngine::run`] rejects a request carrying both), mirroring
/// `Query::validate`.
#[derive(Clone, Debug)]
pub struct ServeRequest {
    /// Representation to query.
    pub rep: RepId,
    /// The query.
    pub query: FactorisedQuery,
    /// Evaluate as an aggregate instead of returning a representation.
    pub aggregate: Option<AggregateHead>,
    /// Return the result rows ordered by these attributes (see
    /// [`crate::engine::OrderedOutput`]).  Empty means unordered; must be
    /// empty when `aggregate` is set.
    pub order_by: Vec<AttrId>,
    /// Per-request resource allowance (deadline, budget, cancellation).
    /// [`QueryLimits::unlimited`] — the `Default` — governs nothing.
    pub limits: QueryLimits,
}

impl ServeRequest {
    /// An ungoverned request (no deadline, budget or cancellation flag).
    pub fn new(rep: RepId, query: FactorisedQuery, aggregate: Option<AggregateHead>) -> Self {
        ServeRequest {
            rep,
            query,
            aggregate,
            order_by: Vec::new(),
            limits: QueryLimits::unlimited(),
        }
    }

    /// The same request with an `ORDER BY` head.
    pub fn with_order_by(mut self, order_by: Vec<AttrId>) -> Self {
        self.order_by = order_by;
        self
    }

    /// The same request under the given limits.
    pub fn with_limits(mut self, limits: QueryLimits) -> Self {
        self.limits = limits;
        self
    }
}

/// A snapshot of a server's counters.
#[derive(Clone, Copy, Debug)]
pub struct ServerStats {
    /// Worker threads in the pool.
    pub threads: usize,
    /// Requests completed (successfully or with an error).
    pub queries_served: u64,
    /// Plan-cache hits across all served requests.
    pub plan_cache_hits: u64,
    /// Plan-cache misses across all served requests.
    pub plan_cache_misses: u64,
    /// Distinct (f-tree, equalities) keys currently cached.
    pub plan_cache_len: usize,
    /// Plan-cache entries evicted to stay within the capacity bound.
    pub plan_cache_evictions: u64,
    /// Plan-cache entries dropped because their representation was hot-
    /// swapped ([`FdbServer::replace`]).
    pub plan_cache_invalidations: u64,
    /// Requests shed at admission (`FdbError::Overloaded`): the in-flight
    /// bound was hit, or the server was draining.
    pub requests_shed: u64,
    /// Requests that panicked mid-evaluation and were reported as
    /// `FdbError::WorkerPanicked` (the worker survived each one).
    pub worker_panics: u64,
}

impl ServerStats {
    /// The server counters as aligned `name value` rows, in the same shape
    /// as `EvalStats::counters_table` — serving reports print this instead
    /// of improvising their own lines.
    pub fn counters_table(&self) -> String {
        let rows: [(&str, String); 6] = [
            ("worker threads", self.threads.to_string()),
            ("queries served", self.queries_served.to_string()),
            (
                "plan cache hits / misses / len",
                format!(
                    "{} / {} / {}",
                    self.plan_cache_hits, self.plan_cache_misses, self.plan_cache_len
                ),
            ),
            (
                "plan cache evictions / invalidations",
                format!(
                    "{} / {}",
                    self.plan_cache_evictions, self.plan_cache_invalidations
                ),
            ),
            ("requests shed", self.requests_shed.to_string()),
            ("worker panics", self.worker_panics.to_string()),
        ];
        crate::engine::aligned(&rows)
    }
}

impl fmt::Display for ServerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.counters_table())
    }
}

/// How many requests may be in flight per worker thread before admission
/// control sheds new arrivals — enough headroom that a bursty but sane
/// batch never sheds, while a runaway producer is bounded.
pub const DEFAULT_IN_FLIGHT_PER_THREAD: usize = 128;

/// A multi-threaded query server over a [`SharedDatabase`].
///
/// Every request is one [`FdbEngine::run`] call — concurrency comes purely
/// from running independent requests on the work-stealing pool, reading the
/// shared frozen arenas in place.
///
/// # Robustness
///
/// The server is built to survive bad requests and bounded to survive bad
/// clients:
///
/// * every request runs under its own [`QueryLimits`]
///   ([`ServeRequest::limits`]) — deadline, work budget, cancellation flag —
///   enforced cooperatively inside the evaluation hot loops;
/// * a panic during evaluation is caught **per request**
///   ([`FdbError::WorkerPanicked`]): the worker survives, the rest of the
///   batch completes, and the shared state stays usable (no lock is held
///   across evaluation);
/// * admission control bounds the number of in-flight requests
///   ([`DEFAULT_IN_FLIGHT_PER_THREAD`] per worker); arrivals beyond the bound are shed
///   immediately with [`FdbError::Overloaded`] instead of queueing without
///   limit;
/// * [`FdbServer::shutdown`] drains gracefully: in-flight requests finish,
///   new arrivals are shed.
pub struct FdbServer {
    engine: FdbEngine,
    db: Arc<SharedDatabase>,
    cache: Arc<PlanCache>,
    pool: ThreadPool,
    served: AtomicU64,
    /// Requests admitted and not yet completed.
    in_flight: Arc<AtomicUsize>,
    /// Admission bound on `in_flight`.
    max_in_flight: usize,
    /// Set by [`FdbServer::shutdown`]: admit nothing more.
    draining: AtomicBool,
    shed: AtomicU64,
    panics: Arc<AtomicU64>,
}

impl FdbServer {
    /// Creates a server with `threads` workers and the default admission
    /// bound ([`DEFAULT_IN_FLIGHT_PER_THREAD`] per worker).
    pub fn new(engine: FdbEngine, db: Arc<SharedDatabase>, threads: usize) -> Self {
        let pool = ThreadPool::new(threads);
        let max_in_flight = pool.threads() * DEFAULT_IN_FLIGHT_PER_THREAD;
        FdbServer {
            engine,
            db,
            cache: Arc::new(PlanCache::new()),
            pool,
            served: AtomicU64::new(0),
            in_flight: Arc::new(AtomicUsize::new(0)),
            max_in_flight,
            draining: AtomicBool::new(false),
            shed: AtomicU64::new(0),
            panics: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Creates a server sized by [`default_threads`] (the `FDB_THREADS`
    /// environment variable, else the machine's available parallelism).
    pub fn with_default_threads(engine: FdbEngine, db: Arc<SharedDatabase>) -> Self {
        FdbServer::new(engine, db, default_threads())
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The server's plan cache.
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The shared database of registered representations.
    pub fn db(&self) -> &SharedDatabase {
        &self.db
    }

    /// The worker pool (shared with callers that want to run their own
    /// tasks next to query serving, e.g. parallel enumeration of results).
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Requests completed so far.
    pub fn queries_served(&self) -> u64 {
        self.served.load(Ordering::SeqCst)
    }

    /// Requests admitted and not yet completed.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Whether [`FdbServer::shutdown`] has been called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// A snapshot of the server's counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            threads: self.threads(),
            queries_served: self.queries_served(),
            plan_cache_hits: self.cache.hits.load(Ordering::SeqCst),
            plan_cache_misses: self.cache.misses.load(Ordering::SeqCst),
            plan_cache_len: self.cache.len(),
            plan_cache_evictions: self.cache.evictions.load(Ordering::SeqCst),
            plan_cache_invalidations: self.cache.invalidations.load(Ordering::SeqCst),
            requests_shed: self.shed.load(Ordering::SeqCst),
            worker_panics: self.panics.load(Ordering::SeqCst),
        }
    }

    /// Tries to reserve an in-flight slot; on refusal (draining, or the
    /// bound is hit) records the shed and reports [`FdbError::Overloaded`].
    fn admit(&self) -> Result<()> {
        if !self.is_draining() {
            let mut current = self.in_flight.load(Ordering::SeqCst);
            while current < self.max_in_flight {
                match self.in_flight.compare_exchange(
                    current,
                    current + 1,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => return Ok(()),
                    Err(actual) => current = actual,
                }
            }
        }
        self.shed.fetch_add(1, Ordering::SeqCst);
        Err(FdbError::Overloaded {
            in_flight: self.in_flight(),
            capacity: self.max_in_flight,
        })
    }

    /// Hot-swaps a representation **while serving**: atomically publishes
    /// `rep` as the slot's new epoch, then drops every cached plan keyed on
    /// the *old* representation's f-tree.  In-flight requests that already
    /// resolved the slot finish on the old arena (it stays alive through
    /// their pinned `Arc`s); requests admitted after the swap read the new
    /// one.  Returns the replaced representation.
    ///
    /// Swap first, invalidate second: a request racing the swap either
    /// pinned the old epoch (its old-tree plans are still correct — cache
    /// keys embed the full tree structure, so a plan can only be looked up
    /// by queries over the exact tree it was built for) or pins the new one
    /// (and never matches an old-tree key).  Stale plans are therefore
    /// structurally impossible; the invalidation is hygiene plus the
    /// `plan_cache_invalidations` counter in [`FdbServer::stats`].
    pub fn replace(&self, id: RepId, rep: FRep) -> Result<Arc<FRep>> {
        self.replace_ctx(id, rep, &ExecCtx::unlimited())
    }

    /// [`FdbServer::replace`] under an execution context: the governed
    /// variant checks deadline/cancellation before publishing, and hosts
    /// the `db.swap` failpoint the chaos suite uses to panic a swap
    /// mid-flight.
    pub fn replace_ctx(&self, id: RepId, rep: FRep, ctx: &ExecCtx) -> Result<Arc<FRep>> {
        failpoint!(ctx, "db.swap");
        ctx.check_now()?;
        let old = self.db.replace(id, rep)?;
        self.cache.invalidate_tree(&tree_fingerprint(old.tree()));
        Ok(old)
    }

    /// Stops admitting requests and blocks until every in-flight request
    /// has finished.  Subsequent serve calls shed with
    /// [`FdbError::Overloaded`]; the pool and caches stay alive for
    /// inspection.
    pub fn shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.pool.wait_idle();
    }

    /// Serves one request on the calling thread (still consulting the plan
    /// cache and admission control — the sequential baseline of the
    /// serving benchmark).
    pub fn serve_one(&self, request: &ServeRequest) -> Result<ServeOutcome> {
        self.admit()?;
        let outcome = serve_request_guarded(self.engine, &self.db, &self.cache, request);
        if matches!(outcome, Err(FdbError::WorkerPanicked { .. })) {
            self.panics.fetch_add(1, Ordering::SeqCst);
        }
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        self.served.fetch_add(1, Ordering::SeqCst);
        outcome
    }

    /// Serves a batch of requests concurrently on the pool, returning the
    /// outcomes **in request order**.  The calling thread blocks until the
    /// whole batch is done.  Requests refused at admission come back as
    /// [`FdbError::Overloaded`]; a request that panics mid-evaluation comes
    /// back as [`FdbError::WorkerPanicked`] while the rest of the batch
    /// completes normally.
    pub fn serve_batch(&self, requests: Vec<ServeRequest>) -> Vec<Result<ServeOutcome>> {
        let n = requests.len();
        let mut slots: Vec<Option<Result<ServeOutcome>>> = (0..n).map(|_| None).collect();
        let (tx, rx) = mpsc::channel::<(usize, Result<ServeOutcome>)>();
        for (index, request) in requests.into_iter().enumerate() {
            if let Err(refused) = self.admit() {
                slots[index] = Some(Err(refused));
                continue;
            }
            let engine = self.engine;
            let db = Arc::clone(&self.db);
            let cache = Arc::clone(&self.cache);
            let in_flight = Arc::clone(&self.in_flight);
            let panics = Arc::clone(&self.panics);
            let tx = tx.clone();
            self.pool.spawn(move || {
                let outcome = serve_request_guarded(engine, &db, &cache, &request);
                if matches!(outcome, Err(FdbError::WorkerPanicked { .. })) {
                    panics.fetch_add(1, Ordering::SeqCst);
                }
                in_flight.fetch_sub(1, Ordering::SeqCst);
                // A closed receiver only means the caller went away.
                let _ = tx.send((index, outcome));
            });
        }
        drop(tx);

        for (index, outcome) in rx {
            slots[index] = Some(outcome);
            self.served.fetch_add(1, Ordering::SeqCst);
        }
        slots
            .into_iter()
            .map(|slot| {
                // Unreachable with the per-request guard in place (every
                // spawned task delivers), kept as the last line of defence.
                slot.unwrap_or_else(|| {
                    Err(FdbError::WorkerPanicked {
                        detail: "worker delivered no result for this request".into(),
                    })
                })
            })
            .collect()
    }
}

/// [`serve_request`] behind a per-request panic boundary: a panicking
/// evaluation is reported as [`FdbError::WorkerPanicked`] instead of
/// unwinding into the worker loop, so one poisoned request cannot take
/// down its worker or its batch.  Safe to unwind across: evaluation
/// mutates nothing shared (results are built fresh; the plan cache is
/// poison-proof and only swaps whole values).
fn serve_request_guarded(
    engine: FdbEngine,
    db: &SharedDatabase,
    cache: &PlanCache,
    request: &ServeRequest,
) -> Result<ServeOutcome> {
    catch_unwind(AssertUnwindSafe(|| {
        serve_request(engine, db, cache, request)
    }))
    .unwrap_or_else(|payload| {
        let detail = if let Some(msg) = payload.downcast_ref::<&str>() {
            (*msg).to_string()
        } else if let Some(msg) = payload.downcast_ref::<String>() {
            msg.clone()
        } else {
            "non-string panic payload".to_string()
        };
        Err(FdbError::WorkerPanicked { detail })
    })
}

/// What [`FdbServer::serve_one`] and the pool workers do per request:
/// resolve the representation, then [`FdbEngine::run`] it through the plan
/// cache under the request's [`QueryLimits`].
fn serve_request(
    engine: FdbEngine,
    db: &SharedDatabase,
    cache: &PlanCache,
    request: &ServeRequest,
) -> Result<ServeOutcome> {
    let ctx = ExecCtx::new(&request.limits);
    failpoint!(ctx, "serve.request");
    let rep = db.get(request.rep).ok_or_else(|| FdbError::InvalidInput {
        detail: format!("unknown representation id {:?}", request.rep),
    })?;
    engine.run(
        Source::Factorised {
            input: &rep,
            query: &request.query,
            cache: Some(cache),
        },
        Head {
            aggregate: request.aggregate.as_ref(),
            order_by: &request.order_by,
        },
        &ctx,
    )
}

/// Compile-time pin of the serving layer's own shareability: the server is
/// driven from multiple threads and its state crosses into pool workers.
#[allow(dead_code)]
fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    #[allow(dead_code)]
    fn serving_types_are_shareable() {
        _assert_send_sync::<SharedDatabase>();
        _assert_send_sync::<PlanCache>();
        _assert_send_sync::<FdbServer>();
        _assert_send_sync::<ServeRequest>();
        _assert_send_sync::<ServeOutcome>();
    }
};

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_common::{AggregateHead, AttrId, Catalog, ComparisonOp, ConstSelection, Query, Value};
    use fdb_relation::Database;

    /// A small joined base representation plus two of its attributes.
    fn base_rep() -> (FRep, AttrId, AttrId) {
        let mut catalog = Catalog::new();
        let (r, _) = catalog.add_relation("R", &["a", "b"]);
        let (s, _) = catalog.add_relation("S", &["b2", "c"]);
        let mut db = Database::new(catalog);
        db.insert_raw_rows(r, &[vec![1, 1], vec![1, 2], vec![2, 2], vec![3, 1]])
            .unwrap();
        db.insert_raw_rows(s, &[vec![1, 5], vec![2, 6], vec![2, 7]])
            .unwrap();
        let cat = db.catalog();
        let a = cat.find_attr("R.a").unwrap();
        let b = cat.find_attr("R.b").unwrap();
        let b2 = cat.find_attr("S.b2").unwrap();
        let query = Query::product(vec![r, s]).with_equality(b, b2);
        let out = FdbEngine::new().evaluate_flat(&db, &query).unwrap();
        (out.result, a, b)
    }

    /// One ungoverned evaluation through `cache`.
    fn run_cached(
        rep: &FRep,
        query: &FactorisedQuery,
        head: Head<'_>,
        cache: &PlanCache,
    ) -> ServeOutcome {
        let source = Source::Factorised {
            input: rep,
            query,
            cache: Some(cache),
        };
        FdbEngine::new()
            .run(source, head, &ExecCtx::unlimited())
            .unwrap()
    }

    /// [`run_cached`] for a headless request.
    fn run_rep_cached(
        rep: &FRep,
        query: &FactorisedQuery,
        cache: &PlanCache,
    ) -> crate::engine::EvalOutput {
        match run_cached(rep, query, Head::default(), cache) {
            ServeOutcome::Rep(out) => out,
            other => panic!("a headless request yields a representation, got {other:?}"),
        }
    }

    fn select_a(a: AttrId, value: u64) -> FactorisedQuery {
        FactorisedQuery::default().with_const_selection(ConstSelection {
            attr: a,
            op: ComparisonOp::Eq,
            value: Value::new(value),
        })
    }

    #[test]
    fn cache_hits_skip_the_optimiser_and_preserve_results() {
        let (rep, a, b) = base_rep();
        let engine = FdbEngine::new();
        let cache = PlanCache::new();
        let query1 = select_a(a, 1).with_projection(vec![a, b]);
        let query2 = select_a(a, 2).with_projection(vec![a, b]);

        let miss = run_rep_cached(&rep, &query1, &cache);
        assert_eq!(
            (miss.stats.plan_cache_hits, miss.stats.plan_cache_misses),
            (0, 1)
        );
        // Same shape, different constant: a hit on one cached plan.
        let hit = run_rep_cached(&rep, &query2, &cache);
        assert_eq!(
            (hit.stats.plan_cache_hits, hit.stats.plan_cache_misses),
            (1, 0)
        );
        assert_eq!(cache.len(), 1, "constants are abstracted from the key");
        assert_eq!(
            (
                cache.hits.load(Ordering::SeqCst),
                cache.misses.load(Ordering::SeqCst)
            ),
            (1, 1)
        );

        // Cached results are store-identical to the uncached pipeline.
        for query in [&query1, &query2] {
            let cached = run_rep_cached(&rep, query, &cache);
            let plain = engine.evaluate_factorised(&rep, query).unwrap();
            assert!(cached.result.store_identical(&plain.result));
            assert_eq!(
                (plain.stats.plan_cache_hits, plain.stats.plan_cache_misses),
                (0, 0)
            );
        }

        // A different selection, with no equalities either, hits too: the
        // key holds only what the optimiser reads.
        let other = FactorisedQuery::default().with_const_selection(ConstSelection {
            attr: a,
            op: ComparisonOp::Ge,
            value: Value::new(1),
        });
        let out = run_rep_cached(&rep, &other, &cache);
        assert_eq!(
            (out.stats.plan_cache_hits, out.stats.plan_cache_misses),
            (1, 0)
        );
        assert_eq!(cache.len(), 1);
        let plain = engine.evaluate_factorised(&rep, &other).unwrap();
        assert!(out.result.store_identical(&plain.result));
    }

    #[test]
    fn an_interrupted_optimisation_publishes_no_plan() {
        use std::time::Duration;
        let (rep, a, _) = base_rep();
        let c = *rep.visible_attrs().last().unwrap();
        let engine = FdbEngine::new();
        let cache = PlanCache::new();
        // A cold shape: `a = c` needs restructuring, so the request enters
        // the exhaustive search.
        let query = FactorisedQuery::equalities(vec![(a, c)]);

        let expired = QueryLimits::unlimited().with_deadline(Duration::ZERO);
        let flag = Arc::new(AtomicBool::new(true));
        let cancelled = QueryLimits::unlimited().with_cancel(flag);
        for limits in [expired, cancelled] {
            let ctx = ExecCtx::new(&limits);
            std::thread::sleep(Duration::from_millis(1));
            let source = Source::Factorised {
                input: &rep,
                query: &query,
                cache: Some(&cache),
            };
            let err = engine.run(source, Head::default(), &ctx).unwrap_err();
            assert_eq!(err, FdbError::DeadlineExceeded { limit_ms: 0 });
            // The search stopped before it had a plan: before the optimiser
            // took the context it ran to the end, cached its plan, and only
            // the executor noticed the limit.
            assert!(cache.is_empty(), "an interrupted search caches nothing");
        }

        // The same shape still optimises and evaluates afterwards.
        let out = run_rep_cached(&rep, &query, &cache);
        assert_eq!(out.stats.plan_cache_misses, 1);
        assert!(out.stats.explored_states > 0);
        assert_eq!(cache.len(), 1);
        let flat = engine.evaluate_factorised(&rep, &query).unwrap();
        assert!(out.result.store_identical(&flat.result));
    }

    #[test]
    fn every_head_over_one_query_body_shares_one_plan_entry() {
        // The cache key once covered only the query body, and then a cached
        // plan lacking a head's restructure/ordering tail was a hazard.  The
        // tail is added per request after the lookup, so every head over one
        // body shares one entry — and must still return exactly what the
        // uncached engine returns for that head.
        let (rep, a, b) = base_rep();
        let c = *rep.visible_attrs().last().unwrap();
        let cache = PlanCache::new();
        // A body the optimiser must restructure for, so the entry holds a
        // non-empty plan.
        let body = FactorisedQuery::equalities(vec![(a, c)]);
        let count = AggregateHead::count();
        let count_by_b = count.clone().grouped_by(b);
        let aggregate = |head| Head {
            aggregate: Some(head),
            ..Head::default()
        };
        let heads = [
            Head::default(),
            aggregate(&count),
            aggregate(&count_by_b),
            Head {
                order_by: &[b],
                ..Head::default()
            },
        ];
        for (i, head) in heads.into_iter().enumerate() {
            let cached = run_cached(&rep, &body, head, &cache);
            let misses = u64::from(i == 0);
            assert_eq!(
                (
                    cached.stats().plan_cache_hits,
                    cached.stats().plan_cache_misses
                ),
                (1 - misses, misses),
                "head {i}"
            );
            assert_eq!(cache.len(), 1, "head {i}");
            let uncached = Source::Factorised {
                input: &rep,
                query: &body,
                cache: None,
            };
            let plain = FdbEngine::new()
                .run(uncached, head, &ExecCtx::unlimited())
                .unwrap();
            assert_eq!(cached.stats().plan, plain.stats().plan, "head {i}");
            match (cached, plain) {
                (ServeOutcome::Rep(x), ServeOutcome::Rep(y)) => {
                    assert!(x.result.store_identical(&y.result))
                }
                (ServeOutcome::Aggregate(x), ServeOutcome::Aggregate(y)) => {
                    assert_eq!(x.result, y.result)
                }
                (ServeOutcome::Ordered(x), ServeOutcome::Ordered(y)) => {
                    assert_eq!(x.rows, y.rows);
                    assert_eq!(x.strategy, y.strategy);
                }
                (x, y) => panic!("head {i}: outcome kinds differ: {x:?} vs {y:?}"),
            }
        }
    }

    #[test]
    fn serve_batch_preserves_request_order_and_matches_serial_evaluation() {
        let (rep, a, _) = base_rep();
        let engine = FdbEngine::new();
        let mut shared = SharedDatabase::new();
        let id = shared.insert("base", rep.clone()).unwrap();
        assert_eq!(shared.find("base"), Some(id));
        let server = FdbServer::new(engine, Arc::new(shared), 3);

        let requests: Vec<ServeRequest> = (0..12)
            .map(|i| {
                ServeRequest::new(
                    id,
                    select_a(a, 1 + i % 3),
                    (i % 4 == 0).then(AggregateHead::count),
                )
            })
            .collect();
        let outcomes = server.serve_batch(requests.clone());
        assert_eq!(outcomes.len(), requests.len());
        for (request, outcome) in requests.iter().zip(&outcomes) {
            match (outcome.as_ref().unwrap(), &request.aggregate) {
                (ServeOutcome::Aggregate(out), Some(head)) => {
                    let source = Source::Factorised {
                        input: &rep,
                        query: &request.query,
                        cache: None,
                    };
                    let head = Head {
                        aggregate: Some(head),
                        ..Head::default()
                    };
                    let expected = engine.run(source, head, &ExecCtx::unlimited()).unwrap();
                    let ServeOutcome::Aggregate(expected) = expected else {
                        panic!("outcome kind mismatch: {expected:?}");
                    };
                    assert_eq!(out.result, expected.result);
                }
                (ServeOutcome::Rep(out), None) => {
                    let expected = engine.evaluate_factorised(&rep, &request.query).unwrap();
                    assert!(out.result.store_identical(&expected.result));
                }
                (outcome, _) => panic!("outcome kind mismatch: {outcome:?}"),
            }
        }
        let stats = server.stats();
        assert_eq!(stats.queries_served, 12);
        assert_eq!(stats.threads, 3);
        assert_eq!(stats.plan_cache_hits + stats.plan_cache_misses, 12);
        assert!(stats.plan_cache_hits > 0, "repeated shapes hit the cache");
        assert!(stats.plan_cache_len >= 1);
    }

    /// A miss-heavy batch (`serve_cold`'s catalogue, cut down) served by
    /// fresh servers at 1 and 4 workers: the pool lends its memos to
    /// different misses in a different order, and every result and settled
    /// state count is the same, and the same as an uncached request's, whose
    /// search starts from an empty memo.
    #[test]
    fn pooled_memos_serve_misses_alike_at_any_pool_size() {
        use fdb_common::RelId;
        use fdb_datagen::{
            combinatorial_database, random_followup_equalities, random_query, ValueDistribution,
        };
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0xFDB4);
        let flat =
            combinatorial_database(&mut StdRng::seed_from_u64(1), ValueDistribution::Uniform);
        let catalog = flat.catalog().clone();
        let rels: Vec<RelId> = catalog.rels().collect();
        let engine = FdbEngine::new();
        let mut shared = SharedDatabase::new();
        let mut requests = Vec::new();
        for (i, k) in [2, 2, 3, 3].into_iter().enumerate() {
            let base = random_query(&mut rng, &catalog, &rels, k);
            let input = engine.evaluate_flat(&flat, &base).unwrap().result;
            let id = shared.insert(format!("input-{i}"), input).unwrap();
            for l in [1, 1, 2, 2, 3, 3] {
                let follow = random_followup_equalities(&mut rng, &catalog, &base, l);
                requests.push(ServeRequest::new(
                    id,
                    FactorisedQuery::equalities(follow),
                    None,
                ));
            }
        }
        let shared = Arc::new(shared);
        let serve = |threads: usize| -> Vec<crate::engine::EvalOutput> {
            let server = FdbServer::new(engine, Arc::clone(&shared), threads);
            let outcomes = server.serve_batch(requests.clone());
            let stats = server.stats();
            assert!(
                stats.plan_cache_misses > 4 * stats.plan_cache_hits,
                "{stats}"
            );
            let rep = |outcome: Result<ServeOutcome>| match outcome.unwrap() {
                ServeOutcome::Rep(out) => out,
                other => panic!("a headless request yields a representation, got {other:?}"),
            };
            outcomes.into_iter().map(rep).collect()
        };
        let (one, four) = (serve(1), serve(4));
        assert_eq!((one.len(), four.len()), (requests.len(), requests.len()));
        for ((one, four), request) in one.iter().zip(&four).zip(&requests) {
            let input = shared.get(request.rep).unwrap();
            let fresh = engine.evaluate_factorised(&input, &request.query).unwrap();
            for served in [one, four] {
                assert!(served.result.store_identical(&fresh.result));
                assert_eq!(served.stats.explored_states, fresh.stats.explored_states);
            }
        }
    }

    #[test]
    fn unknown_representation_ids_are_reported_not_panicked() {
        let (rep, a, _) = base_rep();
        let mut shared = SharedDatabase::new();
        shared.insert("base", rep).unwrap();
        let server = FdbServer::new(FdbEngine::new(), Arc::new(shared), 2);
        let request = ServeRequest::new(RepId(42), select_a(a, 1), None);
        assert!(server.serve_one(&request).is_err());
        let batch = server.serve_batch(vec![request]);
        assert!(batch[0].is_err());
        assert_eq!(server.queries_served(), 2);
    }

    #[test]
    fn duplicate_names_are_structured_errors_not_shadowed_slots() {
        let (rep, _, _) = base_rep();
        let mut shared = SharedDatabase::new();
        let first = shared.insert("base", rep.clone()).unwrap();
        let other = shared.insert("other", rep.clone()).unwrap();
        match shared.insert("base", rep) {
            Err(FdbError::DuplicateName { name }) => assert_eq!(name, "base"),
            other => panic!("expected DuplicateName, got {other:?}"),
        }
        // The failed insert left no half-registered slot behind.
        assert_eq!(shared.len(), 2);
        assert_eq!(shared.find("base"), Some(first));
        assert_eq!(shared.find("other"), Some(other));
        assert_eq!(shared.find("missing"), None);
        assert_eq!(shared.name(first), Some("base"));
    }

    #[test]
    fn insert_after_replace_still_resolves_both_names() {
        // `replace` swaps the arena under an existing name; a later insert
        // under a *new* name must not disturb the replaced slot's binding,
        // and re-inserting the replaced name must still be rejected.
        let (rep, a, _) = base_rep();
        let engine = FdbEngine::new();
        let new_rep = engine
            .evaluate_factorised(&rep, &select_a(a, 1))
            .unwrap()
            .result;

        let mut shared = SharedDatabase::new();
        let id = shared.insert("base", rep.clone()).unwrap();
        shared.replace(id, new_rep.clone()).unwrap();
        let late = shared.insert("late", rep.clone()).unwrap();

        assert_eq!(shared.find("base"), Some(id), "name survives the swap");
        assert_eq!(shared.find("late"), Some(late));
        assert_eq!(shared.epoch(id), Some(1));
        assert_eq!(shared.epoch(late), Some(0));
        assert!(shared.get(id).unwrap().store_identical(&new_rep));
        assert!(matches!(
            shared.insert("base", rep),
            Err(FdbError::DuplicateName { .. })
        ));
    }

    #[test]
    fn replace_publishes_a_new_epoch_while_pinned_readers_keep_the_old_arena() {
        let (rep, a, _) = base_rep();
        let engine = FdbEngine::new();
        let new_rep = engine.evaluate_factorised(&rep, &select_a(a, 1)).unwrap();

        let mut shared = SharedDatabase::new();
        let id = shared.insert("base", rep.clone()).unwrap();
        let pinned = shared.get(id).unwrap();
        assert_eq!(shared.epoch(id), Some(0));

        let old = shared.replace(id, new_rep.result.clone()).unwrap();
        assert!(old.store_identical(&rep), "replace returns the old arena");
        assert!(
            pinned.store_identical(&rep),
            "a reader that pinned the old epoch is unaffected by the swap"
        );
        assert_eq!(
            shared.epoch(id),
            Some(1),
            "each swap bumps the slot's epoch"
        );
        assert!(shared.get(id).unwrap().store_identical(&new_rep.result));
        assert_eq!(shared.find("base"), Some(id), "the name survives the swap");

        // Replacing an unknown id is a structured error, not a panic.
        assert!(shared.replace(RepId(99), rep).is_err());
    }

    #[test]
    fn server_replace_invalidates_exactly_the_swapped_trees_plans() {
        let (rep, a, b) = base_rep();
        let engine = FdbEngine::new();
        // A second representation with a *different* tree: project down to
        // one attribute.  Its cached plans must survive the swap of `base`.
        let other_rep = engine
            .evaluate_factorised(&rep, &FactorisedQuery::default().with_projection(vec![a]))
            .unwrap()
            .result;
        let new_rep = engine
            .evaluate_factorised(&rep, &select_a(a, 1))
            .unwrap()
            .result;

        let mut shared = SharedDatabase::new();
        let id = shared.insert("base", rep.clone()).unwrap();
        let other = shared.insert("other", other_rep.clone()).unwrap();
        let server = FdbServer::new(engine, Arc::new(shared), 2);

        let query = select_a(a, 1).with_projection(vec![a, b]);
        server
            .serve_one(&ServeRequest::new(id, query.clone(), None))
            .unwrap();
        server
            .serve_one(&ServeRequest::new(
                other,
                FactorisedQuery::default(),
                Some(AggregateHead::count()),
            ))
            .unwrap();
        assert_eq!(server.cache().len(), 2);

        server.replace(id, new_rep.clone()).unwrap();
        assert_eq!(
            server.cache().len(),
            1,
            "only the swapped tree's plan is dropped"
        );
        assert_eq!(server.stats().plan_cache_invalidations, 1);

        // Serving the same shape again optimises fresh against the new
        // epoch and matches sequential evaluation on the new arena.
        let outcome = server
            .serve_one(&ServeRequest::new(id, query.clone(), None))
            .unwrap();
        let ServeOutcome::Rep(got) = outcome else {
            panic!("expected a representation outcome");
        };
        let want = server.engine.evaluate_factorised(&new_rep, &query).unwrap();
        assert!(
            got.result.store_identical(&want.result),
            "post-swap requests evaluate on the new epoch"
        );
    }

    #[test]
    fn server_stats_counters_table_pins_the_row_set() {
        let stats = ServerStats {
            threads: 3,
            queries_served: 12,
            plan_cache_hits: 7,
            plan_cache_misses: 5,
            plan_cache_len: 4,
            plan_cache_evictions: 2,
            plan_cache_invalidations: 9,
            requests_shed: 1,
            worker_panics: 6,
        };
        let table = stats.counters_table();
        assert_eq!(table.lines().count(), 6, "one row per counter group");
        assert!(table.contains("worker threads"));
        assert!(table.contains("queries served"));
        assert!(table.contains("plan cache hits / misses / len"));
        assert!(table.contains("7 / 5 / 4"));
        assert!(table.contains("plan cache evictions / invalidations"));
        assert!(table.contains("2 / 9"));
        assert!(table.contains("requests shed"));
        assert!(table.contains("worker panics"));
        assert_eq!(format!("{stats}"), table, "Display prints the table");
    }
}
