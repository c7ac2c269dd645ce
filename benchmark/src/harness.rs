//! The run shape every workload shares.
//!
//! One process per workload: **set-up** (repeated, median reported) →
//! **record pass** (what every op returns) → **untraced phase**: latency
//! rounds (closed loop, one client, one op at a time on the main thread;
//! per-round median and p95) alternating with throughput passes (the same
//! op list at `threads`-way parallelism; ops per second), first iteration
//! discarded → with `--trace 1`, a **traced phase** on half of the time:
//! each op runs through its real entry point under a span and is then
//! replayed step by step through the public layer functions the engine
//! itself calls, in the engine's order, each under its own span → **check
//! phase**: every op against the independent flat oracle and against its
//! record.  End-to-end numbers come from the untraced phase only.

use crate::host;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{
    median, reduce_latency, reduce_qps, samples_beyond, summarise_round, RoundSummary,
};
use crate::trace::Recorder;
use fdb_common::FdbError;
use fdb_frep::AggregateResult;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What an op returned, reduced to what the check phase records and every
/// timed op is compared against.
#[derive(Clone, Debug, PartialEq)]
pub enum Observed {
    /// A factorised result: its singleton and tuple counts.
    Rep {
        /// `stats.result_size`
        size: usize,
        /// `stats.result_tuples`
        tuples: u128,
    },
    /// An aggregate value.
    Aggregate(AggregateResult),
    /// Ordered flat rows: their number plus the result's counts.
    Rows {
        /// Rows returned.
        rows: usize,
        /// `stats.result_size`
        size: usize,
        /// `stats.result_tuples`
        tuples: u128,
    },
    /// A composite op (a refresh cycle): the outcomes of its requests.
    Cycle(Vec<Observed>),
}

impl Observed {
    /// Result singletons of the op — the paper's size axis.
    pub fn singletons(&self) -> u64 {
        match self {
            Observed::Rep { size, .. } | Observed::Rows { size, .. } => *size as u64,
            Observed::Aggregate(_) => 0,
            Observed::Cycle(parts) => parts.iter().map(Observed::singletons).sum(),
        }
    }
}

/// Cumulative plan-cache counters of a workload's server(s).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// FIFO evictions.
    pub evictions: u64,
    /// Entries dropped by hot swaps.
    pub invalidations: u64,
}

impl std::ops::Add for CacheCounters {
    type Output = CacheCounters;
    fn add(self, other: CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            invalidations: self.invalidations + other.invalidations,
        }
    }
}

impl std::ops::Sub for CacheCounters {
    type Output = CacheCounters;
    fn sub(self, earlier: CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            invalidations: self.invalidations - earlier.invalidations,
        }
    }
}

/// Counts the replay gathers at the layer boundaries during one traced
/// round, so ratios are measured where the work happens.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// `explored_states` of `optimal_ftree`.
    pub ftree_states: u64,
    /// Singletons produced by `build_frep_ctx`.
    pub built_singletons: u64,
    /// `explored_states` of `ExhaustiveOptimizer::optimize`.
    pub exhaustive_states: u64,
    /// Σ `max_intermediate` of the greedy plans.
    pub greedy_cost: f64,
    /// Σ `max_intermediate` of the exhaustive plans for the same shapes.
    pub exhaustive_cost: f64,
    /// Heads satisfied on a root chain (from the entry point's stats).
    pub chain_heads: u64,
    /// Heads that fell back to the flat strategy.
    pub flat_fallbacks: u64,
    /// Input plus output singletons of fused executions.
    pub fuse_singletons: u64,
    /// Rows produced by ordered enumeration.
    pub enumerated_tuples: u64,
    /// Snapshot bytes decoded.
    pub decoded_bytes: u64,
    /// Σ `optimisation_time` the entry points reported.
    pub opt_ns: u64,
    /// Σ `execution_time` the entry points reported.
    pub exec_ns: u64,
}

/// One of the five workloads, as the harness drives it.
pub trait Workload: Sync {
    /// What the workload's entry point returns for one op.
    type Outcome;

    /// Number of ops in the deterministic op list.
    fn op_count(&self) -> usize;

    /// Runs outside the timed region before every round and pass
    /// (`serve_cold` builds its fresh server here).
    fn begin_round(&mut self) {}

    /// Runs op `op` through the real entry point on the calling thread.
    fn run_op(&self, op: usize) -> Result<Self::Outcome, FdbError>;

    /// Reduces an outcome to what timed ops are compared on.
    fn observe(&self, outcome: &Self::Outcome) -> Observed;

    /// Compares an outcome with the independent flat oracle.
    fn check_op(&self, op: usize, outcome: &Self::Outcome) -> Result<(), String>;

    /// One pass over the op list at `threads`-way parallelism, comparing
    /// every outcome with `expected`.
    fn run_pass(&self, threads: usize, expected: &[Observed]) -> Pass;

    /// Replays op `op` step by step through the public layer functions,
    /// one span per step, and compares the replay's result with the entry
    /// point's `outcome` (taken by value, so the replay can free what the
    /// comparison does not need before it allocates).
    fn replay_op(
        &self,
        op: usize,
        outcome: Self::Outcome,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) -> Result<(), String>;

    /// Cumulative plan-cache counters (zero for a workload without one).
    fn cache_counters(&self) -> CacheCounters {
        CacheCounters::default()
    }

    /// Layer timings taken once during set-up, in milliseconds per call
    /// (snapshot encode and save), reported as measured rather than per op.
    fn setup_layers(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// How one run is shaped.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds: all for the untraced phase, or half each for the
    /// untraced and the traced phase.
    pub seconds: f64,
    /// Run the traced phase and report per-layer metrics.
    pub trace: bool,
    /// Tiny dims, one iteration per phase, one set-up.
    pub smoke: bool,
    /// Write the result and span files under `benchmark/out/`.
    pub write_files: bool,
}

/// The outcome of one run: the contract line plus the full record.
pub struct RunReport {
    /// `{"correct", "attempted", "failed", "metrics"}` — the contract line.
    pub line: Json,
    /// The full record: line, host, phases, counts.
    pub record: Json,
}

/// Iterations (one latency round plus one throughput pass) before the
/// untraced phase may end on time; the first is discarded as warm-up.
const MIN_ITERATIONS: usize = 6;
/// The same for a traced run, whose untraced half only feeds
/// `trace.overhead_share`, `core.parallel_efficiency` and the cache counters.
const MIN_ITERATIONS_TRACED: usize = 4;
/// Set-ups per run at least and at most; set-ups repeat until
/// [`SETUP_SECONDS`] have been spent on them.  `setup_s` is their median.
const SETUPS: std::ops::RangeInclusive<usize> = 5..=15;
/// Time the repeated set-ups aim to fill.
const SETUP_SECONDS: f64 = 1.0;
/// A phase that has not reached its minimum count stops anyway once it has
/// used this multiple of its time budget.
const OVERRUN: f64 = 2.0;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Whether a phase that has finished `done` of at least `min` iterations
/// in `elapsed` should run another.
fn keep_going(done: usize, min: usize, elapsed: f64, budget: f64) -> bool {
    if done >= min {
        elapsed < budget
    } else {
        elapsed < budget * OVERRUN
    }
}

/// What one throughput pass did.
#[derive(Clone, Copy, Debug)]
pub struct Pass {
    /// Wall time the pass was busy.
    pub busy: Duration,
    /// Ops completed.
    pub ops: u64,
    /// Ops that failed or disagreed with their expectation.
    pub failed: u64,
}

/// One throughput pass of a workload whose ops run on the caller's thread:
/// `threads` closed-loop clients each run the **whole** op list once,
/// starting at staggered offsets, so every client does the same work and no
/// single heavy op decides how long the pass takes.
pub fn client_pass<W: Workload>(w: &W, threads: usize, expected: &[Observed]) -> Pass {
    let n = w.op_count();
    let start = Instant::now();
    let failed: u64 = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut failed = 0u64;
                    for i in 0..n {
                        let op = (i + t * n / threads) % n;
                        let outcome = std::hint::black_box(w.run_op(op));
                        let ok = outcome.is_ok_and(|out| w.observe(&out) == expected[op]);
                        failed += u64::from(!ok);
                    }
                    failed
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("benchmark client thread panicked"))
            .sum()
    });
    Pass {
        busy: start.elapsed(),
        ops: (threads * n) as u64,
        failed,
    }
}

struct Untraced {
    /// Per-round latency summaries, warm-up iteration dropped.
    rounds: Vec<RoundSummary>,
    /// Per-pass throughput, warm-up iteration dropped.
    pass_qps: Vec<f64>,
    iterations_run: usize,
    attempted: u64,
    failed: u64,
    /// Σ result singletons over the last latency round.
    singletons: u64,
    wall_s: f64,
    /// Plan-cache counters over the last latency round.
    cache: CacheCounters,
}

/// The untraced measurement: latency rounds (closed loop, one client, one
/// op at a time on this thread) **alternating** with throughput passes (the
/// same list at `threads`-way parallelism) until the budget is spent.  The
/// two are interleaved rather than run as two blocks so that a slow stretch
/// of the host — they last seconds on a shared machine — spoils a few
/// iterations of both instead of most of one.
fn untraced_phase<W: Workload>(
    w: &mut W,
    expected: &[Observed],
    threads: usize,
    budget: f64,
    min_iterations: usize,
) -> Untraced {
    let n = w.op_count();
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut pass_qps = Vec::new();
    let (mut attempted, mut failed, mut singletons) = (0u64, 0u64, 0u64);
    let mut cache = CacheCounters::default();
    while rounds.is_empty()
        || keep_going(
            rounds.len(),
            min_iterations,
            start.elapsed().as_secs_f64(),
            budget,
        )
    {
        w.begin_round();
        let before = w.cache_counters();
        let mut samples = Vec::with_capacity(n);
        singletons = 0;
        for (op, expect) in expected.iter().enumerate() {
            let t = Instant::now();
            let outcome = std::hint::black_box(w.run_op(std::hint::black_box(op)));
            samples.push(ms(t.elapsed()));
            attempted += 1;
            match outcome {
                Ok(out) => {
                    let seen = w.observe(&out);
                    singletons += seen.singletons();
                    failed += u64::from(seen != *expect);
                }
                Err(_) => failed += 1,
            }
        }
        cache = w.cache_counters() - before;
        rounds.push(summarise_round(samples));

        w.begin_round();
        let pass = w.run_pass(threads, expected);
        attempted += pass.ops;
        failed += pass.failed;
        pass_qps.push(pass.ops as f64 / pass.busy.as_secs_f64());
    }
    let iterations_run = rounds.len();
    if iterations_run > 1 {
        // Warm-up: caches fill, the allocator settles.
        rounds.remove(0);
        pass_qps.remove(0);
    }
    Untraced {
        rounds,
        pass_qps,
        iterations_run,
        attempted,
        failed,
        singletons,
        wall_s: start.elapsed().as_secs_f64(),
        cache,
    }
}

/// What one traced round measured.
struct TracedRound {
    /// Total nanoseconds per span name.
    totals: BTreeMap<&'static str, u64>,
    /// Σ of the layer spans directly under the `replay` spans.
    replay_children_ns: u64,
    tally: Tally,
}

struct TracedPhase {
    rounds: Vec<TracedRound>,
    attempted: u64,
    failed: u64,
    wall_s: f64,
    /// The recorder of the last round, for the span file.
    last: Recorder,
}

fn traced_phase<W: Workload>(w: &mut W, expected: &[Observed], budget: f64) -> TracedPhase {
    let start = Instant::now();
    let mut rounds = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut last = Recorder::new();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < budget {
        w.begin_round();
        let mut rec = Recorder::new();
        let mut tally = Tally::default();
        for (op, expect) in expected.iter().enumerate() {
            rec.set_op(op);
            let request = rec.open("request");
            let entry = rec.open("entry");
            let outcome = std::hint::black_box(w.run_op(std::hint::black_box(op)));
            rec.close(entry);
            attempted += 1;
            match outcome {
                Ok(out) => {
                    let as_expected = w.observe(&out) == *expect;
                    let replay = rec.open("replay");
                    let replayed = w.replay_op(op, out, &mut rec, &mut tally);
                    rec.close(replay);
                    if let Err(why) = &replayed {
                        if failed < 5 {
                            eprintln!("replay of op {op} disagrees with its entry point: {why}");
                        }
                    }
                    failed += u64::from(!as_expected || replayed.is_err());
                }
                Err(_) => failed += 1,
            }
            rec.close(request);
        }
        rounds.push(TracedRound {
            totals: rec.totals(),
            replay_children_ns: rec.children_total("replay"),
            tally,
        });
        last = rec;
    }
    TracedPhase {
        rounds,
        attempted,
        failed,
        wall_s: start.elapsed().as_secs_f64(),
        last,
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::num(value)), ("unit", Json::str(unit))])
}

fn numbers(values: impl IntoIterator<Item = f64>) -> Json {
    Json::Arr(values.into_iter().map(Json::num).collect())
}

/// Runs one workload: `build` is the whole set-up (data generation,
/// representation building, server construction, cache warm-up).
pub fn run<W: Workload>(name: &str, cfg: RunConfig, build: impl Fn() -> W) -> RunReport {
    let threads = host::bench_threads();
    assert!(
        threads <= host::nproc(),
        "refusing to start more client or worker threads than cores"
    );

    // Set-up, several times; the last instance is the one measured.
    let mut setup_times = Vec::new();
    let mut built = None;
    let setup_start = Instant::now();
    while setup_times.is_empty()
        || (!cfg.smoke
            && setup_times.len() < *SETUPS.end()
            && (setup_times.len() < *SETUPS.start()
                || setup_start.elapsed().as_secs_f64() < SETUP_SECONDS))
    {
        drop(built.take());
        let t = Instant::now();
        built = Some(build());
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let mut w = built.expect("at least one set-up");
    let setup_s = median(&setup_times);
    let n = w.op_count();

    // Record pass: what every op returns, for the timed ops to be compared
    // with.  The oracle judges these records in the check phase, which runs
    // last so that `peak_rss_mb` is the engine's memory, not the oracle's.
    let mut entry_failures = 0u64;
    w.begin_round();
    let expected: Vec<Observed> = (0..n)
        .map(|op| match w.run_op(op) {
            Ok(out) => w.observe(&out),
            Err(e) => {
                if entry_failures < 5 {
                    eprintln!("{name}: op {op} failed: {e}");
                }
                entry_failures += 1;
                Observed::Cycle(Vec::new())
            }
        })
        .collect();

    // Timed phases.  Tracing takes half of the time for the traced rounds.
    let min_iterations = match (cfg.smoke, cfg.trace) {
        (true, _) => 1,
        (false, true) => MIN_ITERATIONS_TRACED,
        (false, false) => MIN_ITERATIONS,
    };
    let share = if cfg.trace { 0.5 } else { 1.0 };
    let budget = if cfg.smoke { 0.0 } else { cfg.seconds * share };
    let untraced = untraced_phase(&mut w, &expected, threads, budget, min_iterations);
    let traced = cfg.trace.then(|| traced_phase(&mut w, &expected, budget));
    let peak_rss_mb = host::peak_rss_mb();

    // Check phase: every op again, against the flat oracle and its record.
    let check_start = Instant::now();
    let mut correct = entry_failures == 0;
    let mut complaints = 0;
    w.begin_round();
    for (op, expect) in expected.iter().enumerate() {
        let verdict = match w.run_op(op) {
            Ok(out) if w.observe(&out) != *expect => {
                Err("the op returned something else than it did before the timed phases".into())
            }
            Ok(out) => w.check_op(op, &out),
            Err(e) => Err(format!("entry point failed: {e}")),
        };
        if let Err(why) = verdict {
            correct = false;
            if complaints < 5 {
                eprintln!("{name}: check of op {op} failed: {why}");
            }
            complaints += 1;
        }
    }
    let check_s = check_start.elapsed().as_secs_f64();

    let latency = reduce_latency(&untraced.rounds);
    let qps = reduce_qps(&untraced.pass_qps);
    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;

    let mut metrics: Vec<(String, Json)> = Vec::new();
    let mut phases = vec![
        ("setup_s", numbers(setup_times.iter().copied())),
        ("check_s", Json::num(check_s)),
        ("untraced_wall_s", Json::num(untraced.wall_s)),
        ("iterations_run", Json::num(untraced.iterations_run as f64)),
        ("iterations_kept", Json::num(untraced.rounds.len() as f64)),
        ("samples_per_round", Json::num(n as f64)),
        (
            "samples_beyond_p95",
            Json::num(samples_beyond(n, 0.95) as f64),
        ),
        ("mean_ms", Json::num(latency.mean)),
        (
            "round_p50_ms",
            numbers(untraced.rounds.iter().map(|r| r.p50)),
        ),
        (
            "round_p95_ms",
            numbers(untraced.rounds.iter().map(|r| r.p95)),
        ),
        ("pass_qps", numbers(untraced.pass_qps.iter().copied())),
    ];

    if let Some(traced) = &traced {
        attempted += traced.attempted;
        failed += traced.failed;
        let layers = layer_metrics(&w, n, threads, latency.mean, qps, &untraced.cache, traced);
        let residual = layers.residual_share;
        // The layer spans must account for the entry-point time.
        if residual.abs() > 0.10 && !cfg.smoke {
            eprintln!(
                "{name}: layer spans miss the entry-point time by {:.1} % (stated tolerance 10 %)",
                residual * 100.0
            );
        }
        phases.push(("traced_wall_s", Json::num(traced.wall_s)));
        phases.push(("traced_rounds", Json::num(traced.rounds.len() as f64)));
        phases.push(("attribution_residual_share", Json::num(residual)));
        phases.push(("parallel_efficiency_measured", Json::Bool(threads > 1)));
        for def in &PER_LAYER {
            let value = layers.values.get(def.name).copied().unwrap_or(0.0);
            metrics.push((def.name.to_string(), metric(value, def.unit)));
        }
        if cfg.write_files {
            write_file(
                &format!("trace-{name}.json"),
                &Json::obj([
                    ("workload", Json::str(name)),
                    ("seed", Json::num(cfg.seed as f64)),
                    ("round", Json::str("last traced round")),
                    ("trace", traced.last.to_json()),
                ])
                .to_line(),
            );
        }
    } else {
        let values = [
            qps,
            latency.p50,
            latency.p95,
            untraced.singletons as f64,
            peak_rss_mb,
            setup_s,
        ];
        for (def, value) in END_TO_END.iter().zip(values) {
            metrics.push((def.name.to_string(), metric(value, def.unit)));
        }
    }

    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    let why = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .map_or("", |w| w.why);
    let record = Json::obj([
        ("workload", Json::str(name)),
        ("why", Json::str(why)),
        ("seed", Json::num(cfg.seed as f64)),
        ("seconds", Json::num(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("smoke", Json::Bool(cfg.smoke)),
        ("ops", Json::num(n as f64)),
        ("host", host::describe()),
        ("phases", Json::obj(phases)),
        ("result", line.clone()),
    ]);
    if cfg.write_files {
        let suffix = if cfg.trace { "-trace" } else { "" };
        write_file(&format!("result-{name}{suffix}.json"), &record.to_pretty());
    }
    RunReport { line, record }
}

fn write_file(name: &str, text: &str) {
    let dir = host::out_dir();
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(name), text));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", dir.join(name).display());
    }
}

struct LayerMetrics {
    values: BTreeMap<&'static str, f64>,
    /// (entry time − Σ layer spans) / entry time.
    residual_share: f64,
}

/// Derives the per-layer metrics from the **least disturbed traced round**
/// (the one whose entry-point calls took the least time in total): taken
/// from one round, the layer rows add up, and like the end-to-end timings
/// they come from the round the host slowed least.
fn layer_metrics<W: Workload>(
    w: &W,
    n: usize,
    threads: usize,
    untraced_mean_ms: f64,
    qps: f64,
    cache: &CacheCounters,
    traced: &TracedPhase,
) -> LayerMetrics {
    let total = |r: &TracedRound, span: &str| r.totals.get(span).copied().unwrap_or(0) as f64;
    let round = traced
        .rounds
        .iter()
        .min_by(|a, b| total(a, "entry").total_cmp(&total(b, "entry")))
        .expect("a traced phase runs at least one round");
    let tally = &round.tally;
    let per_op_ms = |span: &str| total(round, span) / n as f64 / 1e6;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let rate = |count: u64, span: &str| ratio(count as f64, total(round, span) / 1e9);

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (metric, span) in [
        ("plan.ftree_search_ms", "plan.ftree_search"),
        ("frep.build_ms", "frep.build"),
        ("plan.exhaustive_ms", "plan.exhaustive"),
        ("plan.greedy_ms", "plan.greedy"),
        ("plan.simplify_ms", "plan.simplify"),
        ("plan.chain_ms", "plan.chain"),
        ("ftree.s_cost_ms", "ftree.s_cost"),
        ("frep.clone_ms", "frep.clone"),
        ("frep.fuse_ms", "frep.fuse"),
        ("frep.aggregate_ms", "frep.aggregate"),
        ("frep.enumerate_ms", "frep.enumerate"),
        ("frep.stats_ms", "frep.stats"),
        ("frep.snapshot_decode_ms", "frep.snapshot_decode"),
        ("frep.validate_ms", "frep.validate"),
    ] {
        v.insert(metric, per_op_ms(span));
    }
    v.insert("core.swap_us", per_op_ms("core.swap") * 1e3);
    v.insert("plan.ftree_search_states", tally.ftree_states as f64);
    v.insert("plan.exhaustive_states", tally.exhaustive_states as f64);
    v.insert(
        "frep.build_singletons_per_s",
        rate(tally.built_singletons, "frep.build"),
    );
    v.insert(
        "frep.fuse_singletons_per_s",
        rate(tally.fuse_singletons, "frep.fuse"),
    );
    v.insert(
        "frep.enumerate_tuples_per_s",
        rate(tally.enumerated_tuples, "frep.enumerate"),
    );
    v.insert(
        "frep.snapshot_decode_mb_per_s",
        rate(tally.decoded_bytes, "frep.snapshot_decode") / 1e6,
    );
    v.insert(
        "plan.greedy_cost_ratio",
        ratio(tally.greedy_cost, tally.exhaustive_cost),
    );
    v.insert(
        "plan.chain_accept_share",
        ratio(
            tally.chain_heads as f64,
            (tally.chain_heads + tally.flat_fallbacks) as f64,
        ),
    );
    v.insert(
        "core.opt_share",
        ratio(tally.opt_ns as f64, (tally.opt_ns + tally.exec_ns) as f64),
    );
    for (name, value) in w.setup_layers() {
        v.insert(name, value);
    }

    // Plan-cache counters come from the last untraced latency round: the
    // traced rounds' replays touch the live server's cache.
    v.insert(
        "core.plan_cache_hit_ratio",
        ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
    );
    v.insert("core.plan_cache_evictions", cache.evictions as f64);
    v.insert("core.plan_cache_invalidations", cache.invalidations as f64);

    // What the entry point spends outside every layer span: admission, key
    // building, `catch_unwind`, stats assembly.
    let traced_mean_ms = per_op_ms("entry");
    let self_ms = traced_mean_ms - round.replay_children_ns as f64 / n as f64 / 1e6;
    v.insert("core.serve_self_ms", self_ms);
    v.insert(
        "trace.overhead_share",
        ratio(traced_mean_ms - untraced_mean_ms, untraced_mean_ms),
    );
    // Pool dispatch, channels and contention: measured throughput against
    // `threads` perfectly parallel single clients.  Unmeasured on one core
    // (reported 0 and flagged in the record) rather than printed as ≈1×.
    v.insert(
        "core.parallel_efficiency",
        if threads > 1 {
            ratio(qps, threads as f64 * 1000.0 / untraced_mean_ms)
        } else {
            0.0
        },
    );
    LayerMetrics {
        values: v,
        residual_share: ratio(self_ms, traced_mean_ms),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_run_their_minimum_then_stop_on_time() {
        // Below the minimum count a phase continues past its budget…
        assert!(keep_going(3, 6, 1.5, 1.0));
        // …but not past the overrun cap.
        assert!(!keep_going(3, 6, 2.5, 1.0));
        // At or above the minimum it stops as soon as the budget is spent.
        assert!(keep_going(6, 6, 0.9, 1.0));
        assert!(!keep_going(6, 6, 1.0, 1.0));
    }

    #[test]
    fn composite_ops_sum_their_singletons() {
        let cycle = Observed::Cycle(vec![
            Observed::Rep { size: 7, tuples: 9 },
            Observed::Aggregate(AggregateResult::Scalar(fdb_frep::AggregateValue::Count(3))),
            Observed::Rows {
                rows: 2,
                size: 5,
                tuples: 2,
            },
        ]);
        assert_eq!(cycle.singletons(), 12);
    }
}
