//! The names the benchmark reports under: workloads, end-to-end metrics
//! with their regression bounds, and per-layer metrics.  `BENCHMARK.json`
//! mirrors these tables (a self-test pins the two against each other), and
//! `--compare` takes its bounds from here.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, sizes).
    Lower,
    /// Larger values are better (rates, ratios of useful work).
    Higher,
}

#[cfg(test)]
impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: a name and the one-line reason it exists.
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists (which layers it stresses or bypasses).
    pub why: &'static str,
}

/// The five workloads, in the order `--all` and `--smoke` run them.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "flat_join",
        why: "paper Exp. 3 joins on flat input: f-tree search and f-rep build do all the work; plan cache, overlay executor and server do none",
    },
    WorkloadDef {
        name: "serve_hot",
        why: "Zipf mix of ten request shapes with a warm plan cache: fused overlay execution dominates, the optimiser is bypassed",
    },
    WorkloadDef {
        name: "serve_cold",
        why: "paper Exp. 2/4 follow-up equalities with a fresh plan cache per round: every request misses, the exhaustive optimiser dominates",
    },
    WorkloadDef {
        name: "analytics_heads",
        why: "ORDER BY, GROUP BY and DISTINCT heads on nested shapes: output-bound, so enumeration, aggregation and chain planning dominate",
    },
    WorkloadDef {
        name: "swap_reload",
        why: "snapshot load, hot swap and serving on one live server: the write path beside the read path, decode and invalidation show here only",
    },
];

/// One end-to-end metric with its regression bound (share of the parent's
/// median by which it may worsen).
pub struct EndToEndDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound.
    pub bound: f64,
}

/// The end-to-end metrics every workload reports with tracing off.
///
/// The issue's seventh metric, `failed_share`, is 0 on every healthy run
/// and so cannot be listed as a bounded metric; it travels as the
/// `failed`/`attempted` pair of every result line, and `--compare` treats
/// any increase of `failed / attempted` as a regression.
pub const END_TO_END: [EndToEndDef; 6] = [
    EndToEndDef {
        name: "qps",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEndDef {
        name: "p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "result_singletons",
        unit: "count",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// One per-layer metric (no bound: layers explain, end-to-end metrics gate).
pub struct LayerDef {
    /// Metric name: `<crate>.<what>` with the crate's `fdb-` prefix dropped.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerDef {
    LayerDef { name, unit, better }
}

/// The per-layer metrics every workload reports from the traced run.  A
/// `*_ms` metric is the layer's mean time per op of the workload (its spans
/// summed over a traced round, divided by the round's op count), so the
/// layer rows of one workload add up to its mean request time; a layer a
/// workload never enters reports 0.
pub const PER_LAYER: [LayerDef; 32] = [
    layer("plan.ftree_search_ms", "ms", Better::Lower),
    layer("plan.ftree_search_states", "count", Better::Lower),
    layer("frep.build_ms", "ms", Better::Lower),
    layer("frep.build_singletons_per_s", "1/s", Better::Higher),
    layer("plan.exhaustive_ms", "ms", Better::Lower),
    layer("plan.exhaustive_states", "count", Better::Lower),
    layer("plan.greedy_ms", "ms", Better::Lower),
    layer("plan.greedy_cost_ratio", "ratio", Better::Lower),
    layer("plan.simplify_ms", "ms", Better::Lower),
    layer("plan.chain_ms", "ms", Better::Lower),
    layer("plan.chain_accept_share", "ratio", Better::Higher),
    layer("ftree.s_cost_ms", "ms", Better::Lower),
    layer("frep.clone_ms", "ms", Better::Lower),
    layer("frep.fuse_ms", "ms", Better::Lower),
    layer("frep.fuse_singletons_per_s", "1/s", Better::Higher),
    layer("frep.aggregate_ms", "ms", Better::Lower),
    layer("frep.enumerate_ms", "ms", Better::Lower),
    layer("frep.enumerate_tuples_per_s", "1/s", Better::Higher),
    layer("frep.stats_ms", "ms", Better::Lower),
    layer("frep.snapshot_decode_ms", "ms", Better::Lower),
    layer("frep.snapshot_decode_mb_per_s", "MB/s", Better::Higher),
    layer("frep.validate_ms", "ms", Better::Lower),
    layer("frep.snapshot_encode_ms", "ms", Better::Lower),
    layer("core.snapshot_save_ms", "ms", Better::Lower),
    layer("core.swap_us", "us", Better::Lower),
    layer("core.plan_cache_invalidations", "count", Better::Lower),
    layer("core.plan_cache_hit_ratio", "ratio", Better::Higher),
    layer("core.plan_cache_evictions", "count", Better::Lower),
    layer("core.opt_share", "ratio", Better::Lower),
    layer("core.serve_self_ms", "ms", Better::Lower),
    layer("core.parallel_efficiency", "ratio", Better::Higher),
    layer("trace.overhead_share", "ratio", Better::Lower),
];

#[cfg(test)]
/// Whether a name obeys the benchmark contract's alphabet: starts with a
/// letter or digit, then letters, digits, `_`, `.` and `-`, at most 64.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
