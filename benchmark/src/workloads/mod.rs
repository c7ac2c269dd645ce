//! The five workloads.  Each module says why its workload exists, builds
//! its inputs from the seed, and implements [`crate::harness::Workload`].

pub mod analytics_heads;
pub mod flat_join;
pub mod mix;
pub mod serve;
pub mod serve_cold;
pub mod serve_hot;
pub mod shapes;
pub mod swap_reload;

use crate::harness::{run, RunConfig, RunReport};

/// Runs the named workload, or `None` for an unknown name.
pub fn run_named(name: &str, cfg: RunConfig) -> Option<RunReport> {
    let (seed, smoke) = (cfg.seed, cfg.smoke);
    Some(match name {
        "flat_join" => run(name, cfg, || flat_join::FlatJoin::build(seed, smoke)),
        "serve_hot" => run(name, cfg, || serve_hot::build(seed, smoke)),
        "serve_cold" => run(name, cfg, || serve_cold::build(seed, smoke)),
        "analytics_heads" => run(name, cfg, || analytics_heads::build(seed, smoke)),
        "swap_reload" => run(name, cfg, || swap_reload::SwapReload::build(seed, smoke)),
        _ => return None,
    })
}
