//! Command-line harness regenerating the paper's experiments.
//!
//! ```bash
//! cargo run --release -p fdb-bench --bin experiments -- all --quick
//! cargo run --release -p fdb-bench --bin experiments -- exp1
//! cargo run --release -p fdb-bench --bin experiments -- exp3 --quick
//! ```
//!
//! Every experiment prints a plain-text table whose rows correspond to the
//! series of the paper's figures.  With `--check`, the run also checks the
//! paper's claims that do not depend on host speed (Experiment 1's: `s(T)` ≤
//! 2 in every cell; Experiment 2's, in every repetition: the full search is
//! no worse than greedy and reaches a valid f-tree; Experiments 3's and 4's,
//! in every cell RDB finished: FDB's tuples are RDB's and its singletons at
//! most RDB's data elements, and 0 tuples are 0 singletons), reports their
//! time claims without gating them, and exits with status 1 if a checked
//! claim fails:
//!
//! ```bash
//! cargo run --release -p fdb-bench --bin experiments -- exp1 --quick --check
//! cargo run --release -p fdb-bench --bin experiments -- exp2 --quick --check
//! cargo run --release -p fdb-bench --bin experiments -- exp3 --quick --check
//! cargo run --release -p fdb-bench --bin experiments -- exp4 --quick --check
//! ```

use fdb_bench::{exp1, exp2, exp3, exp4, report, Scale};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let which: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let run_all = which.is_empty() || which.contains(&"all");
    let check = args.iter().any(|a| a == "--check");
    let known = ["all", "exp1", "exp2", "exp3", "exp4"];
    if let Some(unknown) = which.iter().find(|w| !known.contains(w)) {
        eprintln!("unknown experiment {unknown:?}; expected one of {known:?}");
        std::process::exit(2);
    }
    let mut broken = Vec::new();

    println!(
        "FDB experiment harness — scale: {:?} (use --quick for a fast run)\n",
        scale
    );

    if run_all || which.contains(&"exp1") {
        let start = Instant::now();
        // The paper sweeps R = 1..8, K = 1..9; the quick scale trims the
        // largest settings to keep the run short.
        let (max_r, max_k) = match scale {
            Scale::Quick => (6, 6),
            Scale::Full => (8, 9),
        };
        let rows = exp1::run(scale, max_r, max_k);
        println!("{}", report::render_exp1(&rows));
        if check {
            let (lines, failed) = exp1::check(&rows);
            lines.iter().for_each(|line| println!("{line}"));
            broken.extend(failed);
        }
        println!("(exp1 finished in {:?})\n", start.elapsed());
    }

    if run_all || which.contains(&"exp2") {
        let start = Instant::now();
        let (max_k, max_l) = match scale {
            Scale::Quick => (6, 4),
            Scale::Full => (8, 6),
        };
        let rows = exp2::run(scale, max_k, max_l);
        println!("{}", report::render_exp2(&rows));
        if check {
            let (lines, failed) = exp2::check(&rows);
            lines.iter().for_each(|line| println!("{line}"));
            broken.extend(failed);
        }
        println!("(exp2 finished in {:?})\n", start.elapsed());
    }

    if run_all || which.contains(&"exp3") {
        let start = Instant::now();
        let rows = exp3::run(scale);
        println!("{}", report::render_exp3(&rows));
        if check {
            let (lines, failed) = exp3::check(&rows);
            lines.iter().for_each(|line| println!("{line}"));
            broken.extend(failed);
        }
        println!("(exp3 finished in {:?})\n", start.elapsed());
    }

    if run_all || which.contains(&"exp4") {
        let start = Instant::now();
        let rows = exp4::run(scale);
        println!("{}", report::render_exp4(&rows));
        if check {
            let (lines, failed) = exp4::check(&rows);
            lines.iter().for_each(|line| println!("{line}"));
            broken.extend(failed);
        }
        println!("(exp4 finished in {:?})\n", start.elapsed());
    }

    for claim in &broken {
        eprintln!("check failed: {claim}");
    }
    if !broken.is_empty() {
        std::process::exit(1);
    }
}
