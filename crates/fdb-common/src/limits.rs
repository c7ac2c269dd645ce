//! Cooperative resource governance for query evaluation.
//!
//! A server that accepts arbitrary queries over factorised data must bound
//! what one request can cost: the paper's representations are exactly the
//! cases where a result blows up polynomially — a bad plan can emit an
//! arena orders of magnitude larger than its input.  This module provides
//! the two halves of that bound:
//!
//! * [`QueryLimits`] — the caller-facing description of a request's
//!   allowance: an optional wall-clock **deadline**, an optional **work
//!   budget** (units ≈ arena records processed or emitted, a direct proxy
//!   for both time and allocated memory), and an optional shared
//!   **cancellation flag**;
//! * [`ExecCtx`] — the execution-side context threaded through the hot
//!   loops.  Every governed loop calls [`ExecCtx::charge`] with the number
//!   of records it just processed.  The fast path is allocation-free and
//!   nearly branch-free: budget accounting is a subtract on a [`Cell`], and
//!   the expensive checks (reading the clock, loading the cancellation
//!   atomic) run only once per [`CHECK_INTERVAL`] units.  An ungoverned
//!   context ([`ExecCtx::unlimited`]) short-circuits to a single branch, so
//!   the existing single-user APIs pay nothing.
//!
//! Checks are **cooperative**: a loop that never charges can not be
//! interrupted.  The contract for governed code is that every loop whose
//! trip count depends on data size charges at least once per record batch,
//! and that an `Err` propagates without installing partial results — the
//! arena builders roll back to their watermarks, the overlay executors
//! build into fresh stores that are only swapped in on success.
//!
//! # Fault injection (`fault-injection` feature)
//!
//! With the `fault-injection` cargo feature enabled, a `FaultPlan` can be
//! attached to [`QueryLimits`]: a deterministic list of `(site, action)`
//! pairs consumed by the `failpoint!` sites inside the governed loops.  An
//! action fires on the first hit of its site and injects a panic, a delay,
//! or budget pressure.  Because the plan travels *inside the request*, the
//! injection is deterministic per request no matter how the pool schedules
//! the batch — which is what lets the chaos suite assert per-request error
//! attribution at any thread count.

use crate::error::{FdbError, Result};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many work units pass between two slow checks (clock read +
/// cancellation load).  Chosen so the amortised governance cost stays well
/// under the 3% overhead bound (`BENCH_PR7.json`: 0.98 geometric mean)
/// while a tripped deadline is still noticed within microseconds of work.
pub const CHECK_INTERVAL: u64 = 1024;

/// The resource allowance of one query evaluation.
///
/// `Default` is fully ungoverned (no deadline, no budget, no flag) — the
/// single-user library APIs evaluate under exactly this.
#[derive(Clone, Debug, Default)]
pub struct QueryLimits {
    /// Wall-clock allowance, measured from the moment evaluation starts
    /// (context creation).  Exceeding it aborts with
    /// [`FdbError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Work budget in units of arena records processed or emitted — a proxy
    /// for both CPU time and allocated result memory.  Exhausting it aborts
    /// with [`FdbError::BudgetExceeded`].
    pub budget: Option<u64>,
    /// Shared cancellation flag: when set to `true` (by any thread), the
    /// evaluation aborts at its next check with
    /// [`FdbError::DeadlineExceeded`] (`limit_ms: 0`).
    pub cancel: Option<Arc<AtomicBool>>,
    /// Deterministic fault plan consumed by the `failpoint!` sites (tests
    /// only; see the module docs).
    #[cfg(feature = "fault-injection")]
    pub faults: FaultPlan,
}

impl QueryLimits {
    /// No deadline, no budget, no cancellation — the default.
    pub fn unlimited() -> Self {
        QueryLimits::default()
    }

    /// Limits with the given wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Limits with the given work budget (units ≈ arena records).
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Limits with the given shared cancellation flag.
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Limits with the given fault plan attached.
    #[cfg(feature = "fault-injection")]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Whether these limits can ever interrupt an evaluation.
    pub(crate) fn is_unlimited(&self) -> bool {
        let plain = self.deadline.is_none() && self.budget.is_none() && self.cancel.is_none();
        #[cfg(feature = "fault-injection")]
        {
            plain && self.faults.is_empty()
        }
        #[cfg(not(feature = "fault-injection"))]
        {
            plain
        }
    }
}

/// The execution-side governance context.  One per evaluation, created from
/// a [`QueryLimits`] at the evaluation boundary and threaded by reference
/// through the hot loops; interior mutability ([`Cell`]) keeps `charge`
/// callable through a shared reference.  Deliberately **not** `Sync`: a
/// context belongs to the one worker running the evaluation.
#[derive(Debug)]
pub struct ExecCtx {
    /// `true` when nothing can trip: `charge` returns after one branch.
    unlimited: bool,
    /// Absolute deadline, precomputed so checks are a single comparison.
    deadline: Option<Instant>,
    /// Original deadline duration, for the error report.
    limit_ms: u64,
    /// Remaining budget units; `u64::MAX` when no budget is set.
    budget: Cell<u64>,
    /// Original budget, for the error report.
    budget_limit: u64,
    /// Countdown to the next slow check.
    tick: Cell<u64>,
    cancel: Option<Arc<AtomicBool>>,
    /// Remaining (unfired) fault actions, consumed front to back per site.
    #[cfg(feature = "fault-injection")]
    faults: std::cell::RefCell<Vec<(String, FaultAction)>>,
}

impl ExecCtx {
    /// A context under which nothing ever trips — what every ungoverned
    /// public API evaluates with.
    pub fn unlimited() -> Self {
        ExecCtx::new(&QueryLimits::unlimited())
    }

    /// Starts a governed evaluation: the deadline clock begins now.
    pub fn new(limits: &QueryLimits) -> Self {
        ExecCtx {
            unlimited: limits.is_unlimited(),
            deadline: limits.deadline.map(|d| Instant::now() + d),
            limit_ms: limits.deadline.map_or(0, |d| d.as_millis() as u64),
            budget: Cell::new(limits.budget.unwrap_or(u64::MAX)),
            budget_limit: limits.budget.unwrap_or(u64::MAX),
            tick: Cell::new(CHECK_INTERVAL),
            cancel: limits.cancel.clone(),
            #[cfg(feature = "fault-injection")]
            faults: std::cell::RefCell::new(limits.faults.actions.clone()),
        }
    }

    /// Records `units` of work (≈ arena records processed or emitted) and
    /// aborts if a limit tripped.  Budget accounting is exact per call; the
    /// deadline and cancellation checks are amortised to once per
    /// [`CHECK_INTERVAL`] units.
    #[inline]
    pub fn charge(&self, units: u64) -> Result<()> {
        if self.unlimited {
            return Ok(());
        }
        let budget = self.budget.get();
        if budget < units {
            return Err(FdbError::BudgetExceeded {
                limit: self.budget_limit,
            });
        }
        self.budget.set(budget - units);
        let tick = self.tick.get();
        if tick > units {
            self.tick.set(tick - units);
            return Ok(());
        }
        self.tick.set(CHECK_INTERVAL);
        self.check_now()
    }

    /// The slow check: clock and cancellation flag, unamortised.  Governed
    /// code calls this directly at coarse boundaries (between plan
    /// operators); `charge` calls it once per interval.
    pub fn check_now(&self) -> Result<()> {
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                return Err(FdbError::DeadlineExceeded {
                    limit_ms: self.limit_ms,
                });
            }
        }
        if let Some(cancel) = &self.cancel {
            if cancel.load(Ordering::Relaxed) {
                return Err(FdbError::DeadlineExceeded { limit_ms: 0 });
            }
        }
        Ok(())
    }

    /// Remaining budget units (`u64::MAX` when no budget is set).
    pub fn budget_remaining(&self) -> u64 {
        self.budget.get()
    }

    /// Fires any pending fault action registered for `site` (first hit
    /// consumes the action).  Called through the `failpoint!` macro so the
    /// sites vanish entirely without the feature.
    #[cfg(feature = "fault-injection")]
    pub fn hit_failpoint(&self, site: &str) -> Result<()> {
        let action = {
            let mut faults = self.faults.borrow_mut();
            match faults.iter().position(|(s, _)| s == site) {
                Some(i) => faults.remove(i).1,
                None => return Ok(()),
            }
        };
        match action {
            FaultAction::Panic(msg) => panic!("injected fault at {site}: {msg}"),
            FaultAction::Delay(d) => {
                std::thread::sleep(d);
                self.check_now()
            }
            FaultAction::BudgetPressure(units) => self.charge(units),
        }
    }
}

/// A deterministic list of faults to inject, attached to a request through
/// [`QueryLimits::with_faults`].  Each entry names a `failpoint!` site and
/// the action to take on that site's **first** hit; the entry is consumed
/// when it fires.
#[cfg(feature = "fault-injection")]
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    actions: Vec<(String, FaultAction)>,
}

#[cfg(feature = "fault-injection")]
impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Registers an action for the first hit of `site`.
    pub fn on(mut self, site: impl Into<String>, action: FaultAction) -> Self {
        self.actions.push((site.into(), action));
        self
    }
}

/// What an armed failpoint does when hit.
#[cfg(feature = "fault-injection")]
#[derive(Clone, Debug)]
pub enum FaultAction {
    /// Panic with the given message (exercises the worker's panic
    /// isolation: the request must report `WorkerPanicked`, the worker must
    /// survive).
    Panic(String),
    /// Sleep for the given duration (exercises the deadline: a request with
    /// a short deadline must report `DeadlineExceeded` at the next check).
    Delay(Duration),
    /// Charge the given number of budget units (exercises the budget: a
    /// request with a small budget must report `BudgetExceeded`).
    BudgetPressure(u64),
}

/// Fires a named failpoint against an [`ExecCtx`] — expands to nothing
/// unless the `fault-injection` feature is enabled, so production builds
/// carry zero code at the sites.  Usable only inside functions returning
/// [`Result`].
#[macro_export]
macro_rules! failpoint {
    ($ctx:expr, $site:expr) => {
        #[cfg(feature = "fault-injection")]
        {
            $ctx.hit_failpoint($site)?;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_context_never_trips() {
        let ctx = ExecCtx::unlimited();
        for _ in 0..10 {
            ctx.charge(u64::MAX / 32).unwrap();
        }
        ctx.check_now().unwrap();
    }

    #[test]
    fn budget_is_exact_and_reports_the_limit() {
        let ctx = ExecCtx::new(&QueryLimits::unlimited().with_budget(100));
        ctx.charge(60).unwrap();
        ctx.charge(40).unwrap();
        assert_eq!(ctx.charge(1), Err(FdbError::BudgetExceeded { limit: 100 }));
    }

    #[test]
    fn deadline_trips_at_the_next_amortised_check() {
        let ctx = ExecCtx::new(&QueryLimits::unlimited().with_deadline(Duration::ZERO));
        // Under a whole check interval nothing is checked yet…
        let mut tripped = false;
        for _ in 0..3 {
            if ctx.charge(CHECK_INTERVAL).is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "an expired deadline trips within one interval");
    }

    #[test]
    fn cancellation_flag_aborts_with_limit_zero() {
        let flag = Arc::new(AtomicBool::new(false));
        let ctx = ExecCtx::new(&QueryLimits::unlimited().with_cancel(Arc::clone(&flag)));
        ctx.check_now().unwrap();
        flag.store(true, Ordering::Relaxed);
        assert_eq!(
            ctx.check_now(),
            Err(FdbError::DeadlineExceeded { limit_ms: 0 })
        );
    }

    #[test]
    fn charge_overhead_is_amortised() {
        // Not a benchmark (BENCH_PR7.json holds the measured overhead); this only
        // pins that tiny charges do not run the slow check every time, by
        // observing that a distant deadline context accepts a long run of
        // sub-interval charges quickly and correctly.
        let ctx = ExecCtx::new(&QueryLimits::unlimited().with_deadline(Duration::from_secs(3600)));
        for _ in 0..100_000 {
            ctx.charge(1).unwrap();
        }
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn failpoints_fire_once_and_only_at_their_site() {
        let limits = QueryLimits::unlimited()
            .with_budget(10)
            .with_faults(FaultPlan::new().on("here", FaultAction::BudgetPressure(100)));
        let ctx = ExecCtx::new(&limits);
        ctx.hit_failpoint("elsewhere").unwrap();
        assert_eq!(
            ctx.hit_failpoint("here"),
            Err(FdbError::BudgetExceeded { limit: 10 })
        );
        // Consumed: the second hit is a no-op.
        ctx.hit_failpoint("here").unwrap();
    }
}
