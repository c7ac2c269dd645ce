//! `swap_reload` — the write path beside the read path.  One op is one
//! refresh cycle on a live server: `fdb_core::load_rep(path)` (read,
//! checksum, full re-validation) → `FdbServer::replace(id, rep)` (epoch
//! bump, targeted plan invalidation) → 8 `serve_one` requests, of which the
//! replaced tree's shapes miss the plan cache once and then hit.
//!
//! *Why it exists:* a cheaper swap that taxes readers, or a faster decode
//! that skips validation work, shows here and nowhere else.  In the
//! throughput phase `threads` clients run cycles concurrently against the
//! one server, so the slot `RwLock`s and the cache mutex see writers beside
//! readers.
//!
//! 200 cycles alternate between the two `serve_hot` representations; the
//! requests are the `serve_hot` mix.  `save_database` runs once in set-up
//! (it `fsync`s — too noisy to gate per op) and is priced as a layer metric.

use crate::harness::{client_pass, CacheCounters, Observed, Pass, Tally, Workload};
use crate::host;
use crate::trace::Recorder;
use crate::workloads::serve::{
    cache_counters, observe, replay_request, warm_up, OracleInputs, PlanMemo, Verified,
};
use crate::workloads::serve_hot::{serving_database, zipf_requests, Dims, FULL, SMOKE};
use fdb_common::{ExecCtx, FdbError};
use fdb_core::{
    load_rep, save_database, FdbEngine, FdbServer, RepId, ServeOutcome, ServeRequest,
    SharedDatabase,
};
use fdb_frep::{decode_frep_ctx, encode_frep_ctx, FRep};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Requests served after every swap.
const REQUESTS_PER_CYCLE: usize = 8;

/// One slot the cycles refresh: its id, snapshot file and original content.
struct Slot {
    id: RepId,
    path: PathBuf,
    original: Arc<FRep>,
}

/// What one refresh cycle returned.
pub struct CycleOutcome {
    /// The representation the swap replaced (the previous cycle's load).
    replaced: Arc<FRep>,
    /// The outcomes of the requests served after the swap.
    served: Vec<ServeOutcome>,
}

/// The workload: a live server, two snapshot files, the cycle list.
pub struct SwapReload {
    db: Arc<SharedDatabase>,
    server: FdbServer,
    slots: Vec<Slot>,
    /// All requests, [`REQUESTS_PER_CYCLE`] per cycle.
    requests: Vec<ServeRequest>,
    oracle: OracleInputs,
    verified: Verified,
    memo: PlanMemo,
    /// Snapshot directory, removed when the workload is dropped.
    dir: PathBuf,
    setup_layers: Vec<(&'static str, f64)>,
}

/// Distinguishes the snapshot directories of one process's set-ups.
static SNAPSHOT_DIRS: AtomicU64 = AtomicU64::new(0);

impl SwapReload {
    /// Builds the workload: representations, snapshot files, server, the
    /// request mix, warm cache.
    pub fn build(seed: u64, smoke: bool) -> SwapReload {
        let (d, cycles): (Dims, usize) = if smoke { (SMOKE, 6) } else { (FULL, 200) };
        let (db, forest, nested, oracle) = serving_database(d);
        let db = Arc::new(db);

        let dir = host::out_dir().join(format!(
            "snapshot-{}-{}",
            std::process::id(),
            SNAPSHOT_DIRS.fetch_add(1, Ordering::Relaxed)
        ));
        let ctx = ExecCtx::unlimited();
        let t = Instant::now();
        for id in [forest, nested] {
            let rep = db.get(id).expect("registered above");
            std::hint::black_box(encode_frep_ctx(&rep, &ctx).expect("unlimited encode"));
        }
        let encode_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        save_database(&db, &dir).expect("snapshot directory is writable");
        let save_ms = t.elapsed().as_secs_f64() * 1e3;

        // `save_database` names a slot's file after its registration index.
        let slots = [forest, nested]
            .into_iter()
            .enumerate()
            .map(|(index, id)| Slot {
                id,
                path: dir.join(format!("rep-{index}.fdbs")),
                original: db.get(id).expect("registered above"),
            })
            .collect();

        let mut rng = StdRng::seed_from_u64(seed);
        let requests = zipf_requests(&mut rng, d, cycles * REQUESTS_PER_CYCLE, forest, nested);
        let server = FdbServer::new(FdbEngine::new(), Arc::clone(&db), host::bench_threads());
        let workload = SwapReload {
            db,
            server,
            slots,
            verified: Verified::default(),
            requests,
            oracle,
            memo: PlanMemo::default(),
            dir,
            setup_layers: vec![
                ("frep.snapshot_encode_ms", encode_ms),
                ("core.snapshot_save_ms", save_ms),
            ],
        };
        warm_up(&workload.server, &workload.requests);
        workload
    }

    fn cycle(&self, op: usize) -> (&Slot, &[ServeRequest]) {
        let from = op * REQUESTS_PER_CYCLE;
        (
            &self.slots[op % self.slots.len()],
            &self.requests[from..from + REQUESTS_PER_CYCLE],
        )
    }
}

impl Drop for SwapReload {
    fn drop(&mut self) {
        // Best effort: the directory lives under the git-ignored out/.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for SwapReload {
    type Outcome = CycleOutcome;

    fn op_count(&self) -> usize {
        self.requests.len() / REQUESTS_PER_CYCLE
    }

    fn run_op(&self, op: usize) -> Result<CycleOutcome, FdbError> {
        let (slot, requests) = self.cycle(op);
        let rep = load_rep(&slot.path)?;
        let replaced = self.server.replace(slot.id, rep)?;
        let served = requests
            .iter()
            .map(|request| self.server.serve_one(request))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CycleOutcome { replaced, served })
    }

    fn observe(&self, outcome: &CycleOutcome) -> Observed {
        Observed::Cycle(outcome.served.iter().map(observe).collect())
    }

    fn check_op(&self, op: usize, outcome: &CycleOutcome) -> Result<(), String> {
        let (slot, requests) = self.cycle(op);
        if !outcome.replaced.store_identical(&slot.original) {
            return Err("the representation a reload published differs from the saved one".into());
        }
        for (request, served) in requests.iter().zip(&outcome.served) {
            self.verified
                .check(self.oracle.of(request.rep)?, request, served)?;
        }
        Ok(())
    }

    /// `threads` client threads run cycles against the one server: loads,
    /// swaps and serves interleave.
    fn run_pass(&self, threads: usize, expected: &[Observed]) -> Pass {
        client_pass(self, threads, expected)
    }

    /// `fs::read` → `decode_frep_ctx` → `replace` → the serves, each
    /// replayed through the layers.
    fn replay_op(
        &self,
        op: usize,
        outcome: CycleOutcome,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let (slot, requests) = self.cycle(op);
        let ctx = ExecCtx::unlimited();
        let bytes = rec
            .span("core.snapshot_read", || std::fs::read(&slot.path))
            .map_err(|e| e.to_string())?;
        tally.decoded_bytes += bytes.len() as u64;
        let rep = rec
            .span("frep.snapshot_decode", || decode_frep_ctx(&bytes, &ctx))
            .map_err(|e| e.to_string())?;
        // Calibration beside the request path: how much of the decode is
        // the mandatory structural validation.
        rec.detached("frep.validate", || rep.validate())
            .map_err(|e| e.to_string())?;
        if !rep.store_identical(&slot.original) {
            return Err("replayed decode differs from the saved representation".into());
        }
        rec.span("core.swap", || self.server.replace(slot.id, rep))
            .map_err(|e| e.to_string())?;
        for (request, served) in requests.iter().zip(outcome.served) {
            replay_request(&self.db, request, served, &self.memo, rec, tally)?;
        }
        // The replayed swap invalidated the plans the entry point's serves
        // had just re-cached; serving the cycle's requests again restores
        // the cache to the state the entry point left it in.
        for request in requests {
            let _ = self.server.serve_one(request);
        }
        Ok(())
    }

    fn cache_counters(&self) -> CacheCounters {
        cache_counters(&self.server.stats())
    }

    fn setup_layers(&self) -> Vec<(&'static str, f64)> {
        self.setup_layers.clone()
    }
}
