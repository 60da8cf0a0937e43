//! Fleet execution: cross-instance fan-out of `fmu_simulate` and
//! `fmu_parest` over a worker pool.
//!
//! The paper's evaluation simulates and calibrates *fleets* of model
//! instances (§8: one heat-pump model per house). This module runs such
//! batches concurrently: one pooled task per instance, each reusing the
//! solver's per-thread [`Scratch`](pgfmu_fmi::solver::Scratch) slot and
//! writing its results through MVCC like any other session.
//!
//! ## Session rule
//!
//! Transaction sessions in the engine are keyed by *thread*. A pooled
//! worker is a long-lived thread that serves many unrelated tasks, so a
//! task that leaked an open transaction (bug, panic, early return)
//! would otherwise hand its successor a dirty session. Every fleet task
//! therefore runs under a [`WorkerSessionGuard`], which resets the
//! worker's transaction session on entry *and* on drop — tasks run
//! auto-commit, and no state crosses task boundaries.
//!
//! Long-lived pooled workers also interact well with the engine's
//! sharded version storage: each worker thread is assigned a *home
//! shard* on its first write and keeps it for life, so concurrent
//! fleet tasks appending results or catalogue state land in distinct
//! append arenas and proceed in parallel instead of serializing on one
//! table lock. Session resets do not disturb shard affinity — it is
//! keyed by thread identity, not transaction state.
//!
//! ## Determinism contract
//!
//! Fan-out never changes results: tasks are independent (each touches
//! only its own instance), outputs are collected in instance order, and
//! all estimation randomness is re-seeded per instance. Any worker
//! count — including 1 — produces byte-identical result tables and
//! parameter vectors; the serial-equivalence suite in
//! `crates/core/tests/fleet.rs` pins this.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use threadpool::ThreadPool;

use pgfmu_sqlmini::{Database, QueryResult};

use crate::error::{PgFmuError, Result};
use crate::parest::{run_parest_in, ParestReport};
use crate::session::Session;
use crate::simulate::{run_simulate, TimeSpec};

/// Resets a pooled worker's thread-keyed transaction session on entry
/// and again on drop, so tasks always start from — and leave behind — a
/// clean auto-commit session, even when the previous task leaked an
/// open transaction or unwound mid-write.
pub struct WorkerSessionGuard<'a> {
    db: &'a Database,
}

impl<'a> WorkerSessionGuard<'a> {
    /// Enter a task: roll back whatever transaction state the worker
    /// thread may have inherited.
    pub fn enter(db: &'a Database) -> Self {
        db.reset_session();
        WorkerSessionGuard { db }
    }
}

impl Drop for WorkerSessionGuard<'_> {
    fn drop(&mut self) {
        self.db.reset_session();
    }
}

/// Default fleet worker count: the machine's available parallelism,
/// capped at 8 (fleet tasks are solver-bound; more workers than cores
/// only adds scheduling noise).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// The most threads one fleet call's pool spawns, whatever width it is
/// asked for: each is an OS thread, so the request comes from SQL and
/// must not be able to exhaust them.
pub const MAX_WORKERS: usize = 64;

/// Resolve a user-supplied worker-count argument into the width of a
/// pool with at most `tasks` tasks to run at once: `None` or `0` means
/// [`default_workers`]; the width is clamped to `tasks` and to
/// [`MAX_WORKERS`], and is at least 1. Results are identical at any
/// width, so the clamp changes none.
pub fn resolve_workers(requested: Option<usize>, tasks: usize) -> usize {
    let n = match requested {
        None | Some(0) => default_workers(),
        Some(n) => n,
    };
    n.min(tasks).clamp(1, MAX_WORKERS)
}

/// Execute `fmu_simulate` for every instance of a fleet concurrently and
/// return the concatenated long output table, in instance order — byte
/// for byte what a serial loop of [`run_simulate`] calls produces.
///
/// Each task simulates one instance (persisting its final state back to
/// the catalogue, as always) under a [`WorkerSessionGuard`]. A panicking
/// task cancels the unstarted tail and surfaces as an error; completed
/// siblings' catalogue writes remain, like a failing statement inside a
/// serial batch.
pub fn run_simulate_fleet(
    session: &Session,
    instance_ids: &[String],
    input_sql: Option<&str>,
    time_from: Option<TimeSpec>,
    time_to: Option<TimeSpec>,
    workers: Option<usize>,
) -> Result<QueryResult> {
    if instance_ids.is_empty() {
        return Err(PgFmuError::Usage(
            "fmu_simulate_fleet: no model instances supplied".into(),
        ));
    }
    let workers = resolve_workers(workers, instance_ids.len());
    let pool = ThreadPool::new(workers);
    let task_ns = AtomicU64::new(0);
    let outputs = pool
        .run(instance_ids.len(), |i| {
            let _guard = WorkerSessionGuard::enter(&session.db);
            let t0 = Instant::now();
            let out = run_simulate(session, &instance_ids[i], input_sql, time_from, time_to);
            task_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            out
        })
        .map_err(|e| PgFmuError::Usage(format!("fmu_simulate_fleet: worker task panicked: {e}")))?;
    session.db.note_fleet(
        instance_ids.len() as u64,
        workers as u64,
        task_ns.load(Ordering::Relaxed),
    );
    // Concatenate in instance order (the pool already returns slots in
    // index order): identical to the serial loop's row stream.
    let mut iter = outputs.into_iter();
    let mut combined = iter.next().expect("at least one instance")?;
    for out in iter {
        combined.rows.extend(out?.rows);
    }
    Ok(combined)
}

/// Execute `fmu_parest` for a fleet with pooled estimation: the batch's
/// objective evaluations (GA populations, multi-start local searches,
/// MI instance tails) fan out over `workers` threads, and with MI
/// disabled whole instances are estimated concurrently. Reports come
/// back in instance order and are byte-identical to the serial path.
pub fn run_parest_fleet(
    session: &Session,
    instance_ids: &[String],
    input_sqls: &[String],
    pars: Option<&[String]>,
    threshold: Option<f64>,
    workers: Option<usize>,
) -> Result<Vec<ParestReport>> {
    // The pool serves GA candidates and local starts, not instances, so
    // only the cap applies.
    let workers = resolve_workers(workers, usize::MAX);
    let pool = ThreadPool::new(workers);
    let t0 = Instant::now();
    let reports = run_parest_in(
        session,
        instance_ids,
        input_sqls,
        pars,
        threshold,
        Some(&pool),
    )?;
    session.db.note_fleet(
        reports.len() as u64,
        workers as u64,
        t0.elapsed().as_nanos() as u64,
    );
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_requests_are_clamped_to_the_cap_and_the_task_count() {
        assert_eq!(resolve_workers(Some(1_000_000), 1_000), MAX_WORKERS);
        assert_eq!(resolve_workers(Some(1_000_000), usize::MAX), MAX_WORKERS);
        assert_eq!(resolve_workers(Some(0), 1_000), default_workers());
        assert_eq!(resolve_workers(None, 1_000), default_workers());
        assert_eq!(resolve_workers(Some(8), 3), 3);
        assert_eq!(resolve_workers(None, 1), 1);
        assert_eq!(resolve_workers(Some(2), 3), 2);
    }
}
