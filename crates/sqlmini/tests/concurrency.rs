//! Multi-threaded readers-vs-writer stress tests for MVCC snapshot
//! isolation: while a writer churns the table — through auto-commit
//! statements and through explicit transactions that sometimes roll
//! back — concurrent readers must only ever observe fully-committed,
//! internally consistent states. Run in release mode by CI's
//! concurrency step, where the tighter timing shakes out races the
//! debug build hides.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

use pgfmu_sqlmini::{Database, Stat, Value};
use threadpool::ThreadPool;

const ROWS: i64 = 64;

/// The writer's invariant: every row of `t` always holds the same value
/// in any committed state, because each round bumps all rows in one
/// statement (or one transaction). A reader that sees two different
/// values has observed a torn, non-snapshot read.
#[test]
fn readers_never_observe_torn_writes() {
    let db = Database::new();
    db.execute("CREATE TABLE t (v int)").unwrap();
    for _ in 0..ROWS {
        db.execute("INSERT INTO t VALUES (0)").unwrap();
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let db = &db;
        let stop = &stop;
        s.spawn(move || {
            for i in 0..200 {
                if i % 3 == 0 {
                    // Transactional rounds; every sixth round rolls
                    // back, which must leave no trace.
                    db.execute("BEGIN").unwrap();
                    db.execute("UPDATE t SET v = v + 1").unwrap();
                    if i % 6 == 0 {
                        db.execute("ROLLBACK").unwrap();
                    } else {
                        db.execute("COMMIT").unwrap();
                    }
                } else {
                    db.execute("UPDATE t SET v = v + 1").unwrap();
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
        for _ in 0..3 {
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    // Grouped zero-copy scan: one guarded sweep.
                    let q = db
                        .execute("SELECT min(v), max(v), count(*) FROM t")
                        .unwrap();
                    assert_eq!(q.rows[0][0], q.rows[0][1], "torn aggregate snapshot");
                    assert_eq!(q.rows[0][2], Value::Int(ROWS));
                    // Streaming cursor: refills re-acquire the guard
                    // between batches, but the snapshot must hold.
                    let vals: Vec<i64> = db
                        .query_rows("SELECT v FROM t", &[])
                        .unwrap()
                        .map(|r| r.unwrap()[0].as_i64().unwrap())
                        .collect();
                    assert_eq!(vals.len() as i64, ROWS);
                    assert!(
                        vals.windows(2).all(|w| w[0] == w[1]),
                        "torn streaming snapshot: {vals:?}"
                    );
                }
            });
        }
    });
    // Quiesced: compaction (whatever opportunistic GC left behind) and
    // the invariant still hold.
    db.vacuum();
    let q = db.execute("SELECT min(v), max(v) FROM t").unwrap();
    assert_eq!(q.rows[0][0], q.rows[0][1]);
}

/// Writers on distinct rows of the same table proceed concurrently;
/// writers on the *same* row collide: exactly one of two racing
/// transactions commits, the other fails with PostgreSQL's
/// serialization error (first-updater-wins).
#[test]
fn same_row_writers_serialize_first_updater_wins() {
    let db = Database::new();
    db.execute("CREATE TABLE t (k int, v int)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 0), (2, 0)").unwrap();
    let mut committed = 0u32;
    let mut serialized = 0u32;
    for _ in 0..20 {
        let (a, b) = std::thread::scope(|s| {
            let db = &db;
            let race = |_: ()| {
                db.execute("BEGIN").unwrap();
                let r = db.execute("UPDATE t SET v = v + 1 WHERE k = 1");
                match r {
                    Ok(_) => {
                        db.execute("COMMIT").unwrap();
                        Ok(())
                    }
                    Err(e) => {
                        db.execute("ROLLBACK").unwrap();
                        Err(e)
                    }
                }
            };
            let ta = s.spawn(move || race(()));
            let tb = s.spawn(move || race(()));
            (ta.join().unwrap(), tb.join().unwrap())
        });
        for r in [a, b] {
            match r {
                Ok(()) => committed += 1,
                Err(e) => {
                    assert!(
                        e.to_string().contains("could not serialize access"),
                        "unexpected error: {e}"
                    );
                    serialized += 1;
                }
            }
        }
    }
    assert_eq!(committed + serialized, 40);
    // Every committed increment — and only those — is in the row.
    let q = db.execute("SELECT v FROM t WHERE k = 1").unwrap();
    assert_eq!(q.rows[0][0], Value::Int(committed as i64));
}

/// Index-backed range and point scans observe the same snapshot rules
/// as sequential scans: while a writer bumps every row's value (and the
/// unique index on `k` is maintained through each round), an index range
/// scan must never see a torn state, and a point probe always finds its
/// row exactly once.
#[test]
fn index_scans_are_snapshot_consistent_under_writes() {
    let db = Database::new();
    db.execute("CREATE TABLE t (k int, v int)").unwrap();
    for i in 0..ROWS {
        db.execute(&format!("INSERT INTO t VALUES ({i}, 0)"))
            .unwrap();
    }
    db.execute("CREATE UNIQUE INDEX t_k ON t (k)").unwrap();
    db.execute("ANALYZE t").unwrap();
    let lo = ROWS - 8;
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let db = &db;
        let stop = &stop;
        s.spawn(move || {
            for i in 0..150 {
                if i % 3 == 0 {
                    db.execute("BEGIN").unwrap();
                    db.execute("UPDATE t SET v = v + 1").unwrap();
                    if i % 6 == 0 {
                        db.execute("ROLLBACK").unwrap();
                    } else {
                        db.execute("COMMIT").unwrap();
                    }
                } else {
                    db.execute("UPDATE t SET v = v + 1").unwrap();
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
        for _ in 0..3 {
            s.spawn(move || {
                // At least one pass even if the writer already finished
                // (release builds can drain all 150 rounds before the
                // readers' first check).
                loop {
                    // One statement = one snapshot: an index range scan
                    // over the tail must agree with itself.
                    let q = db
                        .execute(&format!(
                            "SELECT min(v), max(v), count(*) FROM t WHERE k >= {lo}"
                        ))
                        .unwrap();
                    assert_eq!(q.rows[0][0], q.rows[0][1], "torn index scan");
                    assert_eq!(q.rows[0][2], Value::Int(8));
                    // Point probe: exactly one version of the row visible.
                    let q = db.execute("SELECT v FROM t WHERE k = 3").unwrap();
                    assert_eq!(q.rows.len(), 1, "duplicate or missing version");
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
            });
        }
    });
    let index_scans = db.stat(Stat::IndexScans);
    assert!(index_scans > 0, "the readers must have probed the index");
    // Quiesced, compacted, and still consistent.
    db.vacuum();
    let q = db
        .execute(&format!("SELECT count(*) FROM t WHERE k >= {lo}"))
        .unwrap();
    assert_eq!(q.rows[0][0], Value::Int(8));
}

/// Fleet-shaped stress: a worker pool (width from `PGFMU_FLEET_WORKERS`,
/// default 4) retires instance-result tasks — multi-row result inserts
/// plus a per-task status update — while readers stream under snapshot
/// isolation and a vacuum thread compacts continuously. Tasks follow the
/// fleet session rule: reset the thread-keyed session on entry, because
/// some tasks deliberately "crash" between BEGIN and COMMIT and the next
/// task reusing that worker thread must not inherit the open
/// transaction. Readers must only ever see whole committed batches.
#[test]
fn fleet_writers_with_streaming_readers_and_vacuum() {
    const TASKS: usize = 96;
    const BATCH: i64 = 4;
    let workers: usize = std::env::var("PGFMU_FLEET_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let db = Database::new();
    db.execute("CREATE TABLE results (inst int, task int, v float)")
        .unwrap();
    db.execute("CREATE TABLE state (task int, done int)")
        .unwrap();
    for t in 0..TASKS {
        db.execute(&format!("INSERT INTO state VALUES ({t}, 0)"))
            .unwrap();
    }
    let committed = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let db = &db;
        let stop = &stop;
        for _ in 0..2 {
            s.spawn(move || loop {
                // Committed result batches are atomic: every task's group
                // is complete or absent, never partial.
                let q = db
                    .execute("SELECT task, count(*) FROM results GROUP BY task")
                    .unwrap();
                for row in &q.rows {
                    assert_eq!(row[1], Value::Int(BATCH), "partial batch visible");
                }
                let q = db.execute("SELECT count(*) FROM results").unwrap();
                assert_eq!(
                    q.rows[0][0].as_i64().unwrap() % BATCH,
                    0,
                    "torn total under snapshot isolation"
                );
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            });
        }
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                db.vacuum();
                std::thread::yield_now();
            }
        });
        let pool = ThreadPool::new(workers);
        pool.run(TASKS, |task| {
            // Fleet session rule: a pooled worker starts every task from
            // a clean, auto-commit session.
            db.reset_session();
            let inst = task % 8;
            match task % 8 {
                3 => {
                    // Simulated mid-transaction death: BEGIN + write,
                    // then drop the task without COMMIT. The open
                    // transaction is left parked on this worker thread.
                    db.execute("BEGIN").unwrap();
                    db.execute(&format!(
                        "INSERT INTO results VALUES ({inst}, {task}, -1.0)"
                    ))
                    .unwrap();
                }
                5 => {
                    // Explicit transaction that changes its mind.
                    db.execute("BEGIN").unwrap();
                    db.execute(&format!(
                        "INSERT INTO results VALUES ({inst}, {task}, -2.0), \
                         ({inst}, {task}, -2.0)"
                    ))
                    .unwrap();
                    db.execute("ROLLBACK").unwrap();
                }
                _ => {
                    // One atomic batch of instance results + this task's
                    // own status row (no cross-task write conflicts).
                    let vals: Vec<String> = (0..BATCH)
                        .map(|_| format!("({inst}, {task}, {}.0)", task))
                        .collect();
                    db.execute(&format!("INSERT INTO results VALUES {}", vals.join(", ")))
                        .unwrap();
                    db.execute(&format!("UPDATE state SET done = 1 WHERE task = {task}"))
                        .unwrap();
                    committed.fetch_add(1, Ordering::Relaxed);
                }
            }
        })
        .unwrap();
        // Sweep: park exactly one reset task on every worker (the barrier
        // forces the distribution) so transactions leaked by tail-end
        // "crash" tasks are reclaimed before the pool idles.
        let barrier = Barrier::new(workers);
        let leaked: u64 = pool
            .run(workers, |_| {
                barrier.wait();
                u64::from(db.reset_session())
            })
            .unwrap()
            .iter()
            .sum();
        assert!(
            leaked <= TASKS.div_ceil(8) as u64,
            "at most one leaked transaction per crash task"
        );
        stop.store(true, Ordering::Relaxed);
    });
    // Only whole, committed batches survive — crash and rollback tasks
    // left no trace.
    let done = committed.load(Ordering::Relaxed) as i64;
    let q = db.execute("SELECT count(*) FROM results").unwrap();
    assert_eq!(q.rows[0][0], Value::Int(done * BATCH));
    let min_v = db.execute("SELECT min(v) FROM results").unwrap().rows[0][0]
        .as_f64()
        .unwrap();
    assert!(min_v >= 0.0, "no uncommitted or rolled-back value visible");
    let q = db
        .execute("SELECT count(*) FROM state WHERE done = 1")
        .unwrap();
    assert_eq!(q.rows[0][0], Value::Int(done));
    // No leaked snapshot pin holds back the garbage collector: churn the
    // whole table inside a transaction (the transactional write path
    // always versions rows — auto-commit may overwrite in place and
    // leave nothing to collect), then the dead versions must be
    // reclaimable by vacuum. A surviving pin would hold the watermark
    // below the churn's commit stamp and free nothing.
    assert!(!db.in_transaction());
    let gc_before = db.stat(Stat::VersionsGc);
    db.execute("BEGIN").unwrap();
    db.execute("UPDATE state SET done = done").unwrap();
    db.execute("COMMIT").unwrap();
    db.vacuum();
    assert!(
        db.stat(Stat::VersionsGc) > gc_before,
        "a leaked transaction pin survived the sweep"
    );
}

/// The vectorized batch path fills its columns from the same pinned
/// MVCC snapshot the scalar path would stream, so a columnar reader
/// racing a batch-committing writer must never observe a torn batch.
/// The writer only ever commits whole groups of 8 rows in one
/// transaction; a vectorized grouped aggregate must therefore see every
/// group either complete or absent, and a vectorized top-K over the
/// float column must return rows from a single committed batch.
#[test]
fn vectorized_scans_are_snapshot_consistent_under_writes() {
    let db = Database::new();
    // Pin the toggle: the CI sweep sets PGFMU_VECTORIZED=0 for the
    // scalar side, but this test is specifically about the batch path.
    db.set_vectorized_enabled(true);
    db.execute("CREATE TABLE t (g int, v float)").unwrap();
    // Seed one committed batch so the readers always have rows.
    db.execute("BEGIN").unwrap();
    for _ in 0..8 {
        db.execute("INSERT INTO t VALUES (0, 0)").unwrap();
    }
    db.execute("COMMIT").unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let db = &db;
        let stop = &stop;
        s.spawn(move || {
            for batch in 1..60i64 {
                db.execute("BEGIN").unwrap();
                for _ in 0..8 {
                    db.execute(&format!("INSERT INTO t VALUES ({batch}, {batch})"))
                        .unwrap();
                }
                db.execute("COMMIT").unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });
        for _ in 0..2 {
            s.spawn(move || loop {
                // One statement = one snapshot: the writer commits whole
                // batches, so every visible group holds exactly 8 rows.
                let q = db
                    .execute("SELECT g, count(*) FROM t GROUP BY g ORDER BY 1")
                    .unwrap();
                assert!(!q.rows.is_empty());
                for row in &q.rows {
                    assert_eq!(row[1], Value::Int(8), "torn group {:?}", row[0]);
                }
                // Top-K over the float column: the 5 largest keys all
                // come from the newest fully-committed batch of 8, so
                // they are all the same value.
                let q = db
                    .execute("SELECT v FROM t ORDER BY v DESC LIMIT 5")
                    .unwrap();
                assert_eq!(q.rows.len(), 5);
                for row in &q.rows {
                    assert_eq!(row[0], q.rows[0][0], "top-K mixed torn batches");
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            });
        }
    });
    let filled = db.stat(Stat::BatchesFilled);
    let ops = db.stat(Stat::VectorizedOps);
    assert!(
        filled > 0 && ops > 0,
        "the readers were expected to take the vectorized path"
    );
}
