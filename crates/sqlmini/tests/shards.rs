//! Sharded version storage: multi-writer stress over one table,
//! cross-table commit atomicity, cursor pinning at shard granularity,
//! and the S=1-vs-S>1 equivalence
//! contract — a single-threaded session must observe *byte-identical*
//! results (including row order) whatever the shard count, because
//! home-shard routing keeps one thread's appends in one arena. Run in
//! release mode by CI's concurrency step and swept by the
//! `PGFMU_TABLE_SHARDS` matrix.

use std::sync::atomic::{AtomicBool, Ordering};

use proptest::prelude::*;

use pgfmu_sqlmini::{params, Database, Stat, Value};

/// Disjoint-range writers (auto-commit, transactional, and rolled-back
/// rounds) churn one table from four threads while streaming readers and
/// a vacuum loop run against it. Snapshot isolation: every streamed row
/// must satisfy the writers' `v = 2k` invariant, and the final multiset
/// of keys is exactly the committed inserts.
#[test]
fn disjoint_writers_with_readers_and_vacuum() {
    const WRITERS: usize = 4;
    const PER_WRITER: i64 = 300;
    let db = Database::with_table_shards(8);
    db.execute("CREATE TABLE u (k int, v int)").unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let db = &db;
        let stop = &stop;
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                s.spawn(move || {
                    let ins = db.prepare("INSERT INTO u VALUES ($1, $2)").unwrap();
                    let base = w as i64 * 10_000;
                    for i in 0..PER_WRITER {
                        let k = base + i;
                        match i % 10 {
                            // Transactional rounds commit under the
                            // table's write guard.
                            3 => {
                                db.execute("BEGIN").unwrap();
                                ins.query(params![k, 2 * k]).unwrap();
                                db.execute("COMMIT").unwrap();
                            }
                            // Rolled-back rounds must leave no trace:
                            // re-insert the key afterwards so the final
                            // key set stays dense.
                            7 => {
                                db.execute("BEGIN").unwrap();
                                ins.query(params![k, 2 * k]).unwrap();
                                db.execute("ROLLBACK").unwrap();
                                ins.query(params![k, 2 * k]).unwrap();
                            }
                            _ => {
                                ins.query(params![k, 2 * k]).unwrap();
                            }
                        }
                    }
                })
            })
            .collect();
        for _ in 0..2 {
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let mut n = 0i64;
                    for r in db.query_rows("SELECT k, v FROM u", &[]).unwrap() {
                        let r = r.unwrap();
                        let (k, v) = (r[0].as_i64().unwrap(), r[1].as_i64().unwrap());
                        assert_eq!(v, 2 * k, "torn row: k={k} v={v}");
                        n += 1;
                    }
                    assert!(n <= WRITERS as i64 * PER_WRITER);
                }
            });
        }
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                db.vacuum();
            }
        });
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    let q = db
        .execute("SELECT count(*), sum(k), sum(v) FROM u")
        .unwrap();
    let expect_n = WRITERS as i64 * PER_WRITER;
    let expect_k: i64 = (0..WRITERS as i64)
        .flat_map(|w| (0..PER_WRITER).map(move |i| w * 10_000 + i))
        .sum();
    assert_eq!(q.rows[0][0], Value::Int(expect_n));
    assert_eq!(q.rows[0][1], Value::Float(expect_k as f64));
    assert_eq!(q.rows[0][2], Value::Float(2.0 * expect_k as f64));
    assert_eq!(db.stat(Stat::ShardCount), 8);
    assert_eq!(
        db.stat(Stat::TxnsCommitted),
        WRITERS as u64 * (PER_WRITER as u64 / 10),
        "every transactional round commits exactly once"
    );
}

/// Cross-table commit atomicity at S>1: each writer transaction inserts
/// one row into `a` and one into `b`, and every reader transaction —
/// one pinned snapshot across two statements — must count the same
/// number of rows in both, while a vacuum loop compacts alongside. A
/// commit that became visible in one table before the other would show
/// up as a count mismatch.
#[test]
fn cross_table_commits_are_atomic_under_concurrency() {
    const WRITERS: usize = 3;
    const PER_WRITER: i64 = 300;
    let db = Database::with_table_shards(8);
    db.execute("CREATE TABLE a (k int)").unwrap();
    db.execute("CREATE TABLE b (k int)").unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let db = &db;
        let stop = &stop;
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                s.spawn(move || {
                    let ins_a = db.prepare("INSERT INTO a VALUES ($1)").unwrap();
                    let ins_b = db.prepare("INSERT INTO b VALUES ($1)").unwrap();
                    for i in 0..PER_WRITER {
                        let k = w as i64 * 10_000 + i;
                        db.execute("BEGIN").unwrap();
                        ins_a.query(params![k]).unwrap();
                        ins_b.query(params![k]).unwrap();
                        db.execute("COMMIT").unwrap();
                    }
                })
            })
            .collect();
        for _ in 0..2 {
            s.spawn(move || loop {
                // Check before testing `stop`, so every reader takes at
                // least one snapshot however late it is scheduled.
                db.execute("BEGIN").unwrap();
                let na: Vec<i64> = db.query_as("SELECT count(*) FROM a", &[]).unwrap();
                let nb: Vec<i64> = db.query_as("SELECT count(*) FROM b", &[]).unwrap();
                db.execute("COMMIT").unwrap();
                assert_eq!(na, nb, "a commit was visible in one table only");
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            });
        }
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                db.vacuum();
            }
        });
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    let n = WRITERS as i64 * PER_WRITER;
    for t in ["a", "b"] {
        let q = db.execute(&format!("SELECT count(*) FROM {t}")).unwrap();
        assert_eq!(q.rows[0][0], Value::Int(n), "table {t}");
    }
}

/// A half-open streaming cursor pins version storage at shard
/// granularity. Whichever shards vacuum reclaims mid-stream (drained
/// ones may compact; the one being drained may not), the cursor's
/// snapshot must stream back complete and untorn even though a
/// transactional DELETE killed every row under it.
#[test]
fn mid_stream_vacuum_never_disturbs_the_cursor_snapshot() {
    const N: i64 = 512;
    let db = Database::with_table_shards(8);
    db.execute("CREATE TABLE t (k int)").unwrap();
    let ins = db.prepare("INSERT INTO t VALUES ($1)").unwrap();
    // Two writer threads so the rows straddle more than one home shard
    // (each thread appends to its own arena).
    std::thread::scope(|s| {
        for w in 0..2 {
            let ins = &ins;
            s.spawn(move || {
                for i in 0..N / 2 {
                    ins.query(params![w * (N / 2) + i]).unwrap();
                }
            });
        }
    });
    let mut rows = db.query_rows("SELECT k FROM t", &[]).unwrap();
    let mut sum = 0i64;
    // Consume a bit, then kill every row the cursor still has to read.
    // The cursor's snapshot predates the DELETE, and streaming cursors
    // pin shards, not the GC watermark — so the pin is the only thing
    // keeping vacuum away from versions the stream still needs.
    sum += rows.next().unwrap().unwrap()[0].as_i64().unwrap();
    db.execute("BEGIN").unwrap();
    db.execute("DELETE FROM t").unwrap();
    db.execute("COMMIT").unwrap();
    db.vacuum();
    for r in rows {
        sum += r.unwrap()[0].as_i64().unwrap();
    }
    assert_eq!(sum, (0..N).sum::<i64>(), "cursor lost or repeated rows");
    // With the cursor gone, the dead versions are fully reclaimable.
    db.vacuum();
    assert!(
        db.stat(Stat::VersionsGc) >= N as u64,
        "versions_gc {}",
        db.stat(Stat::VersionsGc)
    );
    assert_eq!(
        db.execute("SELECT count(*) FROM t").unwrap().rows[0][0],
        Value::Int(0)
    );
}

/// One step of the equivalence script: the same statement is applied to
/// the S=1 and the S=8 database.
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<i64>),
    Update {
        mul: i64,
        lo: i64,
        hi: i64,
    },
    Delete {
        lo: i64,
        hi: i64,
    },
    /// BEGIN; a write per key; COMMIT or ROLLBACK.
    Txn {
        keys: Vec<i64>,
        commit: bool,
    },
}

fn arb_op() -> BoxedStrategy<Op> {
    prop_oneof![
        proptest::collection::vec(0i64..400, 1..8).prop_map(Op::Insert),
        (2i64..5, 0i64..400, 1i64..200).prop_map(|(mul, lo, w)| Op::Update {
            mul,
            lo,
            hi: lo + w,
        }),
        (0i64..400, 1i64..60).prop_map(|(lo, w)| Op::Delete { lo, hi: lo + w }),
        (proptest::collection::vec(0i64..400, 1..5), 0i64..2).prop_map(|(keys, commit)| Op::Txn {
            keys,
            commit: commit == 1,
        }),
    ]
    .boxed()
}

fn apply(db: &Database, ops: &[Op]) {
    let ins = db.prepare("INSERT INTO e VALUES ($1, $2)").unwrap();
    for op in ops {
        match op {
            Op::Insert(keys) => {
                for &k in keys {
                    ins.query(params![k, 10 * k]).unwrap();
                }
            }
            Op::Update { mul, lo, hi } => {
                db.query(
                    "UPDATE e SET v = v * $1 WHERE k >= $2 AND k < $3",
                    params![*mul, *lo, *hi],
                )
                .unwrap();
            }
            Op::Delete { lo, hi } => {
                db.query("DELETE FROM e WHERE k >= $1 AND k < $2", params![*lo, *hi])
                    .unwrap();
            }
            Op::Txn { keys, commit } => {
                db.execute("BEGIN").unwrap();
                for &k in keys {
                    ins.query(params![k, 10 * k]).unwrap();
                }
                db.execute(if *commit { "COMMIT" } else { "ROLLBACK" })
                    .unwrap();
            }
        }
    }
}

/// Everything a session can observe, in raw scan order: un-ORDERed
/// SELECT output (both materialized and streamed), an aggregate, and the
/// point-probe answers with the planner's index choice on and off.
fn observe(db: &Database) -> Vec<Vec<Value>> {
    let mut out = db.query("SELECT k, v FROM e", &[]).unwrap().rows;
    out.extend(
        db.query_rows("SELECT v, k FROM e", &[])
            .unwrap()
            .map(|r| r.unwrap()),
    );
    out.extend(
        db.query("SELECT count(*), sum(v) FROM e", &[])
            .unwrap()
            .rows,
    );
    db.execute("CREATE INDEX e_k ON e (k)").unwrap();
    for probe in [7i64, 100, 399] {
        let ix = db
            .query("SELECT v FROM e WHERE k = $1", params![probe])
            .unwrap()
            .rows;
        db.set_index_access_enabled(false);
        let seq = db
            .query("SELECT v FROM e WHERE k = $1", params![probe])
            .unwrap()
            .rows;
        db.set_index_access_enabled(true);
        assert_eq!(ix, seq, "index scan diverged from seq scan at k={probe}");
        out.extend(ix);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The shard-count escape hatch is invisible to a single-threaded
    /// session: the same DML script produces byte-identical observations
    /// (including raw scan order) at S=1 and S=8, through rollbacks,
    /// index probes and a final vacuum.
    #[test]
    fn single_threaded_session_is_identical_at_any_shard_count(
        ops in proptest::collection::vec(arb_op(), 1..12),
    ) {
        let one = Database::with_table_shards(1);
        let eight = Database::with_table_shards(8);
        for db in [&one, &eight] {
            db.execute("CREATE TABLE e (k int, v int)").unwrap();
        }
        apply(&one, &ops);
        apply(&eight, &ops);
        prop_assert_eq!(observe(&one), observe(&eight));
        one.vacuum();
        eight.vacuum();
        prop_assert_eq!(
            one.query("SELECT k, v FROM e", &[]).unwrap().rows,
            eight.query("SELECT k, v FROM e", &[]).unwrap().rows,
            "post-vacuum scan order diverged"
        );
    }
}
