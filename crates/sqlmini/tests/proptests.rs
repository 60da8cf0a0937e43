//! Property tests for the SQL engine: totality of the front-end, codec
//! round-trips and executor invariants.

use proptest::prelude::*;

use pgfmu_sqlmini::value::{civil_from_days, days_from_civil};
use pgfmu_sqlmini::{format_timestamp, parse_timestamp, Database, Stat, Value};

/// Any storable SQL value, biased toward the quoting hazards (quotes,
/// doubled quotes, SQL-ish punctuation) that literal interpolation has to
/// escape and binds must pass through untouched.
fn arb_value() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::Bool(true)),
        Just(Value::Bool(false)),
        (-1_000_000_000i64..1_000_000_000).prop_map(Value::Int),
        (-1e9f64..1e9).prop_map(Value::Float),
        "[a-zA-Z0-9 ',;%_()$=<>|.]{0,30}".prop_map(Value::Text),
        Just(Value::Text("it''s '' quoted".into())),
        (-4_000_000_000i64..8_000_000_000).prop_map(Value::Timestamp),
    ]
    .boxed()
}

/// Render a value as an escaped SQL literal — the interpolation path the
/// bind API replaces.
fn literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:?}"),
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Timestamp(t) => format!("timestamp '{}'", format_timestamp(*t)),
        Value::Interval(s) => format!("interval '{s} seconds'"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Lexer and parser never panic on arbitrary input.
    #[test]
    fn front_end_is_total(s in ".{0,200}") {
        let _ = pgfmu_sqlmini::parser::parse(&s);
    }

    /// Parser never panics on SQL-ish token soup.
    #[test]
    fn parser_total_on_sqlish_soup(
        s in "(select|from|where|insert|update|t|x|'a'|1|2\\.5|\\(|\\)|,|\\*|=|<|>|\\|\\||::| )+",
    ) {
        let _ = pgfmu_sqlmini::parser::parse(&s);
    }

    /// Civil-date conversion round-trips across a wide range.
    #[test]
    fn civil_days_round_trip(z in -200_000i64..200_000) {
        let (y, m, d) = civil_from_days(z);
        prop_assert_eq!(days_from_civil(y, m, d), Some(z));
        prop_assert!((1..=12).contains(&m));
        prop_assert!((1..=31).contains(&d));
    }

    /// Timestamp format → parse is the identity on whole seconds.
    #[test]
    fn timestamp_round_trip(secs in -4_000_000_000i64..8_000_000_000) {
        let text = format_timestamp(secs);
        prop_assert_eq!(parse_timestamp(&text).unwrap(), secs);
    }

    /// INSERT then SELECT returns exactly what was stored (floats).
    #[test]
    fn insert_select_round_trip(values in proptest::collection::vec(-1e9f64..1e9, 1..40)) {
        let db = Database::new();
        db.execute("CREATE TABLE t (v float)").unwrap();
        for v in &values {
            db.execute(&format!("INSERT INTO t VALUES ({v:?})")).unwrap();
        }
        let q = db.execute("SELECT v FROM t").unwrap();
        let got: Vec<f64> = q.rows.iter().map(|r| r[0].as_f64().unwrap()).collect();
        prop_assert_eq!(got, values);
    }

    /// ORDER BY produces a non-decreasing sequence; LIMIT caps rows.
    #[test]
    fn order_by_sorts_and_limit_caps(
        values in proptest::collection::vec(-1e6f64..1e6, 1..50),
        limit in 1u64..20,
    ) {
        let db = Database::new();
        db.execute("CREATE TABLE t (v float)").unwrap();
        for v in &values {
            db.execute(&format!("INSERT INTO t VALUES ({v:?})")).unwrap();
        }
        let q = db
            .execute(&format!("SELECT v FROM t ORDER BY v LIMIT {limit}"))
            .unwrap();
        prop_assert!(q.len() <= limit as usize);
        let got: Vec<f64> = q.rows.iter().map(|r| r[0].as_f64().unwrap()).collect();
        for w in got.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    /// Aggregates agree with direct computation.
    #[test]
    fn aggregates_match_direct_computation(
        values in proptest::collection::vec(-1e6f64..1e6, 1..50),
    ) {
        let db = Database::new();
        db.execute("CREATE TABLE t (v float)").unwrap();
        for v in &values {
            db.execute(&format!("INSERT INTO t VALUES ({v:?})")).unwrap();
        }
        let q = db.execute("SELECT count(*), sum(v), min(v), max(v) FROM t").unwrap();
        prop_assert_eq!(q.rows[0][0].clone(), Value::Int(values.len() as i64));
        let sum: f64 = values.iter().sum();
        prop_assert!((q.rows[0][1].as_f64().unwrap() - sum).abs() < 1e-6 * (1.0 + sum.abs()));
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(q.rows[0][2].as_f64().unwrap(), min);
        prop_assert_eq!(q.rows[0][3].as_f64().unwrap(), max);
    }

    /// Grouped aggregation is a partition of the whole-table aggregate:
    /// the per-key sums and counts add up to the ungrouped totals, and
    /// each group's sum matches a WHERE-filtered whole-table sum.
    #[test]
    fn grouped_sums_partition_whole_table_sums(
        rows in proptest::collection::vec((0i64..5, -1e6f64..1e6), 1..60),
    ) {
        let db = Database::new();
        db.execute("CREATE TABLE t (k int, v float)").unwrap();
        let insert = db.prepare("INSERT INTO t VALUES ($1, $2)").unwrap();
        for (k, v) in &rows {
            insert.query(&[Value::Int(*k), Value::Float(*v)]).unwrap();
        }
        let total: f64 = rows.iter().map(|(_, v)| v).sum();
        let grouped = db
            .execute("SELECT k, count(*), sum(v) FROM t GROUP BY k ORDER BY k")
            .unwrap();
        let mut group_total = 0.0;
        let mut group_count = 0i64;
        for r in &grouped.rows {
            let k = r[0].as_i64().unwrap();
            group_count += r[1].as_i64().unwrap();
            let sum = r[2].as_f64().unwrap();
            group_total += sum;
            // Each group's sum equals the WHERE-filtered whole-table sum.
            let filtered = db
                .query("SELECT sum(v) FROM t WHERE k = $1", &[Value::Int(k)])
                .unwrap();
            let direct = filtered.rows[0][0].as_f64().unwrap();
            prop_assert!((sum - direct).abs() < 1e-6 * (1.0 + direct.abs()));
        }
        prop_assert_eq!(group_count, rows.len() as i64);
        prop_assert!((group_total - total).abs() < 1e-6 * (1.0 + total.abs()));
        // HAVING true keeps every group; HAVING false drops them all.
        let all = db
            .execute("SELECT k FROM t GROUP BY k HAVING count(*) > 0")
            .unwrap();
        prop_assert_eq!(all.rows.len(), grouped.rows.len());
        let none = db
            .execute("SELECT k FROM t GROUP BY k HAVING count(*) < 0")
            .unwrap();
        prop_assert_eq!(none.rows.len(), 0);
    }

    /// WHERE partitioning: matching + non-matching = all rows.
    #[test]
    fn where_partitions_rows(
        values in proptest::collection::vec(-100i64..100, 1..60),
        threshold in -100i64..100,
    ) {
        let db = Database::new();
        db.execute("CREATE TABLE t (v int)").unwrap();
        for v in &values {
            db.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
        }
        let above = db
            .execute(&format!("SELECT count(*) FROM t WHERE v > {threshold}"))
            .unwrap();
        let below = db
            .execute(&format!("SELECT count(*) FROM t WHERE v <= {threshold}"))
            .unwrap();
        let a = above.rows[0][0].as_i64().unwrap();
        let b = below.rows[0][0].as_i64().unwrap();
        prop_assert_eq!(a + b, values.len() as i64);
    }

    /// For random SELECT shapes — WHERE, GROUP BY, HAVING, ORDER BY,
    /// DISTINCT, LIMIT in every combination — the streamed `Rows` cursor,
    /// the materialized `QueryResult`, and an uncached execution (which
    /// compiles a fresh physical plan) agree row for row. This pins the
    /// lazy, eager and plan-cached paths of the executor to each other.
    #[test]
    fn streamed_equals_materialized_for_random_selects(
        rows in proptest::collection::vec((0i64..4, -100i64..100), 0..40),
        where_threshold in (-101i64..100).prop_map(|t| (t >= -100).then_some(t)),
        group in (0i64..2).prop_map(|b| b == 1),
        having in (0i64..2).prop_map(|b| b == 1),
        order in (0i64..2).prop_map(|b| b == 1),
        distinct in (0i64..2).prop_map(|b| b == 1),
        limit in (0u64..10).prop_map(|l| (l > 0).then_some(l)),
    ) {
        let db = Database::new();
        db.execute("CREATE TABLE t (k int, v int)").unwrap();
        let insert = db.prepare("INSERT INTO t VALUES ($1, $2)").unwrap();
        for (k, v) in &rows {
            insert.query(&[Value::Int(*k), Value::Int(*v)]).unwrap();
        }
        let mut sql = String::from("SELECT ");
        if distinct {
            sql.push_str("DISTINCT ");
        }
        if group {
            sql.push_str("k, count(*) AS c, sum(v) AS s FROM t");
        } else {
            sql.push_str("k, v FROM t");
        }
        if let Some(th) = where_threshold {
            sql.push_str(&format!(" WHERE v > {th}"));
        }
        if group {
            sql.push_str(" GROUP BY k");
            if having {
                sql.push_str(" HAVING count(*) > 1");
            }
        }
        if order {
            sql.push_str(" ORDER BY k");
        }
        if let Some(l) = limit {
            sql.push_str(&format!(" LIMIT {l}"));
        }

        let materialized = db.execute(&sql).unwrap();
        let streamed: Vec<Vec<Value>> = db
            .query_rows(&sql, &[])
            .unwrap()
            .collect::<pgfmu_sqlmini::Result<_>>()
            .unwrap();
        let uncached = db.execute_uncached(&sql).unwrap();
        prop_assert_eq!(&materialized.rows, &streamed);
        prop_assert_eq!(&materialized.rows, &uncached.rows);
        // A second cached execution reuses the shared plan and agrees too.
        let built = db.stat(Stat::PlansBuilt);
        let again = db.execute(&sql).unwrap();
        prop_assert_eq!(&materialized.rows, &again.rows);
        prop_assert_eq!(db.stat(Stat::PlansBuilt), built, "no re-planning on re-execution");
        if let Some(l) = limit {
            prop_assert!(materialized.rows.len() <= l as usize);
        }
    }

    /// The zero-copy scan (under the table read guard) and the copy-out
    /// fallback produce identical results for every SELECT shape —
    /// WHERE, ORDER BY (asc/desc), DISTINCT, LIMIT in all combinations,
    /// over an index probe or a sequential scan. The fallback is forced
    /// by routing the predicate through a re-entrant UDF (`opaque`),
    /// which the planner must classify as unsafe to run under a guard;
    /// the scan-strategy counters verify each statement actually took
    /// the intended path, and that both took an access path.
    #[test]
    fn zero_copy_and_snapshot_scans_agree(
        rows in proptest::collection::vec((0i64..5, -100i64..100), 0..50),
        threshold in -101i64..101,
        order in (0i64..3).prop_map(|o| match o {
            0 => "",
            1 => " ORDER BY k, v",
            _ => " ORDER BY v DESC, k",
        }),
        distinct in (0i64..2).prop_map(|b| b == 1),
        limit in (0u64..8).prop_map(|l| (l > 0).then_some(l)),
        indexed in (0i64..2).prop_map(|b| b == 1),
        lo in 0i64..6,
    ) {
        let db = Database::new();
        // A raw-registered scalar: the planner cannot prove it stays out
        // of the database, so any statement using it must copy its rows.
        db.register_scalar("opaque", |_db, args| Ok(args[0].clone()));
        db.execute("CREATE TABLE t (k int, v int)").unwrap();
        let insert = db.prepare("INSERT INTO t VALUES ($1, $2)").unwrap();
        for (k, v) in &rows {
            insert.query(&[Value::Int(*k), Value::Int(*v)]).unwrap();
        }
        let range = if indexed {
            db.execute("CREATE INDEX t_k ON t (k)").unwrap();
            db.execute("ANALYZE t").unwrap();
            format!(" AND k >= {lo}")
        } else {
            String::new()
        };
        let tail = format!(
            "{range}{order}{}",
            limit.map(|l| format!(" LIMIT {l}")).unwrap_or_default()
        );
        let head = if distinct { "SELECT DISTINCT" } else { "SELECT" };
        // DISTINCT + ORDER BY requires the sort keys in the select list —
        // `k, v` always are.
        let zero_sql = format!("{head} k, v FROM t WHERE v > {threshold}{tail}");
        let snap_sql = format!("{head} k, v FROM t WHERE opaque(v) > {threshold}{tail}");
        let access = || db.stat(Stat::IndexScans) + db.stat(Stat::SeqScans);
        let a0 = access();
        let z0 = db.stat(Stat::ScansZeroCopy);
        let f0 = db.stat(Stat::ScanFallbacks);
        let zero = db.execute(&zero_sql).unwrap();
        let a1 = access();
        let z1 = db.stat(Stat::ScansZeroCopy);
        let f1 = db.stat(Stat::ScanFallbacks);
        prop_assert_eq!(z1, z0 + 1, "safe scan must run zero-copy");
        let snap = db.execute(&snap_sql).unwrap();
        let a2 = access();
        let z2 = db.stat(Stat::ScansZeroCopy);
        let f2 = db.stat(Stat::ScanFallbacks);
        prop_assert_eq!(f2, f1 + 1, "re-entrant predicate must snapshot");
        prop_assert_eq!(z2, z1, "re-entrant predicate must not run zero-copy");
        prop_assert_eq!(&zero.rows, &snap.rows);
        prop_assert_eq!(f1, f0, "safe scan must not snapshot");
        prop_assert_eq!(
            (a1 - a0, a2 - a1),
            (1, 1),
            "each statement takes one index or sequential access path"
        );
        // The streamed cursor agrees with both.
        let streamed: Vec<Vec<Value>> = db
            .query_rows(&zero_sql, &[])
            .unwrap()
            .collect::<pgfmu_sqlmini::Result<_>>()
            .unwrap();
        prop_assert_eq!(&zero.rows, &streamed);
    }

    /// UPDATE / DELETE over borrowed rows under the write guard behave
    /// exactly like the copy-out source that re-entrant expressions
    /// take: same rows afterwards, same affected-row counts.
    #[test]
    fn in_place_dml_matches_snapshot_dml(
        rows in proptest::collection::vec((0i64..6, -50i64..50), 0..40),
        threshold in -51i64..51,
        delta in 1i64..5,
    ) {
        let db = Database::new();
        db.register_scalar("opaque", |_db, args| Ok(args[0].clone()));
        for t in ["a", "b"] {
            db.execute(&format!("CREATE TABLE {t} (k int, v int)")).unwrap();
            let insert = db.prepare(&format!("INSERT INTO {t} VALUES ($1, $2)")).unwrap();
            for (k, v) in &rows {
                insert.query(&[Value::Int(*k), Value::Int(*v)]).unwrap();
            }
        }
        let z0 = db.stat(Stat::ScansZeroCopy);
        let f0 = db.stat(Stat::ScanFallbacks);
        let fast = db
            .execute(&format!("UPDATE a SET v = v + {delta} WHERE k > {threshold}"))
            .unwrap();
        let z1 = db.stat(Stat::ScansZeroCopy);
        prop_assert_eq!(z1, z0 + 1, "safe UPDATE runs under the write guard");
        let slow = db
            .execute(&format!(
                "UPDATE b SET v = opaque(v) + {delta} WHERE k > {threshold}"
            ))
            .unwrap();
        let z2 = db.stat(Stat::ScansZeroCopy);
        let f2 = db.stat(Stat::ScanFallbacks);
        prop_assert_eq!(z2, z1, "re-entrant UPDATE copies its rows out");
        prop_assert!(f2 > f0);
        prop_assert_eq!(&fast.rows, &slow.rows, "same affected-row count");
        // SQL promises a multiset, not a physical order: compare the
        // contents sorted.
        let key = |r: &Vec<Value>| {
            r.iter()
                .map(|v| match v {
                    Value::Int(i) => *i,
                    other => panic!("unexpected value {other:?}"),
                })
                .collect::<Vec<i64>>()
        };
        let sorted = |mut rows: Vec<Vec<Value>>| {
            rows.sort_by_key(key);
            rows
        };
        let qa = db.execute("SELECT k, v FROM a").unwrap();
        let qb = db.execute("SELECT k, v FROM b").unwrap();
        prop_assert_eq!(
            sorted(qa.rows),
            sorted(qb.rows),
            "same table contents after UPDATE"
        );

        let fast = db
            .execute(&format!("DELETE FROM a WHERE v > {threshold}"))
            .unwrap();
        let slow = db
            .execute(&format!("DELETE FROM b WHERE opaque(v) > {threshold}"))
            .unwrap();
        prop_assert_eq!(&fast.rows, &slow.rows, "same deleted-row count");
        let qa = db.execute("SELECT k, v FROM a").unwrap();
        let qb = db.execute("SELECT k, v FROM b").unwrap();
        prop_assert_eq!(
            sorted(qa.rows),
            sorted(qb.rows),
            "same table contents after DELETE"
        );
    }

    /// UPDATE and DELETE give the same counts and leave the same rows
    /// however they find their targets — an index probe or a
    /// sequential scan, borrowed rows under the write guard or rows
    /// copied out for a re-entrant predicate, auto-commit statements or
    /// one enclosing transaction. Range UPDATEs move the indexed key, so
    /// a routine that revisited its own successors would diverge.
    #[test]
    fn dml_matches_across_access_paths_row_sources_and_transactions(
        rows in proptest::collection::vec((0i64..40, -50i64..50), 60..120),
        ops in proptest::collection::vec((0u8..4, 0i64..40, 1i64..8, -3i64..4), 1..12),
    ) {
        type Contents = Vec<(i64, u64, String)>;
        let mut reference: Option<(Vec<Value>, Contents)> = None;
        for config in 0..8u8 {
            let (indexed, reentrant, in_txn) = (config & 1 != 0, config & 2 != 0, config & 4 != 0);
            let db = Database::new();
            db.register_scalar("ident", |_db, args| Ok(args[0].clone()));
            db.execute("CREATE TABLE t (k int, v float, s text)").unwrap();
            let insert = db.prepare("INSERT INTO t VALUES ($1, $2, $3)").unwrap();
            for (k, v) in &rows {
                insert
                    .query(&[Value::Int(*k), Value::Float(*v as f64), Value::Text(format!("r{v}"))])
                    .unwrap();
            }
            db.execute("CREATE INDEX t_k ON t (k)").unwrap();
            db.execute("ANALYZE t").unwrap();
            db.set_index_access_enabled(indexed);
            let probes = db.stat(Stat::IndexScans);
            if in_txn {
                db.execute("BEGIN").unwrap();
            }
            let mut counts = Vec::with_capacity(ops.len());
            for &(kind, a, width, d) in &ops {
                let mut pred = if kind % 2 == 0 {
                    format!("k = {a}")
                } else {
                    format!("k >= {a} AND k < {}", a + width)
                };
                if reentrant {
                    pred = format!("{pred} AND ident({pred})");
                }
                let sql = if kind < 2 {
                    format!("UPDATE t SET k = k + {d}, v = v + 0.5, s = s || 'u' WHERE {pred}")
                } else {
                    format!("DELETE FROM t WHERE {pred}")
                };
                counts.push(db.execute(&sql).unwrap().rows[0][0].clone());
            }
            if in_txn {
                db.execute("COMMIT").unwrap();
            }
            if indexed {
                prop_assert!(db.stat(Stat::IndexScans) > probes, "config {}: no index probe", config);
            }
            let mut contents: Contents = db
                .execute("SELECT k, v, s FROM t")
                .unwrap()
                .rows
                .iter()
                .map(|r| (r[0].as_i64().unwrap(), r[1].as_f64().unwrap().to_bits(), r[2].to_string()))
                .collect();
            contents.sort();
            match &reference {
                None => reference = Some((counts, contents)),
                Some((c0, r0)) => {
                    prop_assert_eq!(c0, &counts, "config {}: counts", config);
                    prop_assert_eq!(r0, &contents, "config {}: contents", config);
                }
            }
        }
    }

    /// Serial workloads cannot tell MVCC from single-version storage: a
    /// random INSERT/UPDATE/DELETE sequence applied to the engine and to
    /// a plain in-memory model yields the same multiset of rows after
    /// every statement.
    #[test]
    fn serial_dml_matches_single_version_model(
        ops in proptest::collection::vec((0u8..3, -20i64..20, -20i64..20), 0..30),
    ) {
        let db = Database::new();
        db.execute("CREATE TABLE t (v int)").unwrap();
        let mut model: Vec<i64> = Vec::new();
        for (op, a, b) in ops {
            match op {
                0 => {
                    db.execute(&format!("INSERT INTO t VALUES ({a})")).unwrap();
                    model.push(a);
                }
                1 => {
                    db.execute(&format!("UPDATE t SET v = {b} WHERE v < {a}")).unwrap();
                    for v in model.iter_mut() {
                        if *v < a {
                            *v = b;
                        }
                    }
                }
                _ => {
                    db.execute(&format!("DELETE FROM t WHERE v > {a}")).unwrap();
                    model.retain(|v| *v <= a);
                }
            }
            let mut got: Vec<i64> = db
                .execute("SELECT v FROM t")
                .unwrap()
                .rows
                .iter()
                .map(|r| r[0].as_i64().unwrap())
                .collect();
            got.sort_unstable();
            let mut want = model.clone();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }

    /// A streaming reader opened before a batch of writes never observes
    /// them: the cursor's snapshot is immutable no matter how the table
    /// changes while it is open — whether the writes auto-commit one by
    /// one or land atomically through BEGIN … COMMIT.
    #[test]
    fn open_cursors_never_see_later_writes(
        initial in proptest::collection::vec(-100i64..100, 1..20),
        writes in proptest::collection::vec((0u8..3, -100i64..100), 1..10),
        in_txn in (0i64..2).prop_map(|b| b == 1),
    ) {
        let db = Database::new();
        db.execute("CREATE TABLE t (v int)").unwrap();
        for v in &initial {
            db.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
        }
        let mut rows = db.query_rows("SELECT v FROM t", &[]).unwrap();
        let first = rows.next().unwrap().unwrap();
        prop_assert_eq!(&first[0], &Value::Int(initial[0]));
        if in_txn {
            db.execute("BEGIN").unwrap();
        }
        for (op, x) in &writes {
            match op {
                0 => db.execute(&format!("INSERT INTO t VALUES ({x})")).unwrap(),
                1 => db.execute(&format!("UPDATE t SET v = v + 1 WHERE v < {x}")).unwrap(),
                _ => db.execute(&format!("DELETE FROM t WHERE v > {x}")).unwrap(),
            };
        }
        if in_txn {
            db.execute("COMMIT").unwrap();
        }
        let rest: Vec<i64> = rows.map(|r| r.unwrap()[0].as_i64().unwrap()).collect();
        let mut seen = vec![initial[0]];
        seen.extend(rest);
        prop_assert_eq!(seen, initial, "the cursor reads its snapshot, not the writes");
    }

    /// ROLLBACK erases every trace of a transaction's random DML: the
    /// table reads back exactly — contents and order — as before BEGIN.
    #[test]
    fn rolled_back_transactions_are_invisible(
        initial in proptest::collection::vec(-100i64..100, 0..20),
        ops in proptest::collection::vec((0u8..3, -100i64..100), 1..12),
    ) {
        let db = Database::new();
        db.execute("CREATE TABLE t (v int)").unwrap();
        for v in &initial {
            db.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
        }
        let before = db.execute("SELECT v FROM t").unwrap();
        db.execute("BEGIN").unwrap();
        for (op, x) in &ops {
            match op {
                0 => db.execute(&format!("INSERT INTO t VALUES ({x})")).unwrap(),
                1 => db.execute(&format!("UPDATE t SET v = v + 1 WHERE v < {x}")).unwrap(),
                _ => db.execute(&format!("DELETE FROM t WHERE v > {x}")).unwrap(),
            };
        }
        db.execute("ROLLBACK").unwrap();
        let after = db.execute("SELECT v FROM t").unwrap();
        prop_assert_eq!(&before.rows, &after.rows);
    }

    /// A `$1` bind stores exactly the same value as the equivalent escaped
    /// literal — binds and interpolation are interchangeable (modulo the
    /// quoting hazards binds avoid entirely).
    #[test]
    fn bind_and_escaped_literal_round_trip_identically(v in arb_value()) {
        let db = Database::new();
        db.execute("CREATE TABLE t (tag int, v variant)").unwrap();
        db.execute(&format!("INSERT INTO t VALUES (0, {})", literal(&v)))
            .unwrap();
        db.query("INSERT INTO t VALUES (1, $1)", std::slice::from_ref(&v))
            .unwrap();
        let q = db.execute("SELECT v FROM t ORDER BY tag").unwrap();
        prop_assert_eq!(&q.rows[0][0], &q.rows[1][0]);
        prop_assert_eq!(&q.rows[1][0], &v);
        // The bound value also round-trips through a WHERE comparison.
        if !v.is_null() {
            let hits = db
                .query("SELECT count(*) FROM t WHERE v = $1", std::slice::from_ref(&v))
                .unwrap();
            prop_assert_eq!(hits.rows[0][0].clone(), Value::Int(2));
        }
    }
}

// ---------------------------------------------------------------------------
// Error paths of the prepare/bind surface.
// ---------------------------------------------------------------------------

#[test]
fn out_of_range_and_malformed_parameters_error() {
    let db = Database::new();
    // $0 is rejected at parse time (PostgreSQL numbers parameters from 1).
    let err = db.prepare("SELECT $0").unwrap_err().to_string();
    assert!(err.contains("$0"), "{err}");
    // A bare `$` is a lex error.
    assert!(db.prepare("SELECT $").is_err());
    // Highest referenced parameter determines the requirement; supplying
    // fewer binds than $n requires is an execution error naming the counts.
    let stmt = db.prepare("SELECT $2").unwrap();
    assert_eq!(stmt.n_params(), 2);
    let err = stmt.query(&[Value::Int(1)]).unwrap_err().to_string();
    assert!(
        err.contains("supplies 1 parameters") && err.contains("requires 2"),
        "{err}"
    );
    // Extra binds are rejected too.
    let stmt = db.prepare("SELECT $1").unwrap();
    let err = stmt
        .query(&[Value::Int(1), Value::Int(2)])
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("supplies 2 parameters") && err.contains("requires 1"),
        "{err}"
    );
    // Preparing invalid SQL fails up front, before any execution.
    assert!(db.prepare("SELECT FROM WHERE").is_err());
}

// ---------------------------------------------------------------------------
// Access-path equivalence: the planner's choice must never change results.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Index-backed scans return byte-identical rows to sequential scans
    /// over random data and predicates — while a concurrent MVCC writer
    /// churns out-of-range rows, forcing live index maintenance and
    /// version-position renumbering under the probes. The noise rows can
    /// never match the predicates, so both plans must agree exactly even
    /// though each statement runs under its own snapshot.
    #[test]
    fn index_scan_matches_seq_scan_under_concurrent_writes(
        keys in proptest::collection::vec(-50i64..50, 1..80),
        lo in -60i64..60,
        width in 0i64..40,
    ) {
        let db = Database::new();
        db.execute("CREATE TABLE t (k int, v int)").unwrap();
        let ins = db.prepare("INSERT INTO t VALUES ($1, $2)").unwrap();
        for (i, k) in keys.iter().enumerate() {
            ins.query(&[Value::Int(*k), Value::Int(i as i64)]).unwrap();
        }
        db.execute("CREATE INDEX t_k ON t (k)").unwrap();
        db.execute("ANALYZE t").unwrap();
        let hi = lo + width;
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let db = &db;
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    db.execute("INSERT INTO t VALUES (1000, -1)").unwrap();
                    db.execute("DELETE FROM t WHERE k = 1000").unwrap();
                }
            });
            for pred in [
                format!("k = {lo}"),
                format!("k > {lo} AND k <= {hi}"),
                format!("k <= {lo}"),
            ] {
                let sql = format!("SELECT k, v FROM t WHERE {pred} ORDER BY v");
                db.set_index_access_enabled(true);
                let with_index = db.execute(&sql).unwrap();
                db.set_index_access_enabled(false);
                let seq = db.execute(&sql).unwrap();
                prop_assert_eq!(with_index.rows, seq.rows, "{sql}");
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
    }
}

// ---------------------------------------------------------------------------
// Vectorized vs scalar equivalence
// ---------------------------------------------------------------------------

/// An optional grouping key, biased toward NULLs and heavy ties.
fn arb_key() -> BoxedStrategy<Option<i64>> {
    prop_oneof![Just(None), (-3i64..3).prop_map(Some)].boxed()
}

/// An optional float biased toward the vectorization hazards: NULLs,
/// the `-0.0` / `0.0` canonicalization pair, negatives (NaN sort keys
/// through `sqrt`), and heavy ties.
fn arb_fval() -> BoxedStrategy<Option<f64>> {
    prop_oneof![
        Just(None),
        Just(Some(-0.0)),
        Just(Some(0.0)),
        (-3i64..3).prop_map(|i| Some(i as f64 * 0.5)),
        (-1e6f64..1e6).prop_map(Some),
    ]
    .boxed()
}

/// Create `t (k int, v float)` and load the generated rows.
fn load_kv(db: &Database, rows: &[(Option<i64>, Option<f64>)]) {
    db.execute("CREATE TABLE t (k int, v float)").unwrap();
    let ins = db.prepare("INSERT INTO t VALUES ($1, $2)").unwrap();
    for (k, v) in rows {
        ins.query(&[
            k.map(Value::Int).unwrap_or(Value::Null),
            v.map(Value::Float).unwrap_or(Value::Null),
        ])
        .unwrap();
    }
}

/// One row of `g (k int, s text, b bool, ts timestamp, v float)`.
type GRow = (
    Option<i64>,
    Option<&'static str>,
    Option<bool>,
    Option<i64>,
    Option<f64>,
);

/// A row of `g`: few distinct keys per column, NULLs in every column,
/// and floats that include the `-0.0` / `0.0` pair and NaN.
fn arb_grow() -> BoxedStrategy<GRow> {
    let s = prop_oneof![
        Just(None),
        Just(Some("a")),
        Just(Some("b")),
        Just(Some("hp_1")),
        Just(Some("")),
    ];
    let b = prop_oneof![Just(None), Just(Some(true)), Just(Some(false))];
    // 2015-02-01 00:00 UTC plus up to four days of hours; 4% NULL.
    let ts = (0i64..100).prop_map(|h| (h < 96).then_some(1_422_748_800 + 3600 * h));
    let v = prop_oneof![
        Just(None),
        Just(Some(-0.0)),
        Just(Some(0.0)),
        Just(Some(f64::NAN)),
        (-3i64..3).prop_map(|i| Some(i as f64 * 0.5)),
        (-1e6f64..1e6).prop_map(Some),
    ];
    (arb_key(), s, b, ts, v).boxed()
}

/// Create `g` and load the rows with `insert_rows`.
fn load_g(db: &Database, rows: &[GRow]) {
    db.execute("CREATE TABLE g (k int, s text, b bool, ts timestamp, v float)")
        .unwrap();
    let rows = rows
        .iter()
        .map(|&(k, s, b, ts, v)| {
            vec![
                k.map(Value::Int).unwrap_or(Value::Null),
                s.map(|s| Value::Text(s.into())).unwrap_or(Value::Null),
                b.map(Value::Bool).unwrap_or(Value::Null),
                ts.map(Value::Timestamp).unwrap_or(Value::Null),
                v.map(Value::Float).unwrap_or(Value::Null),
            ]
        })
        .collect();
    db.insert_rows("g", rows).unwrap();
}

/// Run `sql` with the vectorized toggle on, then off, and return both
/// outcomes (rows, or the error message) for comparison.
#[allow(clippy::type_complexity)]
fn sweep_vectorized(
    db: &Database,
    sql: &str,
) -> (
    Result<Vec<Vec<Value>>, String>,
    Result<Vec<Vec<Value>>, String>,
) {
    db.set_vectorized_enabled(true);
    let vectorized = db.execute(sql).map(|q| q.rows).map_err(|e| e.to_string());
    db.set_vectorized_enabled(false);
    let scalar = db.execute(sql).map(|q| q.rows).map_err(|e| e.to_string());
    db.set_vectorized_enabled(true);
    (vectorized, scalar)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Grouped aggregation on the columnar batch path is byte-identical
    /// to the scalar sweep: NULL keys group, `-0.0`/`0.0` share a
    /// bucket, groups come out in first-seen order, and every aggregate
    /// kind folds to the same values.
    #[test]
    fn vectorized_grouped_aggregates_match_scalar(
        rows in proptest::collection::vec((arb_key(), arb_fval()), 0..60),
        threshold in -5i64..5,
    ) {
        let db = Database::new();
        load_kv(&db, &rows);
        for sql in [
            "SELECT k, count(*), count(v), sum(v), avg(v), min(v), max(v) \
             FROM t GROUP BY k"
                .to_string(),
            // Float grouping keys: the -0.0 canonicalization bucket.
            "SELECT v, count(*) FROM t GROUP BY v".to_string(),
            // Expression keys through an intrinsic, ordered emission.
            "SELECT abs(k), sum(v) FROM t GROUP BY abs(k) ORDER BY 1".to_string(),
            // Filtered + HAVING (HAVING runs in scalar emission on both paths).
            format!(
                "SELECT k, sum(v) FROM t WHERE k > {threshold} \
                 GROUP BY k HAVING count(*) >= 2"
            ),
            // Ungrouped aggregates: one group even over empty input.
            "SELECT count(DISTINCT k), min(v), count(*) FROM t".to_string(),
        ] {
            let (vectorized, scalar) = sweep_vectorized(&db, &sql);
            prop_assert_eq!(&vectorized, &scalar, "statement: {}", sql);
        }
        // The sweeps above really exercised the batch path.
        let filled = db.stat(Stat::BatchesFilled);
        let ops = db.stat(Stat::VectorizedOps);
        prop_assert!(filled >= 1, "no batch was filled");
        prop_assert!(ops >= 1, "no vectorized operator ran");
    }

    /// Multi-key grouping, per-group `count(DISTINCT …)` and the stored
    /// simulation rollup's key shape on the batch path match the scalar
    /// sweep bit for bit (`-0.0` and NaN included, hence the `Debug`
    /// comparison) and in first-seen group order. The table crosses the
    /// batch fill's chunk size, and sorted loads give the keys long runs.
    #[test]
    fn vectorized_multi_key_grouping_matches_scalar(
        mut rows in proptest::collection::vec(arb_grow(), 0..2600),
        order in 0u8..3,
    ) {
        match order {
            1 => rows.sort_by_key(|r| (r.0, r.1, r.2)),
            2 => rows.sort_by_key(|r| (r.1, r.3)),
            _ => {}
        }
        let db = Database::new();
        load_g(&db, &rows);
        let statements = [
            "SELECT k, s, count(*), count(v), sum(v), min(ts), max(s) FROM g GROUP BY k, s",
            "SELECT b, k, v, count(*), avg(v) FROM g GROUP BY b, k, v",
            "SELECT s, floor(extract_epoch(ts) / 86400.0)::int AS day, \
             count(*) AS n, avg(v) AS mean FROM g GROUP BY 1, 2",
            "SELECT v, count(*) FROM g GROUP BY v",
            "SELECT k, count(DISTINCT v), count(DISTINCT s) FROM g GROUP BY k",
            "SELECT s, b, count(DISTINCT v), count(DISTINCT ts) FROM g GROUP BY s, b",
            "SELECT count(DISTINCT v), count(DISTINCT b) FROM g",
        ];
        let ops_before = db.stat(Stat::VectorizedOps);
        for sql in statements {
            let (vectorized, scalar) = sweep_vectorized(&db, sql);
            prop_assert!(vectorized.is_ok(), "statement: {} -> {:?}", sql, vectorized);
            prop_assert_eq!(
                format!("{vectorized:?}"),
                format!("{scalar:?}"),
                "statement: {}",
                sql
            );
        }
        // Every statement ran on the batch path, none fell back.
        let ops = db.stat(Stat::VectorizedOps);
        let fallbacks = db.stat(Stat::VectorizedFallbacks);
        prop_assert_eq!(ops - ops_before, statements.len() as u64);
        prop_assert_eq!(fallbacks, 0);
    }

    /// Ordered / LIMIT SELECTs on the batch path (single-key index sort
    /// and the bounded top-K heap) match the scalar sort exactly —
    /// including tie order, NULL placement, NaN sort keys (via `sqrt`
    /// of negatives), and the DISTINCT shapes that must fall back.
    #[test]
    fn vectorized_ordered_limit_matches_scalar(
        rows in proptest::collection::vec((arb_key(), arb_fval()), 0..60),
        limit in 0usize..70,
    ) {
        let db = Database::new();
        load_kv(&db, &rows);
        for sql in [
            format!("SELECT k, v FROM t ORDER BY v LIMIT {limit}"),
            format!("SELECT k, v FROM t ORDER BY v DESC LIMIT {limit}"),
            format!("SELECT v FROM t ORDER BY k LIMIT {limit}"),
            format!("SELECT k, v FROM t ORDER BY v + 0.5 DESC LIMIT {limit}"),
            format!("SELECT k, v FROM t ORDER BY sqrt(v) LIMIT {limit}"),
            format!("SELECT DISTINCT k FROM t ORDER BY k LIMIT {limit}"),
            "SELECT k, v FROM t ORDER BY v".to_string(),
        ] {
            let (vectorized, scalar) = sweep_vectorized(&db, &sql);
            prop_assert_eq!(&vectorized, &scalar, "statement: {}", sql);
        }
        let filled = db.stat(Stat::BatchesFilled);
        let ops = db.stat(Stat::VectorizedOps);
        prop_assert!(filled >= 1, "no batch was filled");
        prop_assert!(ops >= 1, "no vectorized operator ran");
    }

    /// A re-entrant UDF anywhere in the scan program keeps the
    /// statement off the batch path entirely (it is not even a run-time
    /// fallback: plan classification already refuses it), and results
    /// still match with the toggle swept both ways.
    #[test]
    fn reentrant_udf_keeps_the_scalar_path(
        rows in proptest::collection::vec((arb_key(), arb_fval()), 0..40),
        threshold in -3i64..3,
    ) {
        let db = Database::new();
        load_kv(&db, &rows);
        db.register_scalar("opaque", |_db, args| Ok(args[0].clone()));
        for sql in [
            format!("SELECT k, count(*) FROM t WHERE opaque(k) > {threshold} GROUP BY k"),
            format!("SELECT k, v FROM t WHERE opaque(k) > {threshold} ORDER BY v LIMIT 5"),
        ] {
            let (vectorized, scalar) = sweep_vectorized(&db, &sql);
            prop_assert_eq!(&vectorized, &scalar, "statement: {}", sql);
        }
        let filled = db.stat(Stat::BatchesFilled);
        let ops = db.stat(Stat::VectorizedOps);
        let fallbacks = db.stat(Stat::VectorizedFallbacks);
        prop_assert_eq!((filled, ops, fallbacks), (0, 0, 0));
    }
}
