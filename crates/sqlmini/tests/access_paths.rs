//! Tier-2 tests for the access-path subsystem: secondary indexes and
//! their transactional maintenance, ANALYZE-driven planner statistics,
//! the cost model's scan and join choices, `EXPLAIN` output, hash
//! equi-joins, `count(DISTINCT …)` and unique-constraint enforcement.

use pgfmu_sqlmini::{Database, Stat, Value};

/// Render `EXPLAIN <sql>` as one newline-joined string.
fn plan_of(db: &Database, sql: &str) -> String {
    let q = db.execute(&format!("EXPLAIN {sql}")).unwrap();
    assert_eq!(q.columns, vec!["query plan"]);
    q.rows
        .iter()
        .map(|r| match &r[0] {
            Value::Text(s) => s.as_str(),
            other => panic!("non-text plan row {other:?}"),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// A table big enough that the cost model prefers a point probe, with
/// an index on `k` and fresh statistics.
fn indexed_db(rows: i64) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE t (k int, v text)").unwrap();
    let insert = db.prepare("INSERT INTO t VALUES ($1, $2)").unwrap();
    for i in 0..rows {
        insert
            .query(&[Value::Int(i), Value::Text(format!("r{i}"))])
            .unwrap();
    }
    db.execute("CREATE INDEX t_k ON t (k)").unwrap();
    db.execute("ANALYZE t").unwrap();
    db
}

// --- scan choice and EXPLAIN -----------------------------------------------

#[test]
fn explain_shows_function_scans() {
    let db = Database::new();
    db.execute("CREATE TABLE t (x int)").unwrap();
    // Filter lines may qualify column names by their FROM item; only the
    // names are pinned.
    let unqualified = |line: &str| line.replace("generate_series.", "").replace("t.", "");
    let plan = plan_of(&db, "SELECT * FROM generate_series(1, 10) AS g WHERE g > 3");
    let lines: Vec<&str> = plan.lines().collect();
    assert_eq!(lines.len(), 2, "{plan}");
    assert_eq!(lines[0], "FunctionScan on generate_series");
    assert_eq!(unqualified(lines[1]), "  Filter: (g > 3)", "{plan}");
    let plan = plan_of(
        &db,
        "SELECT x, g FROM t, generate_series(1, t.x) AS g WHERE g > x",
    );
    let lines: Vec<&str> = plan.lines().collect();
    assert_eq!(lines.len(), 4, "{plan}");
    assert_eq!(lines[0], "NestedLoop");
    assert_eq!(unqualified(lines[1]), "  Filter: (g > x)", "{plan}");
    assert_eq!(lines[2], "  ->  SeqScan on t");
    assert_eq!(lines[3], "  ->  FunctionScan on generate_series");
}

#[test]
fn point_lookup_takes_the_index_and_matches_seq_scan() {
    let db = indexed_db(2000);
    let plan = plan_of(&db, "SELECT v FROM t WHERE k = 1234");
    assert!(plan.contains("IndexScan using t_k on t"), "{plan}");
    assert!(plan.contains("Index Cond: (k = 1234)"), "{plan}");

    let ix_before = db.stat(Stat::IndexScans);
    let via_index: Vec<String> = db.query_as("SELECT v FROM t WHERE k = 1234", &[]).unwrap();
    let ix_after = db.stat(Stat::IndexScans);
    assert_eq!(
        ix_after,
        ix_before + 1,
        "the probe must take the index path"
    );

    db.set_index_access_enabled(false);
    assert!(
        plan_of(&db, "SELECT v FROM t WHERE k = 1234").contains("SeqScan on t"),
        "disabled index access must fall back to a sequential scan"
    );
    let seq_before = db.stat(Stat::SeqScans);
    let via_seq: Vec<String> = db.query_as("SELECT v FROM t WHERE k = 1234", &[]).unwrap();
    let seq_after = db.stat(Stat::SeqScans);
    assert_eq!(seq_after, seq_before + 1);
    assert_eq!(via_index, via_seq);
    assert_eq!(via_index, vec!["r1234".to_string()]);
}

#[test]
fn range_scan_takes_the_index_and_matches_seq_scan() {
    let db = indexed_db(2000);
    let sql = "SELECT k FROM t WHERE k > 100 AND k <= 110 ORDER BY k";
    let plan = plan_of(&db, sql);
    assert!(plan.contains("IndexScan using t_k on t"), "{plan}");
    assert!(
        plan.contains("Index Cond: (k > 100) AND (k <= 110)"),
        "{plan}"
    );
    let with_index: Vec<i64> = db.query_as(sql, &[]).unwrap();
    db.set_index_access_enabled(false);
    let seq: Vec<i64> = db.query_as(sql, &[]).unwrap();
    assert_eq!(with_index, seq);
    assert_eq!(with_index, (101..=110).collect::<Vec<_>>());
}

#[test]
fn unselective_or_unindexed_predicates_stay_sequential() {
    let db = indexed_db(100);
    // Covers most of the table: cheaper to scan.
    assert!(plan_of(&db, "SELECT k FROM t WHERE k >= 0").contains("SeqScan on t"));
    // Not sargable: arithmetic on the column.
    assert!(plan_of(&db, "SELECT k FROM t WHERE k + 1 = 5").contains("SeqScan on t"));
    // No predicate at all.
    assert!(plan_of(&db, "SELECT k FROM t").contains("SeqScan on t"));
}

#[test]
fn explain_covers_every_statement_kind() {
    let db = indexed_db(10);
    assert!(plan_of(&db, "INSERT INTO t VALUES (99, 'x')").starts_with("Insert on t"));
    assert!(plan_of(&db, "UPDATE t SET v = 'y' WHERE k = 1").starts_with("Update on t"));
    assert!(plan_of(&db, "DELETE FROM t WHERE k = 1").starts_with("Delete on t"));
    // EXPLAIN itself must not execute the statement.
    let n: Vec<i64> = db.query_as("SELECT count(*) FROM t", &[]).unwrap();
    assert_eq!(n, vec![10]);
}

#[test]
fn update_and_delete_take_the_index_access_path() {
    let db = indexed_db(2000);
    assert_eq!(
        plan_of(&db, "UPDATE t SET v = 'y' WHERE k = 1234"),
        "Update on t\n  ->  IndexScan using t_k on t\n        Index Cond: (k = 1234)\n        \
         Filter: (k = 1234)"
    );
    let range = "DELETE FROM t WHERE k > 100 AND k <= 110";
    let plan = plan_of(&db, range);
    assert!(
        plan.starts_with("Delete on t\n  ->  IndexScan using t_k on t"),
        "{plan}"
    );
    assert!(
        plan.contains("Index Cond: (k > 100) AND (k <= 110)"),
        "{plan}"
    );
    let [ix0, seq0] = [Stat::IndexScans, Stat::SeqScans].map(|s| db.stat(s));
    let n = db.execute("UPDATE t SET v = 'y' WHERE k = 1234").unwrap();
    assert_eq!(n.rows[0][0], Value::Int(1));
    assert_eq!(db.stat(Stat::IndexScans), ix0 + 1, "the UPDATE probes t_k");
    // With the access path off, DML plans and runs the sequential scan.
    db.set_index_access_enabled(false);
    for sql in ["UPDATE t SET v = 'y' WHERE k = 1234", range] {
        let plan = plan_of(&db, sql);
        assert!(plan.contains("  ->  SeqScan on t"), "{plan}");
        assert!(!plan.contains("IndexScan"), "{plan}");
    }
    let n = db.execute(range).unwrap();
    assert_eq!(n.rows[0][0], Value::Int(10));
    assert_eq!(
        db.stat(Stat::SeqScans),
        seq0 + 1,
        "the DELETE walks the heap"
    );
    let left: Vec<i64> = db
        .query_as("SELECT count(*) FROM t WHERE k > 100 AND k <= 110", &[])
        .unwrap();
    assert_eq!(left, vec![0]);
}

/// The ingest workload's retention shape: one transaction appends the
/// newest hour and deletes the oldest through `ts < $1`. The DELETE
/// probes the time index instead of walking the whole table.
#[test]
fn retention_delete_in_a_transaction_probes_the_time_index() {
    const SENSORS: i64 = 100;
    const HOURS: i64 = 100;
    let db = Database::new();
    db.execute("CREATE TABLE readings (sensor int, ts timestamp, value float)")
        .unwrap();
    let rows = (0..HOURS)
        .flat_map(|h| {
            (0..SENSORS).map(move |s| {
                vec![
                    Value::Int(s),
                    Value::Timestamp(h * 3600),
                    Value::Float(s as f64),
                ]
            })
        })
        .collect();
    db.insert_rows("readings", rows).unwrap();
    db.execute("CREATE INDEX readings_ts ON readings (ts)")
        .unwrap();
    db.execute("ANALYZE readings").unwrap();
    let [ix0, scanned0] = [Stat::IndexScans, Stat::RowsScanned].map(|s| db.stat(s));
    db.execute("BEGIN").unwrap();
    let insert = db
        .prepare("INSERT INTO readings VALUES ($1, $2, $3)")
        .unwrap();
    for s in 0..SENSORS {
        insert
            .query(&[
                Value::Int(s),
                Value::Timestamp(HOURS * 3600),
                Value::Float(0.0),
            ])
            .unwrap();
    }
    let deleted = db
        .query(
            "DELETE FROM readings WHERE ts < $1",
            &[Value::Timestamp(3600)],
        )
        .unwrap();
    db.execute("COMMIT").unwrap();
    assert_eq!(deleted.rows[0][0], Value::Int(SENSORS));
    assert_eq!(db.stat(Stat::IndexScans), ix0 + 1);
    let scanned = db.stat(Stat::RowsScanned) - scanned0;
    assert!(
        scanned < (SENSORS * HOURS / 10) as u64,
        "the retention DELETE examined {scanned} rows"
    );
    let n: Vec<i64> = db.query_as("SELECT count(*) FROM readings", &[]).unwrap();
    assert_eq!(n, vec![SENSORS * HOURS]);
}

#[test]
fn index_probe_works_through_bind_parameters() {
    let db = indexed_db(2000);
    let stmt = db.prepare("SELECT v FROM t WHERE k = $1").unwrap();
    let ix_before = db.stat(Stat::IndexScans);
    let q = stmt.query(&[Value::Int(42)]).unwrap();
    assert_eq!(q.rows[0][0], Value::Text("r42".into()));
    let q = stmt.query(&[Value::Int(7)]).unwrap();
    assert_eq!(q.rows[0][0], Value::Text("r7".into()));
    let ix_after = db.stat(Stat::IndexScans);
    assert_eq!(ix_after, ix_before + 2, "both executions probe the index");
}

// --- joins -----------------------------------------------------------------

fn join_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE big (k int, v text)").unwrap();
    db.execute("CREATE TABLE small (k int, w float)").unwrap();
    let ins = db.prepare("INSERT INTO big VALUES ($1, $2)").unwrap();
    for i in 0..200 {
        ins.query(&[Value::Int(i), Value::Text(format!("b{i}"))])
            .unwrap();
    }
    let ins = db.prepare("INSERT INTO small VALUES ($1, $2)").unwrap();
    for i in 0..40 {
        ins.query(&[Value::Int(i * 3), Value::Float(i as f64)])
            .unwrap();
    }
    db
}

#[test]
fn equi_join_hashes_and_matches_nested_loop() {
    let db = join_db();
    let sql = "SELECT big.v, small.w FROM big JOIN small ON big.k = small.k \
               WHERE small.w < 30.0 ORDER BY small.w";
    let plan = plan_of(&db, sql);
    assert!(plan.contains("HashJoin"), "{plan}");
    assert!(plan.contains("Hash Cond: (big.k = small.k)"), "{plan}");
    let hj_before = db.stat(Stat::HashJoins);
    let hashed: Vec<(String, f64)> = db.query_as(sql, &[]).unwrap();
    let hj_after = db.stat(Stat::HashJoins);
    assert_eq!(hj_after, hj_before + 1);
    db.set_hash_join_enabled(false);
    assert!(!plan_of(&db, sql).contains("HashJoin"));
    let nested: Vec<(String, f64)> = db.query_as(sql, &[]).unwrap();
    assert_eq!(hashed, nested);
    assert_eq!(hashed.len(), 30);
    assert_eq!(hashed[1], ("b3".into(), 1.0));
}

#[test]
fn join_on_is_sugar_for_comma_join_plus_where() {
    let db = join_db();
    let on: Vec<(i64, f64)> = db
        .query_as(
            "SELECT big.k, small.w FROM big JOIN small ON big.k = small.k ORDER BY big.k",
            &[],
        )
        .unwrap();
    let comma: Vec<(i64, f64)> = db
        .query_as(
            "SELECT big.k, small.w FROM big, small WHERE big.k = small.k ORDER BY big.k",
            &[],
        )
        .unwrap();
    assert_eq!(on, comma);
    assert_eq!(on.len(), 40);
}

#[test]
fn hash_join_skips_null_keys_like_nested_loop() {
    let db = Database::new();
    db.execute("CREATE TABLE a (k int)").unwrap();
    db.execute("CREATE TABLE b (k int)").unwrap();
    // Enough rows that the cost model picks the hash join.
    for i in 0..30 {
        db.execute(&format!("INSERT INTO a VALUES ({i}), (NULL)"))
            .unwrap();
        db.execute(&format!("INSERT INTO b VALUES ({i}), (NULL)"))
            .unwrap();
    }
    let sql = "SELECT count(*) FROM a JOIN b ON a.k = b.k";
    assert!(plan_of(&db, sql).contains("HashJoin"));
    let n: Vec<i64> = db.query_as(sql, &[]).unwrap();
    assert_eq!(n, vec![30], "NULL = NULL matches nothing");
}

#[test]
fn mixed_type_join_keys_fall_back_to_nested_loop() {
    let db = Database::new();
    db.execute("CREATE TABLE a (k int)").unwrap();
    db.execute("CREATE TABLE b (k float)").unwrap();
    for i in 0..30 {
        db.execute(&format!("INSERT INTO a VALUES ({i})")).unwrap();
        db.execute(&format!("INSERT INTO b VALUES ({i}.0)"))
            .unwrap();
    }
    // int-vs-float keys compare numerically; hashing would need a
    // cross-type key, so the planner keeps the nested loop.
    let sql = "SELECT count(*) FROM a JOIN b ON a.k = b.k";
    assert!(!plan_of(&db, sql).contains("HashJoin"));
    let n: Vec<i64> = db.query_as(sql, &[]).unwrap();
    assert_eq!(n, vec![30]);
}

// --- count(DISTINCT …) -----------------------------------------------------

#[test]
fn count_distinct_ungrouped_and_grouped() {
    let db = Database::new();
    db.execute("CREATE TABLE r (site text, day int)").unwrap();
    db.execute("INSERT INTO r VALUES ('a', 1), ('a', 1), ('a', 2), ('b', 1), ('b', 1), (NULL, 9)")
        .unwrap();
    // NULLs don't count; duplicates collapse.
    let q = db
        .execute("SELECT count(DISTINCT site), count(site), count(*) FROM r")
        .unwrap();
    assert_eq!(q.rows[0], vec![Value::Int(2), Value::Int(5), Value::Int(6)]);
    // Per group.
    let q = db
        .execute(
            "SELECT site, count(DISTINCT day) FROM r WHERE site IS NOT NULL \
             GROUP BY site ORDER BY site",
        )
        .unwrap();
    assert_eq!(q.rows[0], vec![Value::Text("a".into()), Value::Int(2)]);
    assert_eq!(q.rows[1], vec![Value::Text("b".into()), Value::Int(1)]);
    // count(DISTINCT *) is not a thing; DISTINCT needs an argument list.
    assert!(db.execute("SELECT count(DISTINCT *) FROM r").is_err());
    // DISTINCT inside a non-aggregate call is rejected.
    let err = db
        .execute("SELECT abs(DISTINCT day) FROM r")
        .unwrap_err()
        .to_string();
    assert!(err.contains("is not an aggregate function"), "{err}");
}

// --- unique constraints ----------------------------------------------------

#[test]
fn unique_index_rejects_duplicates_with_postgres_wording() {
    let db = Database::new();
    db.execute("CREATE TABLE t (k int, v text)").unwrap();
    db.execute("CREATE UNIQUE INDEX t_k ON t (k)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        .unwrap();
    let err = db
        .execute("INSERT INTO t VALUES (2, 'dup')")
        .unwrap_err()
        .to_string();
    assert_eq!(
        err,
        "constraint violation: duplicate key value violates unique constraint \"t_k\""
    );
    // A multi-row insert with an internal duplicate is rejected whole.
    assert!(db
        .execute("INSERT INTO t VALUES (3, 'c'), (3, 'd')")
        .is_err());
    let n: Vec<i64> = db.query_as("SELECT count(*) FROM t", &[]).unwrap();
    assert_eq!(n, vec![2], "failed inserts leave no partial rows");
    // UPDATE onto an existing key is a violation; re-asserting a row's
    // own key is not (the superseded version doesn't conflict).
    assert!(db.execute("UPDATE t SET k = 1 WHERE k = 2").is_err());
    db.execute("UPDATE t SET v = 'a2' WHERE k = 1").unwrap();
    // NULLs never conflict, as in PostgreSQL.
    db.execute("INSERT INTO t VALUES (NULL, 'n1'), (NULL, 'n2')")
        .unwrap();
}

#[test]
fn create_unique_index_fails_on_existing_duplicates() {
    let db = Database::new();
    db.execute("CREATE TABLE t (k int)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (1)").unwrap();
    let err = db
        .execute("CREATE UNIQUE INDEX t_k ON t (k)")
        .unwrap_err()
        .to_string();
    assert!(err.contains("duplicate key value"), "{err}");
    // The failed build leaves no index behind.
    assert!(db.execute("DROP INDEX t_k").is_err());
    // A plain (non-unique) index over the same data is fine.
    db.execute("CREATE INDEX t_k ON t (k)").unwrap();
}

#[test]
fn unique_check_applies_to_insert_select() {
    let db = Database::new();
    db.execute("CREATE TABLE src (k int)").unwrap();
    db.execute("INSERT INTO src VALUES (1), (2), (2)").unwrap();
    db.execute("CREATE TABLE dst (k int)").unwrap();
    db.execute("CREATE UNIQUE INDEX dst_k ON dst (k)").unwrap();
    let err = db
        .execute("INSERT INTO dst SELECT k FROM src")
        .unwrap_err()
        .to_string();
    assert!(err.contains("duplicate key value"), "{err}");
    let n: Vec<i64> = db.query_as("SELECT count(*) FROM dst", &[]).unwrap();
    assert_eq!(n, vec![0], "the statement aborts as a unit");
}

#[test]
fn unique_check_applies_to_insert_select_from_a_table_function() {
    // A function-scan source (a table function in FROM) yields a duplicate
    // within the statement's own rows: integer division maps 2 and 3
    // onto the same key.
    let db = Database::new();
    db.execute("CREATE TABLE dst (k int)").unwrap();
    db.execute("CREATE UNIQUE INDEX dst_k ON dst (k)").unwrap();
    let err = db
        .execute("INSERT INTO dst SELECT g / 2 FROM generate_series(1, 3) AS g")
        .unwrap_err()
        .to_string();
    assert!(err.contains("duplicate key value"), "{err}");
    let n: Vec<i64> = db.query_as("SELECT count(*) FROM dst", &[]).unwrap();
    assert_eq!(n, vec![0], "the statement aborts as a unit");
}

#[test]
fn unique_check_applies_to_insert_rows_at_any_shard_count() {
    for shards in [1, 8] {
        let db = Database::with_table_shards(shards);
        db.execute("CREATE TABLE t (k int)").unwrap();
        db.execute("CREATE UNIQUE INDEX t_k ON t (k)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        let err = db
            .insert_rows("t", vec![vec![Value::Int(1)]])
            .unwrap_err()
            .to_string();
        assert_eq!(
            err, "constraint violation: duplicate key value violates unique constraint \"t_k\"",
            "S={shards}"
        );
        // A duplicate inside the batch is rejected whole, too.
        assert!(db
            .insert_rows("t", vec![vec![Value::Int(2)], vec![Value::Int(2)]])
            .is_err());
        let n: Vec<i64> = db.query_as("SELECT count(*) FROM t", &[]).unwrap();
        assert_eq!(n, vec![1], "S={shards}: failed batches leave no rows");
        assert_eq!(db.insert_rows("t", vec![vec![Value::Int(2)]]).unwrap(), 1);
    }
}

// --- index maintenance under DML -------------------------------------------

/// UPDATE and DELETE keep index entries consistent: an UPDATE that
/// moves an indexed key appends its successor under the new key, a
/// DELETE ends versions, and compaction renumbers positions — later
/// probes must still land on exactly the right rows.
#[test]
fn in_place_update_and_delete_keep_the_index_consistent() {
    let db = indexed_db(2000);
    // The UPDATE finds its target through the same index probe.
    db.execute("UPDATE t SET k = 5000 WHERE k = 77").unwrap();
    let hits = |k: i64| -> Vec<String> {
        let ix_before = db.stat(Stat::IndexScans);
        let r = db
            .query_as(&format!("SELECT v FROM t WHERE k = {k}"), &[])
            .unwrap();
        let ix_after = db.stat(Stat::IndexScans);
        assert_eq!(ix_after, ix_before + 1, "lookup must use the index");
        r
    };
    assert_eq!(hits(77), Vec::<String>::new(), "old key must be unindexed");
    assert_eq!(hits(5000), vec!["r77".to_string()]);
    // DELETE ends versions (and the write-path GC may compact them);
    // probes for the surviving keys must still land on the right rows.
    db.execute("DELETE FROM t WHERE k = 100").unwrap();
    assert_eq!(hits(100), Vec::<String>::new());
    assert_eq!(hits(101), vec!["r101".to_string()]);
    assert_eq!(hits(1999), vec!["r1999".to_string()]);
    // Compaction rebuilds the index; correctness must survive a vacuum.
    db.vacuum();
    assert_eq!(hits(5000), vec!["r77".to_string()]);
    assert_eq!(hits(101), vec!["r101".to_string()]);
}

#[test]
fn index_scans_respect_mvcc_snapshots_mid_stream() {
    let db = indexed_db(2000);
    // Open a streaming cursor whose plan probes the index…
    let mut rows = db
        .query_rows("SELECT v FROM t WHERE k > 1990", &[])
        .unwrap();
    let first = rows.next().unwrap().unwrap();
    assert_eq!(first[0], Value::Text("r1991".into()));
    // …then commit matching rows behind its back: the open snapshot
    // must not see them.
    db.execute("INSERT INTO t VALUES (1995, 'late')").unwrap();
    let rest: Vec<String> = rows.map(|r| r.unwrap()[0].to_string()).collect();
    assert_eq!(rest.len(), 8, "snapshot excludes the late insert");
    // A fresh scan sees the new row alongside the original.
    let n: Vec<i64> = db
        .query_as("SELECT count(*) FROM t WHERE k = 1995", &[])
        .unwrap();
    assert_eq!(n, vec![2]);
}

// --- DDL, transactions and rollback ----------------------------------------

#[test]
fn create_and_drop_index_roll_back_with_the_transaction() {
    let db = indexed_db(2000);
    // DROP INDEX inside a rolled-back transaction comes back.
    db.execute("BEGIN").unwrap();
    db.execute("DROP INDEX t_k").unwrap();
    assert!(plan_of(&db, "SELECT v FROM t WHERE k = 7").contains("SeqScan"));
    db.execute("ROLLBACK").unwrap();
    let plan = plan_of(&db, "SELECT v FROM t WHERE k = 7");
    assert!(plan.contains("IndexScan using t_k"), "{plan}");
    // CREATE INDEX inside a rolled-back transaction disappears.
    db.execute("BEGIN").unwrap();
    db.execute("CREATE UNIQUE INDEX t_v ON t (v)").unwrap();
    assert!(plan_of(&db, "SELECT k FROM t WHERE v = 'r5'").contains("IndexScan using t_v"));
    db.execute("ROLLBACK").unwrap();
    assert!(plan_of(&db, "SELECT k FROM t WHERE v = 'r5'").contains("SeqScan"));
    assert!(db.execute("DROP INDEX t_v").is_err());
    // And a committed CREATE INDEX persists.
    db.execute("BEGIN").unwrap();
    db.execute("CREATE INDEX t_v ON t (v)").unwrap();
    db.execute("COMMIT").unwrap();
    db.execute("DROP INDEX t_v").unwrap();
}

#[test]
fn index_ddl_error_paths() {
    let db = Database::new();
    db.execute("CREATE TABLE t (k int, m variant)").unwrap();
    db.execute("CREATE INDEX t_k ON t (k)").unwrap();
    // Duplicate index name, even on another table.
    db.execute("CREATE TABLE u (k int)").unwrap();
    let err = db.execute("CREATE INDEX t_k ON u (k)").unwrap_err();
    assert_eq!(
        err.to_string(),
        "constraint violation: relation \"t_k\" already exists"
    );
    // Unknown table / unknown column / unindexable column type.
    assert!(db.execute("CREATE INDEX i ON nope (k)").is_err());
    assert!(db.execute("CREATE INDEX i ON t (nope)").is_err());
    let err = db.execute("CREATE INDEX i ON t (m)").unwrap_err();
    assert!(
        err.to_string()
            .contains("cannot create an index on variant"),
        "{err}"
    );
    // DROP of a missing index.
    let err = db.execute("DROP INDEX missing").unwrap_err();
    assert_eq!(
        err.to_string(),
        "execution error: index \"missing\" does not exist"
    );
}

// --- statistics ------------------------------------------------------------

#[test]
fn analyze_statement_and_srf_report_row_counts() {
    let db = Database::new();
    db.execute("CREATE TABLE a (k int)").unwrap();
    db.execute("CREATE TABLE b (k int)").unwrap();
    db.execute("INSERT INTO a VALUES (1), (2), (3)").unwrap();
    db.execute("ANALYZE a").unwrap();
    db.execute("ANALYZE").unwrap();
    assert!(db.execute("ANALYZE nope").is_err());
    let rows: Vec<(String, i64)> = db
        .query_as("SELECT * FROM pgfmu_analyze() ORDER BY 1", &[])
        .unwrap();
    assert_eq!(rows, vec![("a".into(), 3), ("b".into(), 0)]);
    let rows: Vec<(String, i64)> = db
        .query_as("SELECT * FROM pgfmu_analyze('a')", &[])
        .unwrap();
    assert_eq!(rows, vec![("a".into(), 3)]);
    let stats: Vec<i64> = db
        .query_as(
            "SELECT value FROM pgfmu_stats() WHERE stat = 'analyze_runs'",
            &[],
        )
        .unwrap();
    assert!(stats[0] >= 4, "explicit analyzes are counted: {}", stats[0]);
}

#[test]
fn stale_statistics_refresh_automatically() {
    let db = Database::new();
    db.execute("CREATE TABLE t (k int)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.execute("CREATE INDEX t_k ON t (k)").unwrap();
    // First plan over the indexed table collects stats without ANALYZE
    // ever running; the tiny table stays sequential.
    assert!(plan_of(&db, "SELECT k FROM t WHERE k = 1").contains("SeqScan"));
    let runs = db.stat(Stat::AnalyzeRuns);
    assert!(runs >= 1, "auto-collection must run: {runs}");
    // Grow the table far past the staleness threshold; replanning picks
    // up fresh counts and flips to the index without an explicit ANALYZE.
    let ins = db.prepare("INSERT INTO t VALUES ($1)").unwrap();
    for i in 2..=4000 {
        ins.query(&[Value::Int(i)]).unwrap();
    }
    let plan = plan_of(&db, "SELECT k FROM t WHERE k = 7");
    assert!(plan.contains("IndexScan using t_k"), "{plan}");
}

// --- vectorized batch execution --------------------------------------------

#[test]
fn explain_reports_the_vectorized_choice_and_top_k() {
    let db = Database::new();
    // Pin the toggle: CI sweeps PGFMU_VECTORIZED over the whole suite,
    // and this test asserts both sides of the choice explicitly.
    db.set_vectorized_enabled(true);
    db.execute("CREATE TABLE m (g int, x float)").unwrap();
    // Grouped aggregates and single-key ORDER BY ... LIMIT vectorize.
    let plan = plan_of(&db, "SELECT g, sum(x) FROM m GROUP BY g");
    assert!(plan.contains("Vectorized: true"), "{plan}");
    let plan = plan_of(&db, "SELECT x FROM m ORDER BY x DESC LIMIT 3");
    assert!(plan.contains("Vectorized: true"), "{plan}");
    assert!(plan.contains("Top-K (k=3)"), "{plan}");
    // A full sort is still vectorized, but there is no Top-K node.
    let plan = plan_of(&db, "SELECT x FROM m ORDER BY x");
    assert!(plan.contains("Vectorized: true"), "{plan}");
    assert!(!plan.contains("Top-K"), "{plan}");
    // Multi-key sorts and DISTINCT stay on the scalar path.
    let plan = plan_of(&db, "SELECT x FROM m ORDER BY g, x LIMIT 3");
    assert!(plan.contains("Vectorized: false"), "{plan}");
    assert!(!plan.contains("Top-K"), "{plan}");
    let plan = plan_of(&db, "SELECT DISTINCT g FROM m ORDER BY g");
    assert!(plan.contains("Vectorized: false"), "{plan}");
    // The session toggle re-plans everything scalar, and back.
    db.set_vectorized_enabled(false);
    let plan = plan_of(&db, "SELECT g, sum(x) FROM m GROUP BY g");
    assert!(plan.contains("Vectorized: false"), "{plan}");
    db.set_vectorized_enabled(true);
    let plan = plan_of(&db, "SELECT g, sum(x) FROM m GROUP BY g");
    assert!(plan.contains("Vectorized: true"), "{plan}");
}

#[test]
fn indexed_top_k_runs_on_the_batch_path() {
    let db = indexed_db(2000);
    // Pin the toggle: CI sweeps PGFMU_VECTORIZED over the whole suite.
    db.set_vectorized_enabled(true);
    let sql = "SELECT k, v FROM t WHERE k >= 400 AND k < 656 ORDER BY k DESC LIMIT 24";
    let plan = plan_of(&db, sql);
    let top_k = plan.find("Top-K (k=24)").expect(&plan);
    let scan = plan.find("IndexScan using t_k on t").expect(&plan);
    assert!(top_k < scan, "{plan}");
    assert!(plan.contains("Vectorized: true"), "{plan}");

    let counters = [
        Stat::IndexScans,
        Stat::BatchesFilled,
        Stat::VectorizedOps,
        Stat::VectorizedFallbacks,
    ];
    let before = counters.map(|s| db.stat(s));
    let rows: Vec<(i64, String)> = db.query_as(sql, &[]).unwrap();
    let after = counters.map(|s| db.stat(s));
    let deltas: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    assert_eq!(deltas, [1, 1, 1, 0], "{counters:?}");
    let expected: Vec<(i64, String)> = (632..656).rev().map(|k| (k, format!("r{k}"))).collect();
    assert_eq!(rows, expected);

    db.set_vectorized_enabled(false);
    db.set_index_access_enabled(false);
    let scalar_seq: Vec<(i64, String)> = db.query_as(sql, &[]).unwrap();
    assert_eq!(rows, scalar_seq);
}

#[test]
fn stored_simulation_rollup_runs_on_the_batch_path() {
    // A silent fallback would still match the scalar results, so pin the
    // path: the per-instance, per-day rollup over `fmu_simulate` output.
    let db = Database::new();
    db.set_vectorized_enabled(true);
    db.execute(
        "CREATE TABLE sim (simulationtime timestamp, instanceid text, varname text, value float)",
    )
    .unwrap();
    // 2015-02-01 00:00 UTC: 3 instances × 72 hours × 2 variables.
    const T0: i64 = 1_422_748_800;
    let mut rows = Vec::new();
    for inst in 0..3 {
        for h in 0..72i64 {
            for var in ["x", "y"] {
                rows.push(vec![
                    Value::Timestamp(T0 + 3600 * h),
                    Value::Text(format!("hp_{inst}")),
                    Value::Text(var.into()),
                    Value::Float(h as f64),
                ]);
            }
        }
    }
    db.insert_rows("sim", rows).unwrap();
    let rollup = "SELECT instanceid, floor(extract_epoch(simulationtime) / 86400.0)::int AS day, \
                  count(*) AS n, avg(value) AS mean FROM sim GROUP BY 1, 2";
    let plan = plan_of(&db, rollup);
    assert!(plan.contains("Vectorized: true"), "{plan}");
    let ops_before = db.stat(Stat::VectorizedOps);
    let q = db.execute(rollup).unwrap();
    let ops = db.stat(Stat::VectorizedOps);
    let fallbacks = db.stat(Stat::VectorizedFallbacks);
    assert!(
        ops > ops_before,
        "the rollup did not run a vectorized operator"
    );
    assert_eq!(fallbacks, 0);
    // First-seen group order: instance by instance, day by day.
    assert_eq!(q.rows.len(), 9);
    let day0 = T0 / 86400;
    assert_eq!(
        q.rows[0],
        vec![
            Value::Text("hp_0".into()),
            Value::Int(day0),
            Value::Int(48),
            Value::Float(11.5),
        ]
    );
    assert_eq!(
        q.rows[8][..3],
        [
            Value::Text("hp_2".into()),
            Value::Int(day0 + 2),
            Value::Int(48)
        ]
    );
}

#[test]
fn runtime_fallback_matches_scalar_errors_and_ticks_the_counter() {
    let db = Database::new();
    db.set_vectorized_enabled(true);
    db.execute("CREATE TABLE f (a int, b int)").unwrap();
    db.execute("INSERT INTO f VALUES (1, 0)").unwrap();
    db.execute("INSERT INTO f VALUES (2, 1)").unwrap();
    // Division by zero inside the WHERE clause: the batch kernel
    // declines at run time and the scalar rerun over the same snapshot
    // raises the error — the wording must match the scalar-only path.
    let fb_before = db.stat(Stat::VectorizedFallbacks);
    let vectorized_err = db
        .execute("SELECT count(*) FROM f WHERE a / b > 0")
        .unwrap_err()
        .to_string();
    let fb_after = db.stat(Stat::VectorizedFallbacks);
    assert!(fb_after > fb_before, "the decline must tick the counter");
    db.set_vectorized_enabled(false);
    let scalar_err = db
        .execute("SELECT count(*) FROM f WHERE a / b > 0")
        .unwrap_err()
        .to_string();
    db.set_vectorized_enabled(true);
    assert_eq!(vectorized_err, scalar_err);
}

#[test]
fn text_predicates_run_on_the_batch_path() {
    let db = Database::new();
    db.set_vectorized_enabled(true);
    db.execute("CREATE TABLE notes (tag text, n int)").unwrap();
    for (tag, n) in [("a", 1), ("b", 2), ("a", 3), ("c", 4)] {
        db.execute(&format!("INSERT INTO notes VALUES ('{tag}', {n})"))
            .unwrap();
    }
    let filled_before = db.stat(Stat::BatchesFilled);
    let fb_before = db.stat(Stat::VectorizedFallbacks);
    let q = db
        .execute("SELECT tag, sum(n) FROM notes WHERE tag >= 'b' GROUP BY tag ORDER BY 1")
        .unwrap();
    assert_eq!(
        q.rows,
        vec![
            vec![Value::Text("b".into()), Value::Float(2.0)],
            vec![Value::Text("c".into()), Value::Float(4.0)],
        ]
    );
    let filled_after = db.stat(Stat::BatchesFilled);
    let fb_after = db.stat(Stat::VectorizedFallbacks);
    assert!(filled_after > filled_before, "the batch must have filled");
    assert_eq!(fb_after, fb_before, "text compare must not fall back");
}
