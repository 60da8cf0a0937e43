//! Tier-2 tests for the SQL dialect corners the cross-crate integration
//! suite relies on: aggregate/plain-column mixing rules, grouped
//! aggregation (GROUP BY / HAVING), PostgreSQL-style `''` string escaping,
//! `LATERAL`-style set-returning functions in `FROM`, and integer,
//! timestamp and interval overflow.

use pgfmu_sqlmini::{ArgKind, Database, Stat, Value};

fn db_with_measurements() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE m (id int, v float)").unwrap();
    for (id, v) in [(1, 10.0), (2, 20.0), (3, 30.0)] {
        db.execute(&format!("INSERT INTO m VALUES ({id}, {v})"))
            .unwrap();
    }
    db
}

// --- aggregates without GROUP BY -------------------------------------------

#[test]
fn plain_column_next_to_aggregate_is_an_error() {
    let db = db_with_measurements();
    let err = db
        .execute("SELECT id, count(*) FROM m")
        .unwrap_err()
        .to_string();
    assert_eq!(
        err,
        "column \"id\" must appear in the GROUP BY clause \
         or be used in an aggregate function"
    );
    // Qualified references name the qualifier, as PostgreSQL does.
    let err = db
        .execute("SELECT m.id, count(*) FROM m")
        .unwrap_err()
        .to_string();
    assert!(err.contains("column \"m.id\" must appear"), "{err}");
}

#[test]
fn aggregate_inside_where_is_an_error() {
    let db = db_with_measurements();
    let err = db
        .execute("SELECT id FROM m WHERE count(*) > 1")
        .unwrap_err()
        .to_string();
    assert_eq!(err, "aggregate functions are not allowed in WHERE");
    // The same rule applies under grouping and in DML predicates.
    let err = db
        .execute("SELECT id FROM m WHERE sum(v) > 1 GROUP BY id")
        .unwrap_err()
        .to_string();
    assert_eq!(err, "aggregate functions are not allowed in WHERE");
    let err = db
        .execute("DELETE FROM m WHERE v = max(v)")
        .unwrap_err()
        .to_string();
    assert_eq!(err, "aggregate functions are not allowed in WHERE");
    let err = db
        .execute("UPDATE m SET v = sum(v)")
        .unwrap_err()
        .to_string();
    assert_eq!(err, "aggregate functions are not allowed in UPDATE");
}

#[test]
fn arithmetic_over_aggregates_is_allowed() {
    let db = db_with_measurements();
    let q = db
        .execute("SELECT sum(v) / count(*), max(v) - min(v) FROM m")
        .unwrap();
    assert_eq!(q.rows[0][0].as_f64().unwrap(), 20.0);
    assert_eq!(q.rows[0][1].as_f64().unwrap(), 20.0);
}

#[test]
fn aggregate_over_empty_table_yields_one_row() {
    let db = Database::new();
    db.execute("CREATE TABLE e (v float)").unwrap();
    let q = db
        .execute("SELECT count(*), sum(v), min(v) FROM e")
        .unwrap();
    assert_eq!(q.rows.len(), 1);
    assert_eq!(q.rows[0][0], Value::Int(0));
    assert_eq!(q.rows[0][1], Value::Null);
    assert_eq!(q.rows[0][2], Value::Null);
}

// --- grouped aggregation (GROUP BY / HAVING) -------------------------------

fn db_with_readings() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE r (site text, day int, v float)")
        .unwrap();
    for (site, day, v) in [
        ("a", 1, 10.0),
        ("a", 1, 20.0),
        ("a", 2, 5.0),
        ("b", 1, 7.0),
        ("b", 2, 1.0),
    ] {
        db.execute(&format!("INSERT INTO r VALUES ('{site}', {day}, {v})"))
            .unwrap();
    }
    db
}

#[test]
fn group_by_partitions_aggregates_per_key() {
    let db = db_with_readings();
    let q = db
        .execute("SELECT site, count(*), sum(v) FROM r GROUP BY site ORDER BY site")
        .unwrap();
    assert_eq!(q.columns, vec!["site", "count", "sum"]);
    assert_eq!(q.rows.len(), 2);
    assert_eq!(q.rows[0][0], Value::Text("a".into()));
    assert_eq!(q.rows[0][1], Value::Int(3));
    assert_eq!(q.rows[0][2].as_f64().unwrap(), 35.0);
    assert_eq!(q.rows[1][1], Value::Int(2));
    assert_eq!(q.rows[1][2].as_f64().unwrap(), 8.0);
}

#[test]
fn group_by_composite_key_and_expression() {
    let db = db_with_readings();
    let q = db
        .execute(
            "SELECT site, day * 10 AS decade, avg(v) FROM r \
             GROUP BY site, day * 10 ORDER BY site, decade",
        )
        .unwrap();
    assert_eq!(q.rows.len(), 4);
    assert_eq!(q.rows[0][1], Value::Int(10));
    assert_eq!(q.rows[0][2].as_f64().unwrap(), 15.0);
    // An ordinal names the select item, as in PostgreSQL.
    let q2 = db
        .execute("SELECT day * 10 AS decade, count(*) FROM r GROUP BY 1 ORDER BY 1")
        .unwrap();
    assert_eq!(q2.rows.len(), 2);
    assert_eq!(q2.rows[0][1], Value::Int(3));
}

#[test]
fn having_filters_groups() {
    let db = db_with_readings();
    let q = db
        .execute(
            "SELECT site, sum(v) FROM r GROUP BY site \
             HAVING sum(v) > 10 ORDER BY site",
        )
        .unwrap();
    assert_eq!(q.rows.len(), 1);
    assert_eq!(q.rows[0][0], Value::Text("a".into()));
    // HAVING without GROUP BY treats the whole input as one group.
    let q = db
        .execute("SELECT sum(v) FROM r HAVING count(*) > 100")
        .unwrap();
    assert_eq!(q.rows.len(), 0);
    let q = db
        .execute("SELECT sum(v) FROM r HAVING count(*) > 1")
        .unwrap();
    assert_eq!(q.rows.len(), 1);
}

#[test]
fn group_by_groups_nulls_together_and_orders_by_aggregate() {
    let db = Database::new();
    db.execute("CREATE TABLE t (k text, v int)").unwrap();
    db.execute("INSERT INTO t VALUES ('x', 1), (NULL, 2), (NULL, 3), ('x', 4)")
        .unwrap();
    let q = db
        .execute("SELECT k, sum(v) FROM t GROUP BY k ORDER BY sum(v) DESC")
        .unwrap();
    assert_eq!(q.rows.len(), 2);
    assert_eq!(q.rows[0][0], Value::Text("x".into()));
    assert_eq!(q.rows[0][1].as_f64().unwrap(), 5.0);
    assert_eq!(q.rows[1][0], Value::Null);
}

#[test]
fn grouped_query_over_empty_input_returns_no_groups() {
    let db = Database::new();
    db.execute("CREATE TABLE e (k text, v float)").unwrap();
    let q = db.execute("SELECT k, count(*) FROM e GROUP BY k").unwrap();
    assert_eq!(q.rows.len(), 0);
    // Without GROUP BY the single whole-input group survives (count = 0).
    let q = db.execute("SELECT count(*) FROM e").unwrap();
    assert_eq!(q.rows[0][0], Value::Int(0));
}

#[test]
fn grouped_error_paths_use_postgres_wording() {
    let db = db_with_readings();
    // Ungrouped column in the select list.
    let err = db
        .execute("SELECT site, day, sum(v) FROM r GROUP BY site")
        .unwrap_err()
        .to_string();
    assert_eq!(
        err,
        "column \"day\" must appear in the GROUP BY clause \
         or be used in an aggregate function"
    );
    // HAVING referencing an ungrouped column (with and without GROUP BY).
    let err = db
        .execute("SELECT sum(v) FROM r GROUP BY site HAVING day > 1")
        .unwrap_err()
        .to_string();
    assert!(err.contains("column \"day\" must appear"), "{err}");
    let err = db
        .execute("SELECT count(*) FROM r HAVING day > 1")
        .unwrap_err()
        .to_string();
    assert!(err.contains("column \"day\" must appear"), "{err}");
    // Aggregates cannot appear in GROUP BY or nest inside each other.
    let err = db
        .execute("SELECT count(*) FROM r GROUP BY sum(v)")
        .unwrap_err()
        .to_string();
    assert_eq!(err, "aggregate functions are not allowed in GROUP BY");
    let err = db
        .execute("SELECT sum(count(*)) FROM r GROUP BY site")
        .unwrap_err()
        .to_string();
    assert_eq!(err, "aggregate function calls cannot be nested");
    // Out-of-range ordinals are named.
    let err = db
        .execute("SELECT site FROM r GROUP BY 7")
        .unwrap_err()
        .to_string();
    assert_eq!(err, "GROUP BY position 7 is not in select list");
}

#[test]
fn order_by_alias_and_ordinal_resolution() {
    let db = db_with_readings();
    // An alias in ORDER BY names the output column, even when the
    // underlying expression is an aggregate.
    let q = db
        .execute("SELECT site, sum(v) AS total FROM r GROUP BY site ORDER BY total DESC")
        .unwrap();
    assert_eq!(q.rows[0][0], Value::Text("a".into()));
    // Duplicated aliases over *different* expressions are ambiguous…
    let err = db
        .execute("SELECT day AS x, v AS x FROM r ORDER BY x")
        .unwrap_err()
        .to_string();
    assert_eq!(err, "ORDER BY \"x\" is ambiguous");
    // …but repeating the same expression (wildcard + explicit column) is
    // fine, as in PostgreSQL.
    let q = db.execute("SELECT *, site FROM r ORDER BY site").unwrap();
    assert_eq!(q.rows.len(), 5);
}

#[test]
fn grouping_matches_qualified_and_bare_references() {
    let db = db_with_readings();
    // `GROUP BY site` must satisfy a qualified `r.site` projection (they
    // resolve to the same column) and grouped keys stay usable inside
    // scalar expressions.
    let q = db
        .execute(
            "SELECT r.site || '!' AS tag, max(v) FROM r \
             GROUP BY site ORDER BY tag",
        )
        .unwrap();
    assert_eq!(q.rows[0][0], Value::Text("a!".into()));
    assert_eq!(q.rows[0][1].as_f64().unwrap(), 20.0);
}

#[test]
fn grouped_queries_work_through_binds_and_streaming() {
    let db = db_with_readings();
    let stmt = db
        .prepare(
            "SELECT site, sum(v * $1) AS weighted FROM r \
             GROUP BY site HAVING sum(v * $1) > $2 ORDER BY site",
        )
        .unwrap();
    assert_eq!(stmt.n_params(), 2);
    let q = stmt
        .query(&[Value::Float(2.0), Value::Float(10.0)])
        .unwrap();
    assert_eq!(q.rows.len(), 2, "sums 70 and 16 both clear 10");
    // Re-execute with different binds: the cached plan regroups.
    let q = stmt
        .query(&[Value::Float(2.0), Value::Float(30.0)])
        .unwrap();
    assert_eq!(q.rows.len(), 1);
    assert_eq!(q.rows[0][1].as_f64().unwrap(), 70.0);
    // The streaming surface yields the same (materialized) groups.
    let rows: Vec<Vec<Value>> = stmt
        .query_rows(&[Value::Float(2.0), Value::Float(30.0)])
        .unwrap()
        .collect::<pgfmu_sqlmini::Result<_>>()
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], Value::Text("a".into()));
}

// --- SELECT DISTINCT -------------------------------------------------------

#[test]
fn select_distinct_deduplicates_rows() {
    let db = db_with_readings();
    let q = db
        .execute("SELECT DISTINCT site FROM r ORDER BY site")
        .unwrap();
    assert_eq!(q.rows.len(), 2);
    assert_eq!(q.rows[0][0], Value::Text("a".into()));
    assert_eq!(q.rows[1][0], Value::Text("b".into()));
    // Composite DISTINCT rows dedup as whole tuples.
    let q = db
        .execute("SELECT DISTINCT site, day FROM r ORDER BY site, day")
        .unwrap();
    assert_eq!(q.rows.len(), 4);
    // DISTINCT over an expression.
    let q = db.execute("SELECT DISTINCT day * 10 FROM r").unwrap();
    assert_eq!(q.rows.len(), 2);
}

#[test]
fn select_distinct_streams_without_order_by() {
    let db = db_with_readings();
    // No pipeline breaker: the deduplication runs inside the lazy cursor,
    // in first-occurrence order.
    let rows: Vec<Vec<Value>> = db
        .query_rows("SELECT DISTINCT site FROM r", &[])
        .unwrap()
        .collect::<pgfmu_sqlmini::Result<_>>()
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][0], Value::Text("a".into()), "first occurrence wins");
    // LIMIT counts distinct rows, not scanned rows.
    let q = db.execute("SELECT DISTINCT site FROM r LIMIT 1").unwrap();
    assert_eq!(q.rows.len(), 1);
}

#[test]
fn select_distinct_groups_nulls_together() {
    let db = Database::new();
    db.execute("CREATE TABLE t (v int)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (NULL), (NULL), (1)")
        .unwrap();
    let q = db.execute("SELECT DISTINCT v FROM t ORDER BY v").unwrap();
    assert_eq!(q.rows.len(), 2);
    assert_eq!(q.rows[1][0], Value::Null, "NULLs sort last");
}

#[test]
fn select_distinct_order_by_must_be_in_select_list() {
    let db = db_with_readings();
    let err = db
        .execute("SELECT DISTINCT site FROM r ORDER BY day")
        .unwrap_err()
        .to_string();
    assert_eq!(
        err,
        "for SELECT DISTINCT, ORDER BY expressions must appear in select list"
    );
    // The same expression (not just the same name) is fine.
    let q = db
        .execute("SELECT DISTINCT day * 10 AS decade FROM r ORDER BY decade DESC")
        .unwrap();
    assert_eq!(q.rows[0][0], Value::Int(20));
}

#[test]
fn select_distinct_composes_with_grouping() {
    let db = db_with_readings();
    // Two sites share sum(v) after rounding to one bucket each; DISTINCT
    // applies to the grouped output rows.
    let q = db
        .execute("SELECT DISTINCT count(*) FROM r GROUP BY site ORDER BY count(*)")
        .unwrap();
    assert_eq!(q.rows.len(), 2, "groups of 3 and 2 rows");
    let q = db
        .execute("SELECT DISTINCT 1 FROM r GROUP BY site")
        .unwrap();
    assert_eq!(q.rows.len(), 1, "both groups project the same row");
}

// --- INSERT … SELECT -------------------------------------------------------

#[test]
fn insert_select_snapshots_its_source() {
    let db = Database::new();
    db.execute("CREATE TABLE t (v int)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    // The source is drained before anything is appended: self-insertion
    // doubles the table instead of looping over its own output.
    let q = db.execute("INSERT INTO t SELECT v + 10 FROM t").unwrap();
    assert_eq!(q.rows[0][0], Value::Int(2));
    let all: Vec<i64> = db.query_as("SELECT v FROM t ORDER BY v", &[]).unwrap();
    assert_eq!(all, vec![1, 2, 11, 12]);
}

#[test]
fn insert_select_with_column_list_streams_and_fills_nulls() {
    let db = Database::new();
    db.execute("CREATE TABLE src (a int, b text)").unwrap();
    db.execute("INSERT INTO src VALUES (1, 'x'), (2, 'y')")
        .unwrap();
    db.execute("CREATE TABLE dst (a int, b text, c float)")
        .unwrap();
    db.execute("INSERT INTO dst (b, a) SELECT b, a FROM src")
        .unwrap();
    let rows: Vec<(i64, String, Option<f64>)> =
        db.query_as("SELECT * FROM dst ORDER BY a", &[]).unwrap();
    assert_eq!(rows[0], (1, "x".into(), None));
    assert_eq!(rows[1], (2, "y".into(), None));
}

// --- quoted-string escaping ------------------------------------------------

#[test]
fn doubled_quote_escapes_in_literals_round_trip_through_storage() {
    let db = Database::new();
    db.execute("CREATE TABLE notes (body text)").unwrap();
    db.execute("INSERT INTO notes VALUES ('O''Brien''s model')")
        .unwrap();
    let q = db.execute("SELECT body FROM notes").unwrap();
    assert_eq!(q.rows[0][0], Value::Text("O'Brien's model".into()));
    // The stored value (with a real quote) is reachable via an escaped
    // comparison literal, so re-generated SQL can round-trip it.
    let q = db
        .execute("SELECT count(*) FROM notes WHERE body = 'O''Brien''s model'")
        .unwrap();
    assert_eq!(q.rows[0][0], Value::Int(1));
}

#[test]
fn escaped_quotes_survive_function_arguments() {
    let db = Database::new();
    db.register_scalar("observed_arg", |_db, args| Ok(args[0].clone()));
    let q = db.execute("SELECT observed_arg('it''s; quoted')").unwrap();
    assert_eq!(q.rows[0][0], Value::Text("it's; quoted".into()));
}

#[test]
fn unterminated_string_is_an_error_not_a_panic() {
    let db = Database::new();
    assert!(db.execute("SELECT 'dangling").is_err());
    // A trailing escape (`''`) keeps the literal open — still an error.
    assert!(db.execute("SELECT 'dangling''").is_err());
}

// --- LATERAL-style set-returning functions in FROM -------------------------

#[test]
fn srf_in_from_expands_to_rows() {
    let db = Database::new();
    let q = db
        .execute("SELECT * FROM generate_series(1, 4) AS g")
        .unwrap();
    let got: Vec<i64> = q.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(got, vec![1, 2, 3, 4]);
}

#[test]
fn srf_arguments_reference_columns_to_their_left() {
    let db = db_with_measurements();
    // The paper's multi-instance pattern: a function in FROM whose
    // arguments come from the preceding table item (implicit LATERAL).
    let q = db
        .execute("SELECT id, s FROM m, LATERAL generate_series(1, id) AS s ORDER BY id, s")
        .unwrap();
    let got: Vec<(i64, i64)> = q
        .rows
        .iter()
        .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
        .collect();
    assert_eq!(got, vec![(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]);
}

#[test]
fn lateral_keyword_is_optional() {
    let db = db_with_measurements();
    let with = db
        .execute("SELECT id, s FROM m, LATERAL generate_series(1, id) AS s ORDER BY id, s")
        .unwrap();
    let without = db
        .execute("SELECT id, s FROM m, generate_series(1, id) AS s ORDER BY id, s")
        .unwrap();
    assert_eq!(with.rows, without.rows);
}

#[test]
fn registered_srf_can_reenter_the_database() {
    // fmu_parest-style re-entrancy: the SRF body runs its own query
    // against the same database while the outer query is executing.
    let db = db_with_measurements();
    db.register_table_fn("values_above", &["v"], |db, args| {
        let threshold = args[0].as_f64()?;
        let inner = db.execute(&format!("SELECT v FROM m WHERE v > {threshold}"))?;
        Ok(inner.rows)
    });
    let q = db
        .execute("SELECT v FROM values_above(15.0) AS v ORDER BY v")
        .unwrap();
    let got: Vec<f64> = q.rows.iter().map(|r| r[0].as_f64().unwrap()).collect();
    assert_eq!(got, vec![20.0, 30.0]);
}

#[test]
fn multi_column_srf_keeps_its_own_column_names() {
    let db = Database::new();
    db.register_table_fn("pair_rows", &["a", "b"], |_db, _args| {
        Ok(vec![
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::Int(3), Value::Int(4)],
        ])
    });
    let q = db
        .execute("SELECT a, b FROM pair_rows() AS p ORDER BY a")
        .unwrap();
    assert_eq!(q.rows.len(), 2);
    assert_eq!(q.rows[1], vec![Value::Int(3), Value::Int(4)]);
}

#[test]
fn lateral_function_over_an_empty_table_keeps_its_columns() {
    let db = Database::new();
    db.execute("CREATE TABLE t (x int)").unwrap();
    let q = db
        .execute("SELECT g FROM t, generate_series(1, t.x) AS g")
        .unwrap();
    assert_eq!(q.columns, vec!["g"]);
    assert!(q.rows.is_empty());
    let q = db
        .execute("SELECT * FROM t, generate_series(1, t.x) AS g")
        .unwrap();
    assert_eq!(q.columns, vec!["x", "g"]);
    assert!(q.rows.is_empty());
    // An argument naming an item to the function's right is not in scope.
    let err = db
        .execute("SELECT * FROM generate_series(1, t.x) AS g, t")
        .unwrap_err();
    assert_eq!(err.to_string(), "column \"t.x\" does not exist");
}

#[test]
fn strict_function_given_null_returns_zero_rows_of_its_columns() {
    let db = Database::new();
    db.udf("expand")
        .arg("n", ArgKind::Int)
        .strict()
        .table(&["i", "square"], |_db, args| {
            Ok((0..args.i64(0))
                .map(|i| vec![Value::Int(i), Value::Int(i * i)])
                .collect())
        });
    let q = db.execute("SELECT * FROM expand(NULL)").unwrap();
    assert_eq!(q.columns, vec!["i", "square"]);
    assert!(q.rows.is_empty());
    let q = db.execute("SELECT i FROM expand(NULL)").unwrap();
    assert_eq!(q.columns, vec!["i"]);
    assert!(q.rows.is_empty());
    let q = db.execute("SELECT square FROM expand(3)").unwrap();
    assert_eq!(
        q.rows,
        vec![
            vec![Value::Int(0)],
            vec![Value::Int(1)],
            vec![Value::Int(4)]
        ]
    );
}

#[test]
fn a_row_unlike_the_declared_columns_is_an_error() {
    let db = Database::new();
    db.register_table_fn("short_rows", &["a", "b"], |_db, _args| {
        Ok(vec![vec![Value::Int(1)]])
    });
    db.register_table_fn("long_rows", &["a"], |_db, _args| {
        Ok(vec![vec![Value::Int(1), Value::Int(2)]])
    });
    for sql in ["SELECT b FROM short_rows()", "SELECT * FROM long_rows()"] {
        let err = db.execute(sql).unwrap_err().to_string();
        let name = sql.split(' ').nth(3).unwrap().trim_end_matches("()");
        assert!(err.contains(&format!("function {name} returned")), "{err}");
    }
}

#[test]
fn a_prepared_function_scan_plans_once() {
    let db = Database::new();
    let series = |db: &Database, step: i64| {
        db.register_table_fn("series", &["n"], move |_db, args| {
            let n = args[0].as_i64()?;
            Ok((1..=n).map(|i| vec![Value::Int(i * step)]).collect())
        });
    };
    series(&db, 1);
    let stmt = db.prepare("SELECT sum(n) FROM series($1)").unwrap();
    let built = db.stat(Stat::PlansBuilt);
    for n in 1..=4 {
        let q = stmt.query(&[Value::Int(n)]).unwrap();
        assert_eq!(q.rows[0][0], Value::Float((n * (n + 1) / 2) as f64));
    }
    assert_eq!(db.stat(Stat::PlansBuilt), built + 1);
    // Re-registering the function recompiles the cached plan once.
    series(&db, 10);
    for _ in 0..2 {
        let q = stmt.query(&[Value::Int(3)]).unwrap();
        assert_eq!(q.rows[0][0], Value::Float(60.0));
    }
    assert_eq!(db.stat(Stat::PlansBuilt), built + 2);
}

#[test]
fn a_statement_reads_all_its_tables_before_any_function_runs() {
    let db = Database::new();
    db.execute("CREATE TABLE u (i int)").unwrap();
    db.execute("INSERT INTO u VALUES (1), (2)").unwrap();
    db.register_table_fn("bump", &["bumped"], |db, _args| {
        db.execute("INSERT INTO u VALUES (3), (4), (5)")?;
        Ok(vec![vec![Value::Bool(true)]])
    });
    // `u` is listed after the function, yet reads as of the statement's
    // start, as in PostgreSQL: the function's rows are not counted.
    let q = db.execute("SELECT count(*) FROM bump(), u").unwrap();
    assert_eq!(q.rows[0][0], Value::Int(2));
    let q = db.execute("SELECT count(*) FROM u").unwrap();
    assert_eq!(q.rows[0][0], Value::Int(5));
}

#[test]
fn builtin_functions_report_their_declared_columns() {
    let db = Database::new();
    db.execute("CREATE TABLE nothing (x int)").unwrap();
    for (name, args, columns) in [
        ("generate_series", "1, 2", vec!["generate_series"]),
        ("pgfmu_stats", "", vec!["stat", "value"]),
        ("pgfmu_analyze", "", vec!["table", "rows"]),
    ] {
        let q = db
            .execute(&format!("SELECT * FROM {name}({args})"))
            .unwrap();
        assert_eq!(q.columns, columns, "{name}");
        assert!(!q.rows.is_empty(), "{name}");
        // Laterally over an empty table the function never runs.
        let q = db
            .execute(&format!("SELECT {name}.* FROM nothing, {name}({args})"))
            .unwrap();
        assert_eq!(q.columns, columns, "{name} without rows");
        assert!(q.rows.is_empty(), "{name}");
    }
    let q = db.execute("SELECT * FROM generate_series(2, 1)").unwrap();
    assert_eq!(q.columns, vec!["generate_series"]);
    assert!(q.rows.is_empty());
}

// --- integer, timestamp and interval overflow ------------------------------

/// The largest interval and timestamp, built by arithmetic (no literal
/// reaches them).
const MAX_INTERVAL: &str = "(interval '1 second' * 9223372036854775807)";
const MAX_TIMESTAMP: &str = "(timestamp '1970-01-01' + interval '1 second' * 9223372036854775807)";

/// A table `t (s text, i int)` holding `i64::MAX` in group `a`.
fn db_at_the_integer_limit() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE t (s text, i int)").unwrap();
    db.execute("INSERT INTO t VALUES ('a', 9223372036854775807), ('b', 1)")
        .unwrap();
    db
}

#[test]
fn overflow_raises_postgres_out_of_range_errors() {
    let db = db_at_the_integer_limit();
    let bigint = "execution error: bigint out of range";
    let timestamp = "execution error: timestamp out of range";
    let interval = "execution error: interval out of range";
    let cases = [
        ("SELECT 9223372036854775807 + 1".to_string(), bigint),
        ("SELECT (-9223372036854775807 - 1) - 1".into(), bigint),
        ("SELECT i * 2 FROM t".into(), bigint),
        ("SELECT (-9223372036854775807 - 1) / -1".into(), bigint),
        ("SELECT -(-9223372036854775807 - 1)".into(), bigint),
        ("SELECT abs(-9223372036854775807 - 1)".into(), bigint),
        (
            "SELECT '1 hour'::interval * 9223372036854775807".into(),
            interval,
        ),
        (
            "SELECT 9223372036854775807 * '1 hour'::interval".into(),
            interval,
        ),
        (
            format!("SELECT {MAX_INTERVAL} + interval '1 second'"),
            interval,
        ),
        (
            format!("SELECT -{MAX_INTERVAL} - interval '2 seconds'"),
            interval,
        ),
        (
            format!("SELECT -({MAX_INTERVAL} * -1 - interval '1 second')"),
            interval,
        ),
        (
            format!("SELECT {MAX_TIMESTAMP} + interval '1 second'"),
            timestamp,
        ),
        (
            format!("SELECT interval '1 second' + {MAX_TIMESTAMP}"),
            timestamp,
        ),
        (
            format!("SELECT {MAX_TIMESTAMP} - interval '-1 second'"),
            timestamp,
        ),
        (
            format!("SELECT {MAX_TIMESTAMP} - timestamp '1969-12-31'"),
            interval,
        ),
    ];
    for (sql, expected) in &cases {
        match db.execute(sql) {
            Err(e) => assert_eq!(e.to_string(), *expected, "{sql}"),
            Ok(q) => panic!("{sql} returned {:?}", q.rows),
        }
    }
    // The registered UDF behind the native `abs` raises the same error.
    let err = db.call_scalar("abs", &[Value::Int(i64::MIN)]).unwrap_err();
    assert_eq!(err.to_string(), bigint);
    // The limits themselves are still reachable.
    let q = db.execute("SELECT (-9223372036854775807 - 1) / 1").unwrap();
    assert_eq!(q.rows[0][0], Value::Int(i64::MIN));
    let q = db.execute(&format!("SELECT {MAX_INTERVAL}")).unwrap();
    assert_eq!(q.rows[0][0], Value::Interval(i64::MAX));
}

#[test]
fn grouped_overflow_errors_alike_with_and_without_the_batch_path() {
    let db = db_at_the_integer_limit();
    let sql = "SELECT s, sum(i + 1) FROM t GROUP BY s";
    db.set_vectorized_enabled(true);
    let fallbacks = db.stat(Stat::VectorizedFallbacks);
    let batch = db.execute(sql).unwrap_err().to_string();
    assert_eq!(
        db.stat(Stat::VectorizedFallbacks),
        fallbacks + 1,
        "the batch kernel declines the overflowing lane and the scalar re-run raises"
    );
    db.set_vectorized_enabled(false);
    let scalar = db.execute(sql).unwrap_err().to_string();
    assert_eq!(batch, "execution error: bigint out of range");
    assert_eq!(batch, scalar);
    // Ordered output takes the batch path too.
    db.set_vectorized_enabled(true);
    let err = db.execute("SELECT i FROM t ORDER BY i * 2").unwrap_err();
    assert_eq!(err.to_string(), "execution error: bigint out of range");
}

#[test]
fn overflowing_literals_raise_out_of_range_errors() {
    let db = Database::new();
    let interval =
        |text: &str| format!("execution error: interval field value out of range: \"{text}\"");
    let timestamp = |text: &str| format!("execution error: timestamp out of range: \"{text}\"");
    let cases = [
        (
            "SELECT interval '9223372036854775807 hours'",
            interval("9223372036854775807 hours"),
        ),
        (
            "SELECT interval '9223372036854775807 seconds 1 second'",
            interval("9223372036854775807 seconds 1 second"),
        ),
        (
            "SELECT '9223372036854775807 days'::interval",
            interval("9223372036854775807 days"),
        ),
        (
            "SELECT timestamp '9223372036854775807-01-01'",
            timestamp("9223372036854775807-01-01"),
        ),
        (
            "SELECT '9223372036854775807-01-01'::timestamp",
            timestamp("9223372036854775807-01-01"),
        ),
        (
            "SELECT timestamp '300000000000-03-01 12:00'",
            timestamp("300000000000-03-01 12:00"),
        ),
    ];
    for (sql, expected) in &cases {
        match db.execute(sql) {
            Err(e) => assert_eq!(e.to_string(), *expected, "{sql}"),
            Ok(q) => panic!("{sql} returned {:?}", q.rows),
        }
    }
    // The largest literals that fit are still accepted.
    let q = db
        .execute("SELECT interval '9223372036854775807 seconds'")
        .unwrap();
    assert_eq!(q.rows[0][0], Value::Interval(i64::MAX));
    let q = db.execute("SELECT timestamp '290000000-01-01'").unwrap();
    assert!(matches!(q.rows[0][0], Value::Timestamp(t) if t > 0));
}

#[test]
fn float_to_int_conversions_raise_bigint_out_of_range() {
    let db = Database::new();
    let bigint = "execution error: bigint out of range";
    for sql in [
        "SELECT 1e300::int",
        "SELECT (-1e300)::int",
        "SELECT 'NaN'::float::int",
        "SELECT 'Infinity'::float::int",
        "SELECT 9223372036854775808.0::int",
    ] {
        match db.execute(sql) {
            Err(e) => assert_eq!(e.to_string(), bigint, "{sql}"),
            Ok(q) => panic!("{sql} returned {:?}", q.rows),
        }
    }
    db.execute("CREATE TABLE t (i int)").unwrap();
    let err = db
        .execute("INSERT INTO t VALUES (1e300)")
        .unwrap_err()
        .to_string();
    assert!(err.contains(bigint), "{err}");
    assert!(Value::Float(1e300).as_i64().is_err());
    // The range's ends are still reachable, and casts still round.
    let q = db
        .execute("SELECT (-9223372036854775808.0)::int, 9223372036854774784.0::int, 4.6::int")
        .unwrap();
    assert_eq!(
        q.rows[0],
        vec![
            Value::Int(i64::MIN),
            Value::Int(9_223_372_036_854_774_784),
            Value::Int(5)
        ]
    );
}

#[test]
fn grouped_float_to_int_key_errors_alike_with_and_without_the_batch_path() {
    let db = Database::new();
    db.execute("CREATE TABLE t (f float)").unwrap();
    db.execute("INSERT INTO t VALUES (1.5), (NULL), (1e300)")
        .unwrap();
    let sql = "SELECT f::int, count(*) FROM t GROUP BY f::int";
    db.set_vectorized_enabled(true);
    let fallbacks = db.stat(Stat::VectorizedFallbacks);
    let batch = db.execute(sql).unwrap_err().to_string();
    assert_eq!(
        db.stat(Stat::VectorizedFallbacks),
        fallbacks + 1,
        "the batch cast declines the out-of-range lane and the scalar re-run raises"
    );
    db.set_vectorized_enabled(false);
    let scalar = db.execute(sql).unwrap_err().to_string();
    assert_eq!(batch, "execution error: bigint out of range");
    assert_eq!(batch, scalar);
    // Without the out-of-range row the batch keeps every lane, NULL included.
    db.execute("DELETE FROM t WHERE f > 10.0").unwrap();
    db.set_vectorized_enabled(true);
    let [fallbacks, ops] = [Stat::VectorizedFallbacks, Stat::VectorizedOps].map(|s| db.stat(s));
    let q = db
        .execute("SELECT f::int, count(*) FROM t GROUP BY f::int ORDER BY 1")
        .unwrap();
    assert_eq!(db.stat(Stat::VectorizedFallbacks), fallbacks);
    assert_eq!(db.stat(Stat::VectorizedOps), ops + 1);
    assert_eq!(
        q.rows,
        vec![
            vec![Value::Int(2), Value::Int(1)],
            vec![Value::Null, Value::Int(1)]
        ]
    );
}

#[test]
fn overflowing_update_leaves_the_table_unchanged() {
    let db = db_at_the_integer_limit();
    let err = db.execute("UPDATE t SET i = i + 1").unwrap_err();
    assert_eq!(err.to_string(), "execution error: bigint out of range");
    let rows: Vec<(String, i64)> = db.query_as("SELECT s, i FROM t ORDER BY s", &[]).unwrap();
    assert_eq!(rows, vec![("a".into(), i64::MAX), ("b".into(), 1)]);
}

#[test]
fn generate_series_stops_at_the_end_of_the_range() {
    let db = Database::new();
    let count = |args: &str| -> i64 {
        let q = db
            .execute(&format!("SELECT count(*) FROM generate_series({args})"))
            .unwrap();
        q.rows[0][0].as_i64().unwrap()
    };
    assert_eq!(count("9223372036854775806, 9223372036854775807, 1"), 2);
    assert_eq!(count("9223372036854775800, 9223372036854775807, 5"), 2);
    assert_eq!(
        count("-9223372036854775807, -9223372036854775807 - 1, -1"),
        2
    );
    assert_eq!(
        count(&format!(
            "{MAX_TIMESTAMP} - interval '1 hour', {MAX_TIMESTAMP}, interval '1 hour'"
        )),
        2
    );
    // The two-argument form includes the last integer exactly once.
    assert_eq!(count("9223372036854775805, 9223372036854775807"), 3);
}

#[test]
fn round_digits_and_integer_arguments_raise_out_of_range_errors() {
    let db = Database::new();
    for (sql, msg) in [
        (
            "SELECT round(1234.5678, 4294967298)",
            "integer out of range",
        ),
        (
            "SELECT round(1234.5678, -4294967298)",
            "integer out of range",
        ),
        ("SELECT round(1234.5678, 1e300)", "bigint out of range"),
    ] {
        match db.execute(sql) {
            Err(e) => assert_eq!(e.to_string(), format!("execution error: {msg}"), "{sql}"),
            Ok(q) => panic!("{sql} returned {:?}", q.rows),
        }
    }
    // In range, digits still round, and an integral float still coerces.
    let q = db
        .execute("SELECT round(1234.5678, 2), round(1234.5678, 2.0), round(1234.5678, -2)")
        .unwrap();
    assert_eq!(
        q.rows[0],
        vec![
            Value::Float(1234.57),
            Value::Float(1234.57),
            Value::Float(1200.0)
        ]
    );
}
