//! Built-in scalar and set-returning functions.
//!
//! The UDF signatures deliberately receive a [`Database`] handle so that
//! user-defined functions (pgFMU's `fmu_parest`, `fmu_simulate`, MADlib's
//! `arima_train`, …) can execute SQL themselves — the re-entrancy at the
//! heart of the paper's "in-place computation inside the DBMS" argument.
//!
//! All built-ins are registered through the typed [`crate::udf::UdfBuilder`]
//! surface, so arity/type errors are produced centrally and every function
//! maintains a call counter. The engine's [`Stat`] registry and those
//! call counts are queryable through the `pgfmu_stats()` set-returning
//! function.

use std::sync::Arc;

use crate::counters::Stat;
use crate::db::Database;
use crate::error::{Result, SqlError};
use crate::exec::in_range;
use crate::table::Row;
use crate::udf::ArgKind;
use crate::value::Value;

/// A scalar UDF: `(db, args) -> value`.
pub type ScalarFn = Arc<dyn Fn(&Database, &[Value]) -> Result<Value> + Send + Sync>;

/// A set-returning UDF: `(db, args) -> rows`, each row holding one value
/// per column the function declared when it was registered.
pub type TableFn = Arc<dyn Fn(&Database, &[Value]) -> Result<Vec<Row>> + Send + Sync>;

/// Pure single-argument builtins the planner may evaluate natively —
/// no registry dispatch, no argument-coercion allocation, and (because
/// they cannot touch the database) safe to run inside a zero-copy scan
/// that holds a table read guard. Re-registering the name as a UDF
/// disables its intrinsic and restores ordinary dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Intrinsic {
    Floor,
    Ceil,
    Sqrt,
    Exp,
    Ln,
    Abs,
    ExtractEpoch,
}

/// Evaluate an intrinsic on the happy path. `None` means "not handled
/// natively" — the caller falls back to the registered UDF, which owns
/// the arity/type error wording.
pub(crate) fn eval_intrinsic(op: Intrinsic, args: &[Value]) -> Option<Result<Value>> {
    let [arg] = args else { return None };
    // All intrinsics are STRICT: a NULL argument yields NULL.
    if arg.is_null() {
        return Some(Ok(Value::Null));
    }
    let float = |f: fn(f64) -> f64| match arg {
        Value::Float(x) => Some(Ok(Value::Float(f(*x)))),
        Value::Int(i) => Some(Ok(Value::Float(f(*i as f64)))),
        _ => None,
    };
    match op {
        Intrinsic::Floor => float(f64::floor),
        Intrinsic::Ceil => float(f64::ceil),
        Intrinsic::Sqrt => float(f64::sqrt),
        Intrinsic::Exp => float(f64::exp),
        Intrinsic::Ln => float(f64::ln),
        Intrinsic::Abs => match arg {
            Value::Int(i) => Some(in_range(i.checked_abs(), Value::Int, "bigint")),
            Value::Float(x) => Some(Ok(Value::Float(x.abs()))),
            _ => None,
        },
        Intrinsic::ExtractEpoch => match arg {
            Value::Timestamp(t) | Value::Interval(t) => Some(Ok(Value::Int(*t))),
            _ => None,
        },
    }
}

/// Register the built-in scalar functions.
pub fn register_builtin_scalars(db: &Database) {
    let simple = |db: &Database, name: &'static str, f: fn(f64) -> f64| {
        db.udf(name)
            .arg("x", ArgKind::Float)
            .strict()
            .scalar(move |_db, args| Ok(Value::Float(f(args.f64(0)))));
    };
    simple(db, "sqrt", f64::sqrt);
    simple(db, "exp", f64::exp);
    simple(db, "ln", f64::ln);
    simple(db, "floor", f64::floor);
    simple(db, "ceil", f64::ceil);
    simple(db, "ceiling", f64::ceil);

    // abs preserves integer-ness, so it takes its argument untyped.
    db.udf("abs")
        .arg("x", ArgKind::Any)
        .strict()
        .scalar(|_db, args| match args.value(0) {
            Value::Int(i) => in_range(i.checked_abs(), Value::Int, "bigint"),
            v => Ok(Value::Float(v.as_f64()?.abs())),
        });

    db.udf("round")
        .arg("x", ArgKind::Float)
        .opt_arg("digits", ArgKind::Int)
        .strict()
        .scalar(|_db, args| {
            let x = args.f64(0);
            match args.opt_i64(1) {
                None => Ok(Value::Float(x.round())),
                Some(d) => {
                    let d = i32::try_from(d)
                        .map_err(|_| SqlError::Execution("integer out of range".into()))?;
                    let scale = 10f64.powi(d);
                    Ok(Value::Float((x * scale).round() / scale))
                }
            }
        });

    db.udf("power")
        .arg("base", ArgKind::Float)
        .arg("exponent", ArgKind::Float)
        .strict()
        .scalar(|_db, args| Ok(Value::Float(args.f64(0).powf(args.f64(1)))));

    db.udf("coalesce")
        .variadic(ArgKind::Any)
        .scalar(|_db, args| {
            for a in args.raw() {
                if !a.is_null() {
                    return Ok(a.clone());
                }
            }
            Ok(Value::Null)
        });

    db.udf("nullif")
        .arg("a", ArgKind::Any)
        .arg("b", ArgKind::Any)
        .scalar(|_db, args| {
            if args.value(0) == args.value(1) {
                Ok(Value::Null)
            } else {
                Ok(args.value(0).clone())
            }
        });

    db.udf("lower")
        .arg("s", ArgKind::Text)
        .strict()
        .scalar(|_db, args| Ok(Value::Text(args.text(0).to_lowercase())));

    db.udf("upper")
        .arg("s", ArgKind::Text)
        .strict()
        .scalar(|_db, args| Ok(Value::Text(args.text(0).to_uppercase())));

    db.udf("length")
        .arg("s", ArgKind::Text)
        .strict()
        .scalar(|_db, args| Ok(Value::Int(args.text(0).chars().count() as i64)));

    db.udf("greatest")
        .variadic(ArgKind::Any)
        .scalar(|_db, args| {
            let mut best: Option<Value> = None;
            for a in args.raw().iter().filter(|a| !a.is_null()) {
                best = Some(match best {
                    None => a.clone(),
                    Some(b) => {
                        if crate::exec::compare(a, &b)? == Some(std::cmp::Ordering::Greater) {
                            a.clone()
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        });

    db.udf("least").variadic(ArgKind::Any).scalar(|_db, args| {
        let mut best: Option<Value> = None;
        for a in args.raw().iter().filter(|a| !a.is_null()) {
            best = Some(match best {
                None => a.clone(),
                Some(b) => {
                    if crate::exec::compare(a, &b)? == Some(std::cmp::Ordering::Less) {
                        a.clone()
                    } else {
                        b
                    }
                }
            });
        }
        Ok(best.unwrap_or(Value::Null))
    });

    // extract(epoch from ts) is spelled extract_epoch(ts) in our dialect.
    db.udf("extract_epoch")
        .arg("t", ArgKind::Any)
        .strict()
        .scalar(|_db, args| match args.value(0) {
            Value::Timestamp(t) | Value::Interval(t) => Ok(Value::Int(*t)),
            _ => Err(SqlError::Type(
                "extract_epoch() takes a timestamp or interval".into(),
            )),
        });

    // Mark the pure math builtins as planner intrinsics (after the typed
    // registrations above, which clear any previous mark).
    for (name, op) in [
        ("floor", Intrinsic::Floor),
        ("ceil", Intrinsic::Ceil),
        ("ceiling", Intrinsic::Ceil),
        ("sqrt", Intrinsic::Sqrt),
        ("exp", Intrinsic::Exp),
        ("ln", Intrinsic::Ln),
        ("abs", Intrinsic::Abs),
        ("extract_epoch", Intrinsic::ExtractEpoch),
    ] {
        db.mark_intrinsic(name, op);
    }
}

/// Register the built-in set-returning functions.
pub fn register_builtin_table_fns(db: &Database) {
    // generate_series has int and timestamp overloads, so it dispatches on
    // the raw values of a variadic signature.
    db.udf("generate_series")
        .variadic(ArgKind::Any)
        .table(&["generate_series"], |_db, args| match args.raw() {
            [Value::Int(a), Value::Int(b)] => Ok((*a..=*b).map(|v| vec![Value::Int(v)]).collect()),
            [Value::Int(a), Value::Int(b), Value::Int(step)] => {
                if *step == 0 {
                    return Err(SqlError::Execution(
                        "generate_series step cannot be zero".into(),
                    ));
                }
                // The series also ends where the next step would leave
                // the integer range, as in PostgreSQL.
                let before_end = |x: &i64| if *step > 0 { x <= b } else { x >= b };
                let series = std::iter::successors(Some(*a), |x| x.checked_add(*step));
                Ok(series
                    .take_while(before_end)
                    .map(|x| vec![Value::Int(x)])
                    .collect())
            }
            [Value::Timestamp(a), Value::Timestamp(b), Value::Interval(step)] => {
                if *step <= 0 {
                    return Err(SqlError::Execution(
                        "generate_series interval must be positive".into(),
                    ));
                }
                let series = std::iter::successors(Some(*a), |t| t.checked_add(*step));
                Ok(series
                    .take_while(|t| t <= b)
                    .map(|t| vec![Value::Timestamp(t)])
                    .collect())
            }
            _ => Err(SqlError::Type(
                "generate_series expects (int, int[, int]) or \
                 (timestamp, timestamp, interval)"
                    .into(),
            )),
        });

    // Engine observability: every registry statistic, then per-UDF call
    // counts, as a queryable relation `(stat text, value bigint)`.
    db.udf("pgfmu_stats")
        .table(&["stat", "value"], |db, _args| {
            let registry = Stat::ALL
                .iter()
                .map(|&s| (s.name().to_string(), db.stat(s)));
            let calls = db
                .udf_call_counts()
                .into_iter()
                .filter(|&(_, count)| count > 0)
                .map(|(name, count)| (format!("calls.{name}"), count));
            Ok(registry
                .chain(calls)
                .map(|(stat, value)| vec![Value::Text(stat), Value::Int(value as i64)])
                .collect())
        });

    // Statistics refresh from SQL: `pgfmu_analyze()` recollects planner
    // statistics for every table (or one named table) and returns the
    // analyzed row counts, mirroring `ANALYZE` as a queryable relation.
    db.udf("pgfmu_analyze")
        .opt_arg("table", ArgKind::Text)
        .table(&["table", "rows"], |db, args| {
            Ok(db
                .analyze(args.opt_text(0))?
                .into_iter()
                .map(|(name, rows)| vec![Value::Text(name), Value::Int(rows as i64)])
                .collect())
        });
}

#[cfg(test)]
mod tests {
    use crate::db::Database;
    use crate::value::Value;

    fn db() -> Database {
        Database::new()
    }

    #[test]
    fn scalar_math_functions() {
        let d = db();
        let one = |sql: &str| d.execute(sql).unwrap().scalar().unwrap().clone();
        assert_eq!(one("SELECT abs(-4)"), Value::Int(4));
        assert_eq!(one("SELECT abs(-4.5)"), Value::Float(4.5));
        assert_eq!(one("SELECT sqrt(9.0)"), Value::Float(3.0));
        assert_eq!(one("SELECT round(2.567, 2)"), Value::Float(2.57));
        assert_eq!(one("SELECT power(2, 10)"), Value::Float(1024.0));
        assert_eq!(one("SELECT ceiling(1.2)"), Value::Float(2.0));
        assert_eq!(one("SELECT floor(1.8)"), Value::Float(1.0));
    }

    #[test]
    fn null_handling() {
        let d = db();
        let one = |sql: &str| d.execute(sql).unwrap().scalar().unwrap().clone();
        assert_eq!(one("SELECT coalesce(NULL, NULL, 3)"), Value::Int(3));
        assert_eq!(one("SELECT coalesce(NULL)"), Value::Null);
        assert_eq!(one("SELECT nullif(1, 1)"), Value::Null);
        assert_eq!(one("SELECT nullif(1, 2)"), Value::Int(1));
        assert_eq!(one("SELECT abs(NULL)"), Value::Null);
    }

    #[test]
    fn arity_and_type_errors_are_central() {
        let d = db();
        assert!(d.execute("SELECT sqrt()").is_err());
        assert!(d.execute("SELECT sqrt(1, 2)").is_err());
        assert!(d.execute("SELECT lower(42)").is_err());
        let err = d.execute("SELECT power(2)").unwrap_err().to_string();
        assert!(err.contains("power(integer) does not exist"), "{err}");
    }

    #[test]
    fn text_functions() {
        let d = db();
        let one = |sql: &str| d.execute(sql).unwrap().scalar().unwrap().clone();
        assert_eq!(one("SELECT lower('ABC')"), Value::Text("abc".into()));
        assert_eq!(one("SELECT upper('abc')"), Value::Text("ABC".into()));
        assert_eq!(one("SELECT length('hello')"), Value::Int(5));
        assert_eq!(one("SELECT greatest(1, 5, 3)"), Value::Int(5));
        assert_eq!(one("SELECT least(2, NULL, 1)"), Value::Int(1));
    }

    #[test]
    fn generate_series_ints() {
        let d = db();
        let q = d.execute("SELECT * FROM generate_series(1, 5)").unwrap();
        assert_eq!(q.len(), 5);
        let q = d
            .execute("SELECT * FROM generate_series(10, 1, -3)")
            .unwrap();
        assert_eq!(q.len(), 4);
        assert!(d.execute("SELECT * FROM generate_series(1, 5, 0)").is_err());
    }

    #[test]
    fn generate_series_timestamps() {
        let d = db();
        let q = d
            .execute(
                "SELECT * FROM generate_series(timestamp '2015-01-01', \
                 timestamp '2015-01-02', interval '1 hour') AS time",
            )
            .unwrap();
        assert_eq!(q.len(), 25);
        assert_eq!(q.columns, vec!["time"]);
    }

    #[test]
    fn extract_epoch() {
        let d = db();
        let v = d
            .execute("SELECT extract_epoch(timestamp '1970-01-01 01:00')")
            .unwrap()
            .scalar()
            .unwrap()
            .clone();
        assert_eq!(v, Value::Int(3600));
    }

    #[test]
    fn pgfmu_stats_surfaces_engine_counters() {
        let d = db();
        d.execute("CREATE TABLE t (v int)").unwrap();
        d.execute("INSERT INTO t VALUES (1)").unwrap();
        d.execute("SELECT sqrt(4.0)").unwrap();
        d.execute("SELECT sqrt(4.0)").unwrap(); // cache hit + second call
        let q = d.execute("SELECT * FROM pgfmu_stats()").unwrap();
        assert_eq!(q.columns, vec!["stat", "value"]);
        let get = |stat: &str| -> i64 {
            q.rows
                .iter()
                .find(|r| r[0] == Value::Text(stat.into()))
                .unwrap_or_else(|| panic!("missing stat {stat}"))[1]
                .as_i64()
                .unwrap()
        };
        assert!(get("parses") >= 4);
        assert!(get("cache_hits") >= 1);
        assert!(get("stmt_cache_size") >= 1);
        assert_eq!(
            get("stmt_cache_capacity"),
            crate::db::DEFAULT_STMT_CACHE_CAPACITY as i64
        );
        assert_eq!(get("calls.sqrt"), 2);
        assert_eq!(get("calls.pgfmu_stats"), 1);
        assert!(get("shard_count") >= 1, "shard count is always at least 1");
        assert_eq!(get("write_shard_waits"), 0, "uncontended single thread");
        // Counters are monotone across calls.
        let q2 = d
            .execute("SELECT value FROM pgfmu_stats() WHERE stat = 'calls.pgfmu_stats'")
            .unwrap();
        assert_eq!(q2.rows[0][0], Value::Int(2));
    }
}
