//! # pgfmu-sqlmini — an in-memory relational DBMS substrate
//!
//! This crate stands in for PostgreSQL in the pgFMU reproduction. pgFMU's
//! contribution is a set of SQL-invocable UDFs plus a model catalogue; what
//! it needs from the DBMS is:
//!
//! * SQL query execution over ordinary tables (`SELECT [DISTINCT]` with
//!   projections, cross joins, WHERE/GROUP BY/HAVING/ORDER BY/LIMIT,
//!   hash-grouped aggregates; `INSERT … VALUES` and a streaming
//!   `INSERT … SELECT`; `UPDATE`; `DELETE`; `CREATE`/`DROP TABLE`) —
//!   compiled once into a shared physical plan, executed many times,
//!   with secondary indexes (`CREATE [UNIQUE] INDEX`) feeding a
//!   statistics-driven cost-based planner (`ANALYZE`, index point/range
//!   scans, hash equi-joins, `EXPLAIN`);
//! * **scalar and set-returning user-defined functions** that can re-enter
//!   the database — `fmu_parest` executes the user's `input_sql`, and
//!   `fmu_simulate` appears in `FROM` clauses, including the paper's
//!   `LATERAL`-join multi-instance pattern;
//! * a PostgreSQL-flavoured type system including `timestamp`, `interval`
//!   and the `variant` extension type the model catalogue relies on;
//! * a statement cache implementing the paper's "prepared SQL queries"
//!   optimization (§7), bounded by an LRU policy.
//!
//! ## Prepared statements, binds and typed decoding
//!
//! The client surface mirrors the PostgreSQL extended protocol:
//! [`Database::prepare`] parses once (with statement-cache reuse) and
//! returns a [`Statement`]; `$1..$n` placeholders are bound per execution
//! with [`Statement::query`], streamed with [`Statement::query_rows`]
//! (see [`Rows`]), or decoded into Rust types with
//! [`Statement::query_as`] via the [`FromRow`]/[`FromValue`] traits.
//! Binding sidesteps literal quoting entirely and repeated executions
//! never re-parse:
//!
//! ```
//! use pgfmu_sqlmini::{params, Database};
//!
//! let db = Database::new();
//! db.execute("CREATE TABLE measurements (ts timestamp, x float)").unwrap();
//! let insert = db.prepare("INSERT INTO measurements VALUES ($1, $2)").unwrap();
//! insert.query(params!["2015-02-01 00:00", 20.75]).unwrap();
//! insert.query(params!["2015-02-01 01:00", 23.25]).unwrap();
//! let avg: Vec<Option<f64>> = db
//!     .query_as("SELECT avg(x) FROM measurements WHERE x < $1", params![30.0])
//!     .unwrap();
//! assert_eq!(avg, vec![Some(22.0)]);
//! ```
//!
//! ## Grouped aggregation
//!
//! `GROUP BY` / `HAVING` run as a hash-grouping operator over the joined
//! input: `count`/`sum`/`avg`/`min`/`max` evaluate per group, grouping
//! keys may be arbitrary expressions (or select-list ordinals), and
//! placeholders bind inside grouping and `HAVING` clauses. Ungrouped
//! column references and aggregates in `WHERE` fail with PostgreSQL's
//! wording:
//!
//! ```
//! use pgfmu_sqlmini::{params, Database};
//!
//! let db = Database::new();
//! db.execute("CREATE TABLE m (site text, x float)").unwrap();
//! db.execute("INSERT INTO m VALUES ('a', 1.5), ('a', 2.5), ('b', 9.0)").unwrap();
//! let rows: Vec<(String, f64)> = db
//!     .query_as(
//!         "SELECT site, sum(x) FROM m GROUP BY site HAVING sum(x) > $1 ORDER BY site",
//!         params![3.0],
//!     )
//!     .unwrap();
//! assert_eq!(rows, vec![("a".into(), 4.0), ("b".into(), 9.0)]);
//! let err = db.execute("SELECT site, x, sum(x) FROM m GROUP BY site").unwrap_err();
//! assert_eq!(
//!     err.to_string(),
//!     "column \"x\" must appear in the GROUP BY clause or be used in an aggregate function",
//! );
//! ```
//!
//! ## UDFs and engine observability
//!
//! UDFs are declared through the typed [`Database::udf`] builder (argument
//! signatures, central coercion/arity errors — see [`udf::UdfBuilder`]),
//! and engine statistics are queryable in SQL via the `pgfmu_stats()`
//! set-returning function. It yields one `(stat text, value bigint)` row
//! per [`Stat`], in registry order (each variant documents its row), then
//! one `calls.<name>` row per typed UDF that has been invoked.
//! [`Database::stat`] reads the same values from Rust:
//!
//! ```
//! use pgfmu_sqlmini::{Database, Stat};
//!
//! let db = Database::new();
//! db.execute("SELECT sqrt(4.0)").unwrap();
//! let stats: Vec<(String, i64)> = db
//!     .query_as("SELECT stat, value FROM pgfmu_stats() ORDER BY stat", &[])
//!     .unwrap();
//! assert!(stats.iter().any(|(s, n)| s == "parses" && *n >= 1));
//! assert!(stats.iter().any(|(s, n)| s == "calls.sqrt" && *n == 1));
//! assert!(db.stat(Stat::Parses) >= 1);
//! // Grouped SQL works over the stats relation like any other:
//! let n: Vec<i64> = db
//!     .query_as("SELECT count(*) FROM pgfmu_stats() GROUP BY value >= 0", &[])
//!     .unwrap();
//! assert!(n[0] >= 4);
//! ```

pub mod ast;
pub(crate) mod batch;
pub(crate) mod cost;
mod counters;
pub mod db;
pub mod decode;
pub mod error;
pub mod exec;
pub mod functions;
pub(crate) mod index;
pub mod lexer;
pub mod parser;
pub(crate) mod plan;
pub(crate) mod stats;
pub mod table;
pub mod udf;
pub mod value;

pub use counters::Stat;
pub use db::{Database, Statement, DEFAULT_STMT_CACHE_CAPACITY};
pub use decode::{FromRow, FromValue, NamedRow, NamedRows, OwnedNamedRow};
pub use error::{Result, SqlError};
pub use exec::Rows;
pub use functions::{ScalarFn, TableFn};
pub use table::{Column, QueryResult, Row, Schema, Table};
pub use udf::{ArgKind, Args, UdfBuilder};
pub use value::{
    format_timestamp, parse_interval, parse_timestamp, timestamp_from_parts, DataType, Value,
};

/// Build a `&[Value]` bind-parameter slice from Rust values:
/// `params!["HP1Instance1", 20.75, None::<f64>]`. Each element goes through
/// [`Value::from`], so `Option<T>` encodes SQL NULL.
#[macro_export]
macro_rules! params {
    () => { &[] as &[$crate::Value] };
    ($($v:expr),+ $(,)?) => { &[$($crate::Value::from($v)),+][..] };
}
