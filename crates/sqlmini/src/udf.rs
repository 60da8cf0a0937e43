//! Typed UDF registration: declared argument signatures with central
//! coercion, arity checking and PostgreSQL-style error messages.
//!
//! [`Database::udf`] starts a [`UdfBuilder`]; the builder declares the
//! argument list (required, optional, variadic tail) and registers the
//! function body with [`UdfBuilder::scalar`] or [`UdfBuilder::table`]. By
//! the time the body runs, every argument has been arity-checked and
//! coerced to its declared kind, so the body reads arguments through the
//! infallible [`Args`] accessors instead of hand-rolled per-UDF parsing:
//!
//! ```
//! use pgfmu_sqlmini::{ArgKind, Database, Value};
//!
//! let db = Database::new();
//! db.udf("scale")
//!     .arg("x", ArgKind::Float)
//!     .opt_arg("factor", ArgKind::Float)
//!     .scalar(|_db, args| Ok(Value::Float(args.f64(0) * args.opt_f64(1).unwrap_or(2.0))));
//! assert_eq!(
//!     db.execute("SELECT scale(21)").unwrap().rows[0][0],
//!     Value::Float(42.0)
//! );
//! // Wrong arity and wrong types are rejected centrally:
//! assert!(db.execute("SELECT scale()").is_err());
//! assert!(db.execute("SELECT scale('a')").is_err());
//! ```
//!
//! Every function registered through the builder also maintains a call
//! counter, surfaced through the `pgfmu_stats()` set-returning function.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::db::Database;
use crate::error::{Result, SqlError};
use crate::table::Row;
use crate::value::{float_to_bigint, DataType, Value};

/// Declared kind of a UDF argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgKind {
    /// Text; no implicit conversions.
    Text,
    /// Double precision; integers widen implicitly.
    Float,
    /// 64-bit integer; integral floats narrow implicitly.
    Int,
    /// Boolean; accepts `0`/`1` and PostgreSQL boolean spellings.
    Bool,
    /// Timestamp; text literals parse implicitly.
    Timestamp,
    /// Any value, passed through untouched (the `variant` of signatures).
    Any,
}

impl ArgKind {
    /// SQL spelling used in signatures and error messages.
    pub fn name(self) -> &'static str {
        match self {
            ArgKind::Text => "text",
            ArgKind::Float => "double precision",
            ArgKind::Int => "integer",
            ArgKind::Bool => "boolean",
            ArgKind::Timestamp => "timestamp",
            ArgKind::Any => "any",
        }
    }

    /// Coerce a non-NULL value to this kind: `None` on a type mismatch,
    /// PostgreSQL's `bigint out of range` for an integral float outside
    /// the bigint range.
    fn coerce(self, v: &Value) -> Result<Option<Value>> {
        Ok(match (self, v) {
            (ArgKind::Any, v) => Some(v.clone()),
            (ArgKind::Text, Value::Text(_)) => Some(v.clone()),
            (ArgKind::Float, Value::Float(_)) => Some(v.clone()),
            (ArgKind::Float, Value::Int(i)) => Some(Value::Float(*i as f64)),
            (ArgKind::Int, Value::Int(_)) => Some(v.clone()),
            (ArgKind::Int, Value::Float(f)) if f.fract() == 0.0 => {
                Some(Value::Int(float_to_bigint(*f)?))
            }
            (ArgKind::Bool, _) => v.cast_to(DataType::Bool).ok(),
            (ArgKind::Timestamp, Value::Timestamp(_)) => Some(v.clone()),
            (ArgKind::Timestamp, Value::Text(s)) => {
                crate::value::parse_timestamp(s).ok().map(Value::Timestamp)
            }
            _ => None,
        })
    }
}

#[derive(Debug, Clone)]
struct ArgSpec {
    name: &'static str,
    kind: ArgKind,
    required: bool,
}

/// The declared signature of a typed UDF.
#[derive(Debug, Clone)]
struct UdfDef {
    name: String,
    args: Vec<ArgSpec>,
    variadic: Option<ArgKind>,
}

impl UdfDef {
    /// Human-readable signature for error messages, e.g.
    /// `fmu_create(modelref text [, instanceid text])`.
    fn signature(&self) -> String {
        let mut out = format!("{}(", self.name);
        let mut first = true;
        for a in &self.args {
            let piece = format!("{} {}", a.name, a.kind.name());
            if a.required {
                if !first {
                    out.push_str(", ");
                }
                out.push_str(&piece);
            } else {
                if !first {
                    out.push(' ');
                }
                out.push_str(&format!("[, {piece}]"));
            }
            first = false;
        }
        if let Some(kind) = self.variadic {
            out.push_str(&format!(
                "{}{} variadic…",
                if first { "" } else { ", " },
                kind.name()
            ));
        }
        out.push(')');
        out
    }

    fn arity_error(&self, raw: &[Value]) -> SqlError {
        let given: Vec<&str> = raw.iter().map(|v| v.data_type().name()).collect();
        SqlError::Type(format!(
            "function {}({}) does not exist; expected {}",
            self.name,
            given.join(", "),
            self.signature()
        ))
    }

    /// Arity check alone (used on the STRICT fast path, where a NULL
    /// argument short-circuits before coercion).
    fn check_arity(&self, raw: &[Value]) -> std::result::Result<(), SqlError> {
        let required = self.args.iter().filter(|a| a.required).count();
        let too_many = self.variadic.is_none() && raw.len() > self.args.len();
        if raw.len() < required || too_many {
            return Err(self.arity_error(raw));
        }
        Ok(())
    }

    /// Arity-check and coerce a raw argument slice into [`Args`].
    fn check(&self, raw: &[Value]) -> std::result::Result<Args, SqlError> {
        self.check_arity(raw)?;
        let mut values = Vec::with_capacity(self.args.len().max(raw.len()));
        for (i, v) in raw.iter().enumerate() {
            let (kind, arg_name, required) = match self.args.get(i) {
                Some(spec) => (spec.kind, spec.name, spec.required),
                None => (
                    self.variadic.expect("arity checked above"),
                    "variadic",
                    false,
                ),
            };
            if v.is_null() {
                if required && kind != ArgKind::Any {
                    return Err(SqlError::Type(format!(
                        "{}: argument {} ({arg_name}) must not be null; expected {}",
                        self.name,
                        i + 1,
                        self.signature()
                    )));
                }
                values.push(Value::Null);
                continue;
            }
            match kind.coerce(v)? {
                Some(coerced) => values.push(coerced),
                None => {
                    return Err(SqlError::Type(format!(
                        "{}: argument {} ({arg_name}) must be {}, not {}; expected {}",
                        self.name,
                        i + 1,
                        kind.name(),
                        v.data_type().name(),
                        self.signature()
                    )))
                }
            }
        }
        let given = raw.len();
        // Pad missing optional arguments with NULL so bodies index freely.
        while values.len() < self.args.len() {
            values.push(Value::Null);
        }
        Ok(Args { values, given })
    }
}

/// Validated, coerced UDF arguments. Missing optional arguments are padded
/// with NULL, so accessors can index the full declared signature. The
/// typed accessors panic only on misuse against the declared signature
/// (reading a `Float` argument as text, say) — a bug in the UDF body, not
/// reachable from SQL.
pub struct Args {
    values: Vec<Value>,
    given: usize,
}

impl Args {
    /// Number of arguments the caller actually supplied.
    pub fn given(&self) -> usize {
        self.given
    }

    /// Was argument `i` supplied (even if as an explicit NULL)?
    pub fn has(&self, i: usize) -> bool {
        i < self.given
    }

    /// All (coerced, padded) argument values.
    pub fn raw(&self) -> &[Value] {
        &self.values
    }

    /// The variadic tail starting at declared position `from`.
    pub fn rest(&self, from: usize) -> &[Value] {
        &self.values[from.min(self.values.len())..]
    }

    /// Argument `i` as a raw value.
    pub fn value(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// Required text argument `i`.
    pub fn text(&self, i: usize) -> &str {
        match &self.values[i] {
            Value::Text(s) => s,
            other => panic!("argument {i} declared text, found {other:?}"),
        }
    }

    /// Optional text argument `i` (`None` when omitted or NULL).
    pub fn opt_text(&self, i: usize) -> Option<&str> {
        match &self.values[i] {
            Value::Null => None,
            Value::Text(s) => Some(s),
            other => panic!("argument {i} declared text, found {other:?}"),
        }
    }

    /// Required float argument `i`.
    pub fn f64(&self, i: usize) -> f64 {
        self.values[i]
            .as_f64()
            .unwrap_or_else(|_| panic!("argument {i} declared numeric"))
    }

    /// Optional float argument `i`.
    pub fn opt_f64(&self, i: usize) -> Option<f64> {
        match &self.values[i] {
            Value::Null => None,
            v => Some(
                v.as_f64()
                    .unwrap_or_else(|_| panic!("argument {i} declared numeric")),
            ),
        }
    }

    /// Required integer argument `i`.
    pub fn i64(&self, i: usize) -> i64 {
        self.values[i]
            .as_i64()
            .unwrap_or_else(|_| panic!("argument {i} declared integer"))
    }

    /// Optional integer argument `i`.
    pub fn opt_i64(&self, i: usize) -> Option<i64> {
        match &self.values[i] {
            Value::Null => None,
            v => Some(
                v.as_i64()
                    .unwrap_or_else(|_| panic!("argument {i} declared integer")),
            ),
        }
    }

    /// Required boolean argument `i`.
    pub fn boolean(&self, i: usize) -> bool {
        self.values[i]
            .as_bool()
            .unwrap_or_else(|_| panic!("argument {i} declared boolean"))
    }
}

/// Builder for a typed UDF — see the [module docs](self).
pub struct UdfBuilder<'db> {
    db: &'db Database,
    def: UdfDef,
    strict: bool,
}

impl<'db> UdfBuilder<'db> {
    pub(crate) fn new(db: &'db Database, name: &str) -> Self {
        UdfBuilder {
            db,
            def: UdfDef {
                name: name.to_ascii_lowercase(),
                args: Vec::new(),
                variadic: None,
            },
            strict: false,
        }
    }

    /// Declare a required argument. Required arguments must precede
    /// optional ones.
    pub fn arg(mut self, name: &'static str, kind: ArgKind) -> Self {
        assert!(
            self.def.args.iter().all(|a| a.required),
            "required arguments must precede optional ones"
        );
        self.def.args.push(ArgSpec {
            name,
            kind,
            required: true,
        });
        self
    }

    /// Declare an optional argument (padded with NULL when omitted).
    pub fn opt_arg(mut self, name: &'static str, kind: ArgKind) -> Self {
        self.def.args.push(ArgSpec {
            name,
            kind,
            required: false,
        });
        self
    }

    /// Accept any number of trailing arguments of the given kind.
    pub fn variadic(mut self, kind: ArgKind) -> Self {
        self.def.variadic = Some(kind);
        self
    }

    /// PostgreSQL `STRICT` semantics: when any supplied argument is NULL
    /// the function returns NULL without running the body.
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// Register the function as a scalar UDF.
    pub fn scalar<F>(self, f: F)
    where
        F: Fn(&Database, &Args) -> Result<Value> + Send + Sync + 'static,
    {
        let def = Arc::new(self.def);
        let name = def.name.clone();
        let strict = self.strict;
        let counter = self.db.udf_counter(&name);
        self.db.register_scalar(&name, move |db, raw| {
            counter.fetch_add(1, Ordering::Relaxed);
            if strict && raw.iter().any(Value::is_null) {
                def.check_arity(raw)?; // arity errors still surface
                return Ok(Value::Null);
            }
            let args = def.check(raw)?;
            f(db, &args)
        });
    }

    /// Register the function as a set-returning UDF with the output
    /// `columns` it declares, as PostgreSQL's `RETURNS TABLE` does. The
    /// body returns only its rows, one value per declared column; the
    /// planner resolves names against the declaration, so a statement
    /// plans once however many rows a call returns. With
    /// [`UdfBuilder::strict`], a NULL argument yields zero rows
    /// (PostgreSQL STRICT semantics for SRFs) without running the body.
    pub fn table<F>(self, columns: &[&str], f: F)
    where
        F: Fn(&Database, &Args) -> Result<Vec<Row>> + Send + Sync + 'static,
    {
        let def = Arc::new(self.def);
        let name = def.name.clone();
        let strict = self.strict;
        let counter = self.db.udf_counter(&name);
        self.db.register_table_fn(&name, columns, move |db, raw| {
            counter.fetch_add(1, Ordering::Relaxed);
            if strict && raw.iter().any(Value::is_null) {
                def.check_arity(raw)?; // arity errors still surface
                return Ok(Vec::new());
            }
            let args = def.check(raw)?;
            f(db, &args)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        Database::new()
    }

    #[test]
    fn arity_errors_are_postgres_flavoured() {
        let d = db();
        d.udf("three")
            .arg("a", ArgKind::Text)
            .arg("b", ArgKind::Float)
            .opt_arg("c", ArgKind::Float)
            .scalar(|_db, args| Ok(Value::Float(args.f64(1))));
        let err = d.execute("SELECT three('x')").unwrap_err().to_string();
        assert!(err.contains("three(text) does not exist"), "{err}");
        assert!(
            err.contains("three(a text, b double precision [, c double precision])"),
            "{err}"
        );
        let err = d
            .execute("SELECT three('x', 1, 2, 3)")
            .unwrap_err()
            .to_string();
        assert!(err.contains("does not exist"), "{err}");
        assert_eq!(
            d.execute("SELECT three('x', 1)").unwrap().rows[0][0],
            Value::Float(1.0)
        );
    }

    #[test]
    fn type_mismatches_name_the_argument() {
        let d = db();
        d.udf("typed")
            .arg("id", ArgKind::Text)
            .arg("v", ArgKind::Float)
            .scalar(|_db, args| Ok(Value::Float(args.f64(1))));
        let err = d.execute("SELECT typed(1, 2)").unwrap_err().to_string();
        assert!(err.contains("argument 1 (id) must be text"), "{err}");
        let err = d.execute("SELECT typed('a', 'b')").unwrap_err().to_string();
        assert!(
            err.contains("argument 2 (v) must be double precision"),
            "{err}"
        );
        // Ints widen to float centrally.
        assert_eq!(
            d.execute("SELECT typed('a', 3)").unwrap().rows[0][0],
            Value::Float(3.0)
        );
    }

    #[test]
    fn null_required_arguments_are_rejected_unless_strict() {
        let d = db();
        d.udf("needs")
            .arg("x", ArgKind::Float)
            .scalar(|_db, args| Ok(Value::Float(args.f64(0) + 1.0)));
        let err = d.execute("SELECT needs(NULL)").unwrap_err().to_string();
        assert!(err.contains("must not be null"), "{err}");
        d.udf("lax")
            .arg("x", ArgKind::Float)
            .strict()
            .scalar(|_db, args| Ok(Value::Float(args.f64(0) + 1.0)));
        assert_eq!(
            d.execute("SELECT lax(NULL)").unwrap().rows[0][0],
            Value::Null
        );
        // Strict still reports arity errors.
        assert!(d.execute("SELECT lax(NULL, NULL)").is_err());
    }

    #[test]
    fn strict_table_functions_return_zero_rows_on_null() {
        let d = db();
        d.udf("expand")
            .arg("n", ArgKind::Int)
            .strict()
            .table(&["i"], |_db, args| {
                Ok((0..args.i64(0)).map(|i| vec![Value::Int(i)]).collect())
            });
        assert_eq!(d.execute("SELECT * FROM expand(3)").unwrap().len(), 3);
        assert_eq!(d.execute("SELECT * FROM expand(NULL)").unwrap().len(), 0);
        // Arity errors still beat the NULL short-circuit.
        assert!(d.execute("SELECT * FROM expand(NULL, 1)").is_err());
        // In a lateral join, NULL-argument rows contribute zero rows while
        // non-NULL rows still expand (PostgreSQL STRICT SRF semantics).
        d.execute("CREATE TABLE t (x int)").unwrap();
        d.execute("INSERT INTO t VALUES (2), (NULL), (1)").unwrap();
        let q = d
            .execute("SELECT i FROM t, LATERAL expand(t.x) AS i ORDER BY i")
            .unwrap();
        assert_eq!(q.len(), 3); // 2 rows from x=2, 0 from NULL, 1 from x=1
        assert_eq!(q.rows[0][0], Value::Int(0));
        assert_eq!(q.rows[2][0], Value::Int(1));
    }

    #[test]
    fn variadic_tail_is_coerced() {
        let d = db();
        d.udf("summed")
            .arg("label", ArgKind::Text)
            .variadic(ArgKind::Float)
            .scalar(|_db, args| {
                let s: f64 = args.rest(1).iter().map(|v| v.as_f64().unwrap()).sum();
                Ok(Value::Float(s))
            });
        assert_eq!(
            d.execute("SELECT summed('x', 1, 2.5, 3)").unwrap().rows[0][0],
            Value::Float(6.5)
        );
        assert!(d.execute("SELECT summed('x', 'y')").is_err());
    }

    #[test]
    fn optional_args_pad_with_null_and_report_given() {
        let d = db();
        d.udf("opt")
            .arg("a", ArgKind::Text)
            .opt_arg("b", ArgKind::Text)
            .scalar(|_db, args| {
                assert!(args.has(0));
                Ok(Value::Text(format!(
                    "{}:{}:{}",
                    args.text(0),
                    args.opt_text(1).unwrap_or("-"),
                    args.given()
                )))
            });
        assert_eq!(
            d.execute("SELECT opt('x')").unwrap().rows[0][0],
            Value::Text("x:-:1".into())
        );
        assert_eq!(
            d.execute("SELECT opt('x', 'y')").unwrap().rows[0][0],
            Value::Text("x:y:2".into())
        );
    }

    #[test]
    fn builder_functions_count_calls() {
        let d = db();
        d.udf("counted")
            .arg("x", ArgKind::Float)
            .scalar(|_db, args| Ok(Value::Float(args.f64(0))));
        d.execute("SELECT counted(1)").unwrap();
        d.execute("SELECT counted(2)").unwrap();
        let counts = d.udf_call_counts();
        let c = counts.iter().find(|(n, _)| n == "counted").unwrap();
        assert_eq!(c.1, 2);
    }

    #[test]
    fn timestamp_arguments_parse_text() {
        let d = db();
        d.udf("at")
            .arg("when", ArgKind::Timestamp)
            .scalar(|_db, args| Ok(args.value(0).clone()));
        let q = d.execute("SELECT at('2015-02-01 00:00')").unwrap();
        assert_eq!(
            q.rows[0][0],
            Value::Timestamp(crate::value::parse_timestamp("2015-02-01 00:00").unwrap())
        );
        assert!(d.execute("SELECT at('not a date')").is_err());
    }
}
