//! Query executor — the execute half of the plan → execute pipeline.
//!
//! Every statement runs from an immutable physical plan (see the
//! `plan` module): scans read the MVCC-visible rows of their snapshot,
//! the filter / group / having / project / sort operators evaluate the
//! plan's slot-resolved expressions in place, and plain `SELECT`s stream
//! their filter and projection through the [`Rows`] cursor — the cursor
//! holds the shared `Arc<PhysicalPlan>`, so repeated executions of a
//! prepared statement clone no expressions at all.
//!
//! Grouped aggregation is a hash operator over *row indices*: each input
//! row's `GROUP BY` key is evaluated and hashed (NULLs group together,
//! `-0.0`/`NaN` are canonicalized) and the row's index is appended to its
//! bucket — rows are never cloned into groups. Each distinct aggregate
//! call of the statement (deduplicated at plan time by expression
//! identity) is then folded exactly once per group, no matter how many
//! times it appears across the select list, `HAVING` and `ORDER BY`; the
//! lowered output expressions just read the memoized values.
//!
//! Every INSERT ends in the table's one append path
//! (`Database::append_rows`). `INSERT … SELECT` drains its source into a
//! batch first, so an error anywhere in the source leaves nothing behind.
//!
//! Writes are versioned: UPDATE and DELETE run one routine that ends
//! each target version and (for UPDATE) appends a successor, stamped
//! either with a fresh commit timestamp (auto-commit) or with the open
//! transaction's id, to be resolved at `COMMIT`/`ROLLBACK`. They find
//! their targets through the same scan and access path as SELECT.

use std::cmp::Ordering;
use std::collections::{hash_map::Entry, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use crate::ast::{walk_slots, Expr, InsertSource, Stmt, UnOp, AGGREGATE_FUNCTIONS};
use crate::batch;
use crate::cost::IndexChoice;
use crate::counters::Stat;
use crate::db::{Database, UndoEntry, WriteTxn};
use crate::decode::NamedRows;
use crate::error::{Result, SqlError};
use crate::plan::{
    unknown_column, AggCall, AggOp, DmlPlan, GroupPlan, InsertPlan, PhysicalPlan, PlanFn, ScanItem,
    SelectOps, StaticSelectPlan,
};
use crate::table::{
    rid_pos, rid_shard, Column, QueryResult, Rid, Row, Schema, Snapshot, Table, TableView, LIVE,
};
use crate::value::Value;

/// The values of one group during grouped evaluation: its key and its
/// memoized aggregate results, read by `GroupKey`/`Agg` expressions.
#[derive(Clone, Copy)]
struct GroupVals<'a> {
    key: &'a [Value],
    aggs: &'a [Value],
}

/// Everything expression evaluation needs besides the row: the database
/// (for UDF calls), the statement's bind parameters, and — inside the
/// grouping operator — the current group's key and aggregate values.
struct Ctx<'a> {
    db: &'a Database,
    params: &'a [Value],
    /// The plan's resolved scalar-function table (`Expr::ScalarCall`
    /// indexes); empty in contexts that evaluate raw AST expressions.
    fns: &'a [PlanFn],
    group: Option<GroupVals<'a>>,
}

/// No resolved functions — raw-AST evaluation contexts.
const NO_FNS: &[PlanFn] = &[];

// ---------------------------------------------------------------------------
// Value operations
// ---------------------------------------------------------------------------

/// Three-valued comparison; `None` when either side is NULL.
pub fn compare(a: &Value, b: &Value) -> Result<Option<Ordering>> {
    use Value::*;
    Ok(Some(match (a, b) {
        (Null, _) | (_, Null) => return Ok(None),
        (Int(x), Int(y)) => x.cmp(y),
        (Float(x), Float(y)) => x
            .partial_cmp(y)
            .ok_or_else(|| SqlError::Execution("NaN comparison".into()))?,
        (Int(x), Float(y)) => (*x as f64)
            .partial_cmp(y)
            .ok_or_else(|| SqlError::Execution("NaN comparison".into()))?,
        (Float(x), Int(y)) => x
            .partial_cmp(&(*y as f64))
            .ok_or_else(|| SqlError::Execution("NaN comparison".into()))?,
        (Text(x), Text(y)) => x.cmp(y),
        (Bool(x), Bool(y)) => x.cmp(y),
        (Timestamp(x), Timestamp(y)) => x.cmp(y),
        (Timestamp(x), Text(y)) => x.cmp(&crate::value::parse_timestamp(y)?),
        (Text(x), Timestamp(y)) => crate::value::parse_timestamp(x)?.cmp(y),
        (Interval(x), Interval(y)) => x.cmp(y),
        (x, y) => {
            return Err(SqlError::Type(format!(
                "cannot compare {} with {}",
                x.data_type().name(),
                y.data_type().name()
            )))
        }
    }))
}

/// Total ordering used by ORDER BY: NULLs sort last, mixed numerics compare
/// numerically, and NaN sorts after every non-NULL float (PostgreSQL's rule).
/// The NaN case must not collapse to `Equal`: the standard sort requires a
/// total order and aborts when `a == NaN`, `b == NaN`, but `a < b`.
pub fn order_cmp(a: &Value, b: &Value) -> Ordering {
    match (a.is_null(), b.is_null()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => {
            if let (Value::Float(x), Value::Float(y)) = (a, b) {
                return match (x.is_nan(), y.is_nan()) {
                    (true, true) => Ordering::Equal,
                    (true, false) => Ordering::Greater,
                    (false, true) => Ordering::Less,
                    (false, false) => x.partial_cmp(y).unwrap_or(Ordering::Equal),
                };
            }
            compare(a, b).ok().flatten().unwrap_or(Ordering::Equal)
        }
    }
}

fn arith(op: BinOpKind, a: &Value, b: &Value) -> Result<Value> {
    use BinOpKind::*;
    use Value::*;
    if a.is_null() || b.is_null() {
        return Ok(Null);
    }
    // Integer, timestamp and interval results are checked, so overflow is
    // an error in every build profile.
    match (op, a, b) {
        (Add, Int(x), Int(y)) => in_range(x.checked_add(*y), Int, "bigint"),
        (Sub, Int(x), Int(y)) => in_range(x.checked_sub(*y), Int, "bigint"),
        (Mul, Int(x), Int(y)) => in_range(x.checked_mul(*y), Int, "bigint"),
        (Div, Int(x), Int(y)) => {
            if *y == 0 {
                return Err(SqlError::Execution("division by zero".into()));
            }
            in_range(x.checked_div(*y), Int, "bigint")
        }
        // timestamp/interval arithmetic
        (Add, Timestamp(t), Interval(i)) | (Add, Interval(i), Timestamp(t)) => {
            in_range(t.checked_add(*i), Timestamp, "timestamp")
        }
        (Sub, Timestamp(t), Interval(i)) => in_range(t.checked_sub(*i), Timestamp, "timestamp"),
        (Sub, Timestamp(x), Timestamp(y)) => in_range(x.checked_sub(*y), Interval, "interval"),
        (Add, Interval(x), Interval(y)) => in_range(x.checked_add(*y), Interval, "interval"),
        (Sub, Interval(x), Interval(y)) => in_range(x.checked_sub(*y), Interval, "interval"),
        (Mul, Interval(x), Int(y)) | (Mul, Int(y), Interval(x)) => {
            in_range(x.checked_mul(*y), Interval, "interval")
        }
        // float-promoting arithmetic
        (op, x, y) => {
            let xf = x.as_f64()?;
            let yf = y.as_f64()?;
            Ok(match op {
                Add => Float(xf + yf),
                Sub => Float(xf - yf),
                Mul => Float(xf * yf),
                Div => {
                    if yf == 0.0 {
                        return Err(SqlError::Execution("division by zero".into()));
                    }
                    Float(xf / yf)
                }
            })
        }
    }
}

/// The result of a checked integer operation as a value built by `make`,
/// or PostgreSQL's "`what` out of range" error when it overflowed.
pub(crate) fn in_range(v: Option<i64>, make: fn(i64) -> Value, what: &str) -> Result<Value> {
    v.map(make)
        .ok_or_else(|| SqlError::Execution(format!("{what} out of range")))
}

/// Arithmetic subset of [`crate::ast::BinOp`] (keeps `arith` total).
#[derive(Clone, Copy)]
enum BinOpKind {
    Add,
    Sub,
    Mul,
    Div,
}

fn logical(and: bool, a: &Value, b: &Value) -> Result<Value> {
    let lhs = match a {
        Value::Null => None,
        v => Some(v.as_bool()?),
    };
    let rhs = match b {
        Value::Null => None,
        v => Some(v.as_bool()?),
    };
    // Kleene three-valued logic.
    Ok(if and {
        match (lhs, rhs) {
            (Some(false), _) | (_, Some(false)) => Value::Bool(false),
            (Some(true), Some(true)) => Value::Bool(true),
            _ => Value::Null,
        }
    } else {
        match (lhs, rhs) {
            (Some(true), _) | (_, Some(true)) => Value::Bool(true),
            (Some(false), Some(false)) => Value::Bool(false),
            _ => Value::Null,
        }
    })
}

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

fn eval(ctx: &Ctx<'_>, expr: &Expr, row: &[Value]) -> Result<Value> {
    use crate::ast::BinOp;
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Param(i) => ctx
            .params
            .get(*i - 1)
            .cloned()
            .ok_or_else(|| SqlError::Execution(format!("there is no parameter ${i}"))),
        Expr::Slot(i) => Ok(row[*i].clone()),
        Expr::GroupKey(i) => match &ctx.group {
            Some(g) => Ok(g.key[*i].clone()),
            None => Err(SqlError::Execution(
                "group key referenced outside the grouping operator".into(),
            )),
        },
        Expr::Agg(k) => match &ctx.group {
            Some(g) => Ok(g.aggs[*k].clone()),
            None => Err(SqlError::Execution(
                "aggregate referenced outside the grouping operator".into(),
            )),
        },
        // Plans hold only slots; a name reaches evaluation only from
        // INSERT … VALUES, which has no columns in scope.
        Expr::Column { table, name } => Err(unknown_column(table.as_deref(), name)),
        Expr::Unary { op, expr } => {
            let v = eval(ctx, expr, row)?;
            match op {
                UnOp::Neg => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Int(i) => in_range(i.checked_neg(), Value::Int, "bigint"),
                    Value::Float(f) => Ok(Value::Float(-f)),
                    Value::Interval(i) => in_range(i.checked_neg(), Value::Interval, "interval"),
                    other => Err(SqlError::Type(format!("cannot negate {other}"))),
                },
                UnOp::Not => match v {
                    Value::Null => Ok(Value::Null),
                    v => Ok(Value::Bool(!v.as_bool()?)),
                },
            }
        }
        Expr::Binary { op, left, right } => {
            // AND/OR short-circuit as in PostgreSQL: a false (resp. true)
            // left side decides without evaluating the right side.
            // (Kleene logic: NULL on the left still needs the right side.)
            if matches!(op, BinOp::And | BinOp::Or) {
                let a = eval(ctx, left, row)?;
                let and = matches!(op, BinOp::And);
                if let Ok(decided) = a.as_bool() {
                    if decided != and {
                        return Ok(Value::Bool(decided));
                    }
                }
                let b = eval(ctx, right, row)?;
                return logical(and, &a, &b);
            }
            let a = eval(ctx, left, row)?;
            let b = eval(ctx, right, row)?;
            match op {
                BinOp::Add => arith(BinOpKind::Add, &a, &b),
                BinOp::Sub => arith(BinOpKind::Sub, &a, &b),
                BinOp::Mul => arith(BinOpKind::Mul, &a, &b),
                BinOp::Div => arith(BinOpKind::Div, &a, &b),
                BinOp::And | BinOp::Or => {
                    unreachable!("AND/OR take the short-circuit path above")
                }
                BinOp::Concat => {
                    if a.is_null() || b.is_null() {
                        Ok(Value::Null)
                    } else {
                        Ok(Value::Text(format!("{a}{b}")))
                    }
                }
                cmp => {
                    let ord = compare(&a, &b)?;
                    Ok(match ord {
                        None => Value::Null,
                        Some(o) => Value::Bool(match cmp {
                            BinOp::Eq => o == Ordering::Equal,
                            BinOp::Ne => o != Ordering::Equal,
                            BinOp::Lt => o == Ordering::Less,
                            BinOp::Le => o != Ordering::Greater,
                            BinOp::Gt => o == Ordering::Greater,
                            BinOp::Ge => o != Ordering::Less,
                            _ => unreachable!(),
                        }),
                    })
                }
            }
        }
        Expr::Cast { expr, ty } => eval(ctx, expr, row)?.cast_to(*ty),
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let probe = eval(ctx, expr, row)?;
            if probe.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let v = eval(ctx, item, row)?;
                if v.is_null() {
                    saw_null = true;
                    continue;
                }
                if compare(&probe, &v)? == Some(Ordering::Equal) {
                    return Ok(Value::Bool(!negated));
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(ctx, expr, row)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Function {
            name,
            args,
            distinct,
        } => {
            if AGGREGATE_FUNCTIONS.contains(&name.as_str()) {
                return Err(SqlError::Execution(format!(
                    "aggregate function {name}() is not allowed here"
                )));
            }
            if *distinct {
                return Err(SqlError::Type(format!(
                    "DISTINCT specified, but {name} is not an aggregate function"
                )));
            }
            let vals: Result<Vec<Value>> = args.iter().map(|a| eval(ctx, a, row)).collect();
            ctx.db.call_scalar(name, &vals?)
        }
        Expr::ScalarCall { f, args } => {
            let vals: Result<Vec<Value>> = args.iter().map(|a| eval(ctx, a, row)).collect();
            let vals = vals?;
            match &ctx.fns[*f] {
                PlanFn::Udf(f) => f(ctx.db, &vals),
                PlanFn::Intrinsic {
                    op,
                    counter,
                    fallback,
                } => match crate::functions::eval_intrinsic(*op, &vals) {
                    Some(r) => {
                        counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        r
                    }
                    // A shape the native path does not handle: the
                    // registered UDF owns the error wording.
                    None => fallback(ctx.db, &vals),
                },
            }
        }
    }
}

/// Predicate-clause truthiness: NULL is not true. `clause` names the
/// clause in the type error (`WHERE`, `HAVING`).
fn is_true_in(v: &Value, clause: &str) -> Result<bool> {
    match v {
        Value::Null => Ok(false),
        v => v
            .as_bool()
            .map_err(|_| SqlError::Type(format!("argument of {clause} must be type boolean"))),
    }
}

/// WHERE-clause truthiness.
fn is_true(v: &Value) -> Result<bool> {
    is_true_in(v, "WHERE")
}

// ---------------------------------------------------------------------------
// Grouping keys and aggregation
// ---------------------------------------------------------------------------

/// Hashable, normalized form of one grouping-key (or DISTINCT row)
/// component. NULLs group together (as in PostgreSQL's GROUP BY), and
/// `-0.0`/`NaN` floats are canonicalized so every row lands in a stable
/// bucket.
#[derive(PartialEq, Eq, Hash)]
pub(crate) enum KeyAtom {
    Null,
    Bool(bool),
    Int(i64),
    Float(u64),
    Text(String),
    Timestamp(i64),
    Interval(i64),
}

/// The grouping identity of a float: `-0.0` and `0.0` share one bucket
/// and every NaN shares another. Both executors group floats by these
/// bits, so they bucket identically.
pub(crate) fn float_key_bits(f: f64) -> u64 {
    if f == 0.0 {
        0f64.to_bits()
    } else if f.is_nan() {
        f64::NAN.to_bits()
    } else {
        f.to_bits()
    }
}

impl KeyAtom {
    pub(crate) fn from_value(v: &Value) -> KeyAtom {
        match v {
            Value::Null => KeyAtom::Null,
            Value::Bool(b) => KeyAtom::Bool(*b),
            Value::Int(i) => KeyAtom::Int(*i),
            Value::Float(f) => KeyAtom::Float(float_key_bits(*f)),
            Value::Text(s) => KeyAtom::Text(s.clone()),
            Value::Timestamp(t) => KeyAtom::Timestamp(*t),
            Value::Interval(s) => KeyAtom::Interval(*s),
        }
    }

    fn row_key(row: &[Value]) -> Vec<KeyAtom> {
        row.iter().map(KeyAtom::from_value).collect()
    }
}

/// Streaming accumulator for one aggregate call of one group.
enum AggAcc {
    Count(i64),
    /// `count(DISTINCT x)`: the set of normalized non-NULL values seen.
    CountDistinct(HashSet<KeyAtom>),
    Sum {
        sum: f64,
        n: i64,
    },
    Avg {
        sum: f64,
        n: i64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggAcc {
    fn new(op: AggOp) -> AggAcc {
        match op {
            AggOp::CountStar | AggOp::Count => AggAcc::Count(0),
            AggOp::CountDistinct => AggAcc::CountDistinct(HashSet::new()),
            AggOp::Sum => AggAcc::Sum { sum: 0.0, n: 0 },
            AggOp::Avg => AggAcc::Avg { sum: 0.0, n: 0 },
            AggOp::Min => AggAcc::Min(None),
            AggOp::Max => AggAcc::Max(None),
        }
    }

    /// Fold one source row into the accumulator (NULL argument values are
    /// skipped, as in SQL aggregates).
    fn update(&mut self, ctx: &Ctx<'_>, call: &AggCall, row: &[Value]) -> Result<()> {
        if call.op == AggOp::CountStar {
            let AggAcc::Count(n) = self else {
                unreachable!()
            };
            *n += 1;
            return Ok(());
        }
        let v = eval(ctx, &call.args[0], row)?;
        if v.is_null() {
            return Ok(());
        }
        let is_min = matches!(self, AggAcc::Min(_));
        match self {
            AggAcc::Count(n) => *n += 1,
            AggAcc::CountDistinct(seen) => {
                seen.insert(KeyAtom::from_value(&v));
            }
            AggAcc::Sum { sum, n } | AggAcc::Avg { sum, n } => {
                *sum += v.as_f64()?;
                *n += 1;
            }
            AggAcc::Min(best) | AggAcc::Max(best) => {
                *best = Some(match best.take() {
                    None => v,
                    Some(b) => {
                        let keep_new = match compare(&v, &b)? {
                            Some(Ordering::Less) => is_min,
                            Some(Ordering::Greater) => !is_min,
                            _ => false,
                        };
                        if keep_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            AggAcc::Count(n) => Value::Int(n),
            AggAcc::CountDistinct(seen) => Value::Int(seen.len() as i64),
            AggAcc::Sum { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum)
                }
            }
            AggAcc::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            AggAcc::Min(best) | AggAcc::Max(best) => best.unwrap_or(Value::Null),
        }
    }
}

/// The grouping operator's accumulation pass, in one sweep over borrowed
/// source rows: apply the WHERE filter, hash each surviving row's key
/// into its bucket (rows are never cloned — only key values are kept),
/// and fold every distinct aggregate call incrementally. Returns each
/// group's `(key values, memoized aggregate values)`. No GROUP BY = one
/// group over the whole input, even when it is empty (the ungrouped
/// aggregate's one-row result).
fn grouped_groups<'r>(
    ctx: &Ctx<'_>,
    where_clause: Option<&Expr>,
    gp: &GroupPlan,
    rows: impl IntoIterator<Item = &'r Row>,
) -> Result<Vec<(Vec<Value>, Vec<Value>)>> {
    let mut index: HashMap<Vec<KeyAtom>, usize> = HashMap::new();
    let mut groups: Vec<(Vec<Value>, Vec<AggAcc>)> = Vec::new();
    let accs_new = || {
        gp.aggs
            .iter()
            .map(|c| AggAcc::new(c.op))
            .collect::<Vec<_>>()
    };
    if gp.keys.is_empty() {
        groups.push((Vec::new(), accs_new()));
    }
    let mut key: Vec<Value> = Vec::with_capacity(gp.keys.len());
    for r in rows {
        if let Some(p) = where_clause {
            if !is_true(&eval(ctx, p, r)?)? {
                continue;
            }
        }
        let gi = if gp.keys.is_empty() {
            0
        } else {
            key.clear();
            for e in &gp.keys {
                key.push(eval(ctx, e, r)?);
            }
            match index.entry(KeyAtom::row_key(&key)) {
                Entry::Occupied(o) => *o.get(),
                Entry::Vacant(v) => {
                    v.insert(groups.len());
                    groups.push((key.clone(), accs_new()));
                    groups.len() - 1
                }
            }
        };
        let (_, accs) = &mut groups[gi];
        for (acc, call) in accs.iter_mut().zip(&gp.aggs) {
            acc.update(ctx, call, r)?;
        }
    }
    // One memoized evaluation per (group, distinct call) — the
    // observability counter the memoization tests pin down.
    ctx.db
        .bump(Stat::AggEvals, (groups.len() * gp.aggs.len()) as u64);
    Ok(groups
        .into_iter()
        .map(|(key, accs)| (key, accs.into_iter().map(AggAcc::finish).collect()))
        .collect())
}

/// The grouping operator's emission pass (runs without any table guard):
/// per group, evaluate the lowered HAVING / projection / ORDER BY
/// expressions against the memoized key and aggregate values.
fn emit_groups(
    db: &Database,
    params: &[Value],
    ops: &SelectOps,
    groups: Vec<(Vec<Value>, Vec<Value>)>,
) -> Result<Vec<(Vec<Value>, Row)>> {
    let mut keyed = Vec::with_capacity(groups.len());
    let Some(gp) = &ops.group else {
        unreachable!("emit_groups runs under a group plan");
    };
    for (key, aggs) in &groups {
        let gctx = Ctx {
            db,
            params,
            fns: &ops.fns,
            group: Some(GroupVals { key, aggs }),
        };
        if let Some(h) = &gp.having {
            if !is_true_in(&eval(&gctx, h, &[])?, "HAVING")? {
                continue;
            }
        }
        let mut out = Vec::with_capacity(ops.projections.len());
        for e in &ops.projections {
            out.push(eval(&gctx, e, &[])?);
        }
        let mut sort_key = Vec::with_capacity(ops.order_by.len());
        for (e, _) in &ops.order_by {
            sort_key.push(eval(&gctx, e, &[])?);
        }
        keyed.push((sort_key, out));
    }
    Ok(keyed)
}

/// Shared tail of the grouped paths: DISTINCT deduplication, ordering
/// and LIMIT over the projected group rows.
fn grouped_tail(mut keyed: Vec<(Vec<Value>, Row)>, ops: &SelectOps) -> Vec<Row> {
    if ops.distinct {
        let mut seen = HashSet::new();
        keyed.retain(|(_, r)| seen.insert(KeyAtom::row_key(r)));
        sort_by_output(&mut keyed, &ops.distinct_order);
    } else {
        sort_keyed(&mut keyed, &ops.order_by);
    }
    keyed.into_iter().take(ops.limit).map(|(_, r)| r).collect()
}

// ---------------------------------------------------------------------------
// Streaming result cursor
// ---------------------------------------------------------------------------

/// A streaming query result: an iterator of `Result<Row>` plus column
/// names. For plain `SELECT`s (no `ORDER BY`, no `GROUP BY`, no
/// aggregates) the WHERE filter, the projection and DISTINCT
/// deduplication run lazily per [`Iterator::next`] call against the
/// shared physical plan, so consumers that stop early never pay for the
/// full result and repeated executions clone no expressions. When the
/// plan reads one table and classified every scan-side expression as
/// re-entrancy-free, the cursor streams **borrowed rows**: it pins the
/// table and an MVCC snapshot and refills a batch at a time under
/// short-lived read guards, holding no lock between refills — see
/// [`crate::Statement::query_rows`]. Otherwise it filters rows copied
/// out before it opened. Ordered and grouped/aggregated queries are
/// materialized up front, as both are pipeline breakers.
pub struct Rows<'db> {
    columns: Vec<String>,
    state: RowsState<'db>,
}

struct LazyScan<'db> {
    db: &'db Database,
    params: Vec<Value>,
    /// The shared plan — holds the operator pipeline and fns table.
    plan: Arc<PhysicalPlan>,
    source: std::vec::IntoIter<Row>,
    /// DISTINCT: projected rows already emitted.
    seen: Option<HashSet<Vec<KeyAtom>>>,
    remaining: usize,
    failed: bool,
}

/// How many output rows a streaming scan produces per read-guard
/// acquisition. Large enough to amortize the lock round-trip, small
/// enough that a writer waiting on the table gets in promptly.
const CURSOR_BATCH: usize = 128;

/// A zero-copy streaming scan over the cursor's MVCC snapshot: filter +
/// projection evaluate against rows borrowed from the version array,
/// refilled a batch at a time under short-lived read guards. No lock is
/// held between refills, so the consumer may freely write to the scanned
/// table mid-stream — its own appends carry commit timestamps newer than
/// the pinned snapshot and stay invisible, which keeps the stream
/// consistent. The cursor pins the table (not the lock) so compaction
/// cannot renumber versions while its position is saved.
struct MvccScan<'db> {
    db: &'db Database,
    params: Vec<Value>,
    /// The shared plan — holds the operator pipeline and fns table.
    plan: Arc<PhysicalPlan>,
    handle: Arc<parking_lot::RwLock<Table>>,
    /// The snapshot this cursor reads as of; writes stamped after its
    /// timestamp are invisible.
    snap: Snapshot,
    /// Projection as plain slot indices when every output is a bare
    /// column (skips expression dispatch per value).
    slot_projs: Option<Vec<usize>>,
    /// Index-scan candidate rids (ascending), probed when the cursor
    /// opened; `None` scans every version sequentially. The pin keeps
    /// the rids valid across refills.
    cand: Option<Vec<usize>>,
    /// Next shard a sequential walk reads (candidate scans derive the
    /// shard from the next rid instead).
    cur_shard: usize,
    /// Next arena-local position (sequential) or candidate-list index to
    /// examine on refill.
    next_version: usize,
    /// Shards below this are already unpinned: the cursor frees each
    /// shard for compaction as soon as it has streamed past it.
    unpinned_below: usize,
    /// Snapshot-visible rows examined so far (flushed to `rows_scanned`
    /// when the cursor drops).
    examined: u64,
    /// Output rows produced by the last refill, drained by `next()`.
    buf: VecDeque<Row>,
    /// DISTINCT: projected rows already emitted.
    seen: Option<HashSet<Vec<KeyAtom>>>,
    remaining: usize,
    failed: bool,
    /// An evaluation error hit during refill, surfaced after the rows
    /// buffered before it have been yielded (the per-row cursor's
    /// rows-then-error ordering).
    pending_err: Option<SqlError>,
    /// The version array is exhausted (or LIMIT reached) — no refill
    /// will produce more rows.
    done: bool,
}

impl Drop for MvccScan<'_> {
    fn drop(&mut self) {
        // `rows_scanned` counts rows actually examined: an early-stopping
        // consumer (LIMIT, partial drain) is charged only for what the
        // cursor read. Flushed once, when the cursor finishes — and the
        // pins on the shards not yet streamed past are released here
        // too, so dropping a half-consumed cursor promptly re-enables
        // compaction everywhere.
        self.db.bump(Stat::RowsScanned, self.examined);
        let guard = self.handle.read();
        for s in self.unpinned_below..guard.shard_count() {
            guard.unpin_shard(s);
        }
    }
}

impl MvccScan<'_> {
    /// Re-acquire the table read guard and walk versions from the saved
    /// position: visibility check, filter, projection (+ DISTINCT), until
    /// [`CURSOR_BATCH`] output rows are buffered, LIMIT is exhausted, or
    /// the version array ends. The guard drops on return.
    fn refill(&mut self) -> Result<()> {
        let mut buf = std::mem::take(&mut self.buf);
        let res = self.scan_rows(CURSOR_BATCH, &mut |r| buf.push_back(r));
        self.buf = buf;
        res
    }

    /// Drain every remaining output row straight into `out` under a
    /// single guard acquisition — the materializing (`into_result`)
    /// path, which wants the whole result at once and gains nothing
    /// from batched refills.
    fn drain_all(&mut self, out: &mut Vec<Row>) -> Result<()> {
        out.extend(self.buf.drain(..));
        if self.done {
            return Ok(());
        }
        self.scan_rows(usize::MAX, &mut |r| out.push(r))
    }

    fn scan_rows(&mut self, batch: usize, sink: &mut dyn FnMut(Row)) -> Result<()> {
        let MvccScan {
            db,
            params,
            plan,
            handle,
            snap,
            slot_projs,
            cand,
            cur_shard,
            next_version,
            unpinned_below,
            examined,
            buf: _,
            seen,
            remaining,
            failed: _,
            pending_err: _,
            done,
        } = self;
        let PhysicalPlan::StaticSelect(sp) = &**plan else {
            unreachable!("streaming scans hold a static SELECT plan");
        };
        let ctx = Ctx {
            db,
            params,
            fns: &sp.ops.fns,
            group: None,
        };
        let guard = handle.read();
        let nshards = guard.shard_count();
        // Refill shard by shard: only the shard being drained is read-
        // locked, so the stream contends with writers of that one shard,
        // and every shard the cursor has moved past is unpinned for
        // compaction. An index scan walks its candidate rids instead of
        // the heaps; either way rows appended mid-stream are skipped or
        // visibility-filtered — they are newer than the snapshot.
        let mut produced = 0usize;
        'scan: while *remaining > 0 && produced < batch {
            let shard = match cand {
                Some(c) => match c.get(*next_version) {
                    Some(&rid) => rid_shard(rid),
                    None => break,
                },
                None => {
                    if *cur_shard >= nshards {
                        break;
                    }
                    *cur_shard
                }
            };
            while *unpinned_below < shard {
                guard.unpin_shard(*unpinned_below);
                *unpinned_below += 1;
            }
            let sv = guard.shard_view(shard);
            let all_vis = sv.all_visible(*snap);
            let versions = sv.versions();
            loop {
                if produced >= batch {
                    break 'scan;
                }
                let pos = match cand {
                    Some(c) => match c.get(*next_version) {
                        Some(&rid) if rid_shard(rid) == shard => rid_pos(rid),
                        _ => break,
                    },
                    None if *next_version < versions.len() => *next_version,
                    None => break,
                };
                *next_version += 1;
                let v = &versions[pos];
                if !(all_vis || v.visible(*snap)) {
                    continue;
                }
                *examined += 1;
                let r = &v.data;
                if let Some(p) = &sp.ops.where_clause {
                    if !is_true(&eval(&ctx, p, r)?)? {
                        continue;
                    }
                }
                let out: Row = match slot_projs {
                    Some(slots) => slots.iter().map(|&s| r[s].clone()).collect(),
                    None => sp
                        .ops
                        .projections
                        .iter()
                        .map(|e| eval(&ctx, e, r))
                        .collect::<Result<_>>()?,
                };
                if let Some(seen) = seen.as_mut() {
                    if !seen.insert(KeyAtom::row_key(&out)) {
                        continue;
                    }
                }
                *remaining -= 1;
                produced += 1;
                sink(out);
                if *remaining == 0 {
                    break 'scan;
                }
            }
            // This shard is drained; a sequential walk restarts local
            // positions in the next one.
            if cand.is_none() {
                *next_version = 0;
            }
            *cur_shard = shard + 1;
        }
        let exhausted = match cand {
            Some(c) => *next_version >= c.len(),
            None => *cur_shard >= nshards,
        };
        if *remaining == 0 || exhausted {
            *done = true;
        }
        Ok(())
    }
}

enum RowsState<'db> {
    /// Fully materialized output rows.
    Done(std::vec::IntoIter<Row>),
    /// An externally produced row stream (e.g. `fmu_simulate` output
    /// assembly) surfaced through the same cursor type.
    Streamed(Box<dyn Iterator<Item = Result<Row>> + 'db>),
    /// Scan source with deferred filter + projection (+ DISTINCT).
    Lazy(Box<LazyScan<'db>>),
    /// Zero-copy scan streaming over a pinned MVCC snapshot, refilled in
    /// batches under short-lived read guards.
    Mvcc(Box<MvccScan<'db>>),
}

impl<'db> Rows<'db> {
    /// Wrap an already-materialized result.
    pub fn from_result(result: QueryResult) -> Rows<'db> {
        Rows {
            columns: result.columns,
            state: RowsState::Done(result.rows.into_iter()),
        }
    }

    /// Wrap an external row-producing iterator as a streaming cursor.
    pub fn streamed<I>(columns: Vec<String>, iter: I) -> Rows<'db>
    where
        I: Iterator<Item = Result<Row>> + 'db,
    {
        Rows {
            columns,
            state: RowsState::Streamed(Box::new(iter)),
        }
    }

    /// Output column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Convert into an iterator of by-name-addressable rows (see
    /// [`crate::decode::NamedRow`]).
    pub fn into_named(self) -> NamedRows<'db> {
        NamedRows::new(self)
    }

    /// Drain the cursor into a materialized [`QueryResult`].
    pub fn into_result(mut self) -> Result<QueryResult> {
        let mut q = QueryResult::new(std::mem::take(&mut self.columns));
        match &mut self.state {
            RowsState::Done(it) => {
                q.rows = it.collect();
                return Ok(q);
            }
            // Bulk drain: one guard acquisition, rows pushed straight
            // into the result, skipping `next()`'s per-row dispatch and
            // the batch buffer entirely.
            RowsState::Mvcc(scan) => {
                if let Some(e) = scan.pending_err.take() {
                    return Err(e);
                }
                if scan.failed {
                    q.rows.extend(scan.buf.drain(..));
                    return Ok(q);
                }
                scan.drain_all(&mut q.rows)?;
                return Ok(q);
            }
            _ => {}
        }
        for r in self {
            q.rows.push(r?);
        }
        Ok(q)
    }
}

impl Iterator for Rows<'_> {
    type Item = Result<Row>;

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.state {
            // Materialized output: the length is exact, so collecting
            // consumers (`query_as`, `into_result`) preallocate.
            RowsState::Done(it) => it.size_hint(),
            RowsState::Streamed(_) => (0, None),
            RowsState::Lazy(scan) => {
                if scan.failed {
                    (0, Some(0))
                } else {
                    (0, Some(scan.source.len().min(scan.remaining)))
                }
            }
            RowsState::Mvcc(scan) => {
                if scan.failed {
                    (0, Some(0))
                } else if scan.done && scan.pending_err.is_none() {
                    (scan.buf.len(), Some(scan.buf.len()))
                } else {
                    // Unlocked between refills: the total is unknowable
                    // without the guard, but buffered rows are certain.
                    (scan.buf.len(), None)
                }
            }
        }
    }

    fn count(self) -> usize {
        match self.state {
            // O(1) for materialized output — no per-row dispatch.
            RowsState::Done(it) => it.count(),
            state => Rows {
                columns: self.columns,
                state,
            }
            .fold(0, |n, _| n + 1),
        }
    }

    fn fold<B, G>(self, init: B, mut g: G) -> B
    where
        G: FnMut(B, Self::Item) -> B,
    {
        // Internal iteration over the materialized and streamed states
        // skips the per-row state dispatch of `next()` — `for_each`,
        // `sum`, `count` and friends all drain through here.
        match self.state {
            RowsState::Done(it) => it.fold(init, |acc, r| g(acc, Ok(r))),
            RowsState::Streamed(it) => it.fold(init, g),
            state => {
                let mut rows = Rows {
                    columns: self.columns,
                    state,
                };
                let mut acc = init;
                for item in &mut rows {
                    acc = g(acc, item);
                }
                acc
            }
        }
    }

    fn next(&mut self) -> Option<Result<Row>> {
        match &mut self.state {
            RowsState::Done(it) => it.next().map(Ok),
            RowsState::Streamed(it) => it.next(),
            RowsState::Lazy(scan) => {
                if scan.failed || scan.remaining == 0 {
                    return None;
                }
                let PhysicalPlan::StaticSelect(sp) = &*scan.plan else {
                    unreachable!("lazy cursors hold a SELECT plan");
                };
                let ops = &sp.ops;
                let ctx = Ctx {
                    db: scan.db,
                    params: &scan.params,
                    fns: &ops.fns,
                    group: None,
                };
                loop {
                    let r = scan.source.next()?;
                    match &ops.where_clause {
                        None => {}
                        Some(p) => match eval(&ctx, p, &r).and_then(|v| is_true(&v)) {
                            Ok(true) => {}
                            Ok(false) => continue,
                            Err(e) => {
                                scan.failed = true;
                                return Some(Err(e));
                            }
                        },
                    }
                    let mut out = Vec::with_capacity(ops.projections.len());
                    for e in &ops.projections {
                        match eval(&ctx, e, &r) {
                            Ok(v) => out.push(v),
                            Err(e) => {
                                scan.failed = true;
                                return Some(Err(e));
                            }
                        }
                    }
                    if let Some(seen) = &mut scan.seen {
                        if !seen.insert(KeyAtom::row_key(&out)) {
                            continue;
                        }
                    }
                    scan.remaining -= 1;
                    return Some(Ok(out));
                }
            }
            RowsState::Mvcc(scan) => loop {
                // Drain the buffered batch first; only when it runs dry
                // does the cursor take the table guard again to refill.
                if let Some(r) = scan.buf.pop_front() {
                    return Some(Ok(r));
                }
                if scan.failed {
                    return None;
                }
                if let Some(e) = scan.pending_err.take() {
                    scan.failed = true;
                    return Some(Err(e));
                }
                if scan.done {
                    return None;
                }
                if let Err(e) = scan.refill() {
                    scan.pending_err = Some(e);
                }
            },
        }
    }
}

// ---------------------------------------------------------------------------
// SELECT execution
// ---------------------------------------------------------------------------

/// A scanned table's schema no longer matches the cached plan — a DDL
/// race between the plan's epoch check and the scan. The caller's next
/// execution recompiles against the new epoch.
fn stale_plan(name: &str) -> SqlError {
    SqlError::Execution(format!(
        "cached plan is stale: relation \"{name}\" changed during execution"
    ))
}

/// Does a table's live schema still match the column layout a plan was
/// compiled against? Checked under the same guard the rows come from.
fn schema_matches(schema: &Schema, planned: &[String]) -> bool {
    schema.len() == planned.len()
        && schema
            .columns
            .iter()
            .zip(planned)
            .all(|(c, p)| c.name == *p)
}

/// Cross-join a snapshot of table rows onto the joined set so far. The
/// initial state (one empty row) short-circuits: `[[]] × T = T`.
fn cross_join(rows: Vec<Row>, trows: Vec<Row>) -> Vec<Row> {
    if rows.len() == 1 && rows[0].is_empty() {
        return trows;
    }
    let mut next = Vec::with_capacity(rows.len() * trows.len().max(1));
    for base in &rows {
        for tr in &trows {
            let mut r = base.clone();
            r.extend(tr.iter().cloned());
            next.push(r);
        }
    }
    next
}

/// Scan the FROM items of a SELECT plan into the joined row set. Every
/// table is read first, at one snapshot, and its schema re-checked
/// against the plan under the guard the rows come from (so `Slot`
/// indices stay in bounds and keep pointing at the planned columns); only
/// the columns the statement reads are cloned. Then the items join left
/// to right: each table cross-joins, and each function is called once per
/// joined row so far, with no guard held, since functions may re-enter
/// the database. A function's writes are thus invisible to every table of
/// the statement, as in PostgreSQL.
fn scan_tables(db: &Database, sp: &StaticSelectPlan, params: &[Value]) -> Result<Vec<Row>> {
    let tables: Vec<&ScanItem> = sp.from.iter().filter(|i| i.call.is_none()).collect();
    // Hold every distinct table's read guard *simultaneously* (acquired
    // in pointer order — the commit path's lock order) and load one
    // snapshot under them: the projections below are point-in-time
    // consistent across tables, and a writer (which stamps under its
    // write guard, see `Database::commit_ts`) can never slip a mutation
    // between this snapshot and the reads it covers.
    let handles: Vec<_> = tables
        .iter()
        .map(|t| db.get_table(&t.name))
        .collect::<Result<Vec<_>>>()?;
    let mut distinct: Vec<&Arc<parking_lot::RwLock<Table>>> = handles.iter().collect();
    distinct.sort_by_key(|h| Arc::as_ptr(h) as usize);
    distinct.dedup_by_key(|h| Arc::as_ptr(h) as usize);
    let guards: Vec<(usize, parking_lot::RwLockReadGuard<'_, Table>)> = distinct
        .iter()
        .map(|h| (Arc::as_ptr(h) as usize, h.read()))
        .collect();
    let snap = db.current_snapshot();
    let mut scanned: Vec<Vec<Row>> = Vec::with_capacity(tables.len());
    for (t, handle) in tables.iter().zip(&handles) {
        let key = Arc::as_ptr(handle) as usize;
        let (_, guard) = guards
            .iter()
            .find(|(p, _)| *p == key)
            .expect("every scanned table has a held guard");
        if !schema_matches(&guard.schema, &t.columns) {
            return Err(stale_plan(&t.name));
        }
        let trows = guard.project_rows(&t.used, snap);
        db.note_scan(trows.len() as u64, false);
        scanned.push(trows);
    }
    // Functions run with no guard held: they may re-enter the database.
    drop(guards);
    if let Some(hj) = &sp.hash_join {
        debug_assert_eq!(scanned.len(), 2, "hash joins are planned for two tables");
        let right = scanned.pop().expect("two scanned tables");
        let left = scanned.pop().expect("two scanned tables");
        // Right-side slots address the pruned concatenated layout; the
        // right table's own rows start after the left's pruned width.
        return hash_join_rows(
            db,
            left,
            right,
            hj.left_slot,
            hj.right_slot - sp.from[0].used.len(),
        );
    }
    let ctx = Ctx {
        db,
        params,
        fns: &sp.ops.fns,
        group: None,
    };
    let mut scanned = scanned.into_iter();
    let mut rows: Vec<Row> = vec![Vec::new()];
    for item in &sp.from {
        let Some(call) = &item.call else {
            rows = cross_join(rows, scanned.next().expect("every table was scanned"));
            continue;
        };
        let mut next = Vec::new();
        for base in &rows {
            let args = call
                .args
                .iter()
                .map(|a| eval(&ctx, a, base))
                .collect::<Result<Vec<_>>>()?;
            for fr in (call.f)(db, &args)? {
                if fr.len() != item.columns.len() {
                    return Err(SqlError::Execution(format!(
                        "function {} returned a row of {} values, but declares {} columns",
                        item.name,
                        fr.len(),
                        item.columns.len()
                    )));
                }
                if base.is_empty() {
                    next.push(fr);
                } else {
                    let mut r = base.clone();
                    r.extend(fr);
                    next.push(r);
                }
            }
        }
        rows = next;
    }
    Ok(rows)
}

/// Hash equi-join: build a hash table over the right rows' keys, probe
/// with each left row in scan order. Emission order (left-major, right
/// rows in scan order per match) and semantics match the nested loop the
/// cost model replaced: NULL keys never join, and a NaN key raises the
/// "NaN comparison" error a per-pair comparison would have raised —
/// whenever the other side has at least one non-NULL key to compare
/// against. The join conjunct stays in the WHERE clause and is re-checked
/// downstream; a hash match always passes it ([`KeyAtom`] equality
/// implies [`compare`] equality within one data type, which is all the
/// planner admits).
fn hash_join_rows(
    db: &Database,
    left: Vec<Row>,
    right: Vec<Row>,
    left_slot: usize,
    right_slot: usize,
) -> Result<Vec<Row>> {
    db.bump(Stat::HashJoins, 1);
    let nan_err = || SqlError::Execution("NaN comparison".into());
    let is_nan = |v: &Value| matches!(v, Value::Float(f) if f.is_nan());
    let mut table: HashMap<KeyAtom, Vec<usize>> = HashMap::new();
    let mut right_nan = false;
    let mut right_keys = 0usize;
    for (i, r) in right.iter().enumerate() {
        let v = &r[right_slot];
        if v.is_null() {
            continue;
        }
        right_keys += 1;
        if is_nan(v) {
            right_nan = true;
            continue;
        }
        table.entry(KeyAtom::from_value(v)).or_default().push(i);
    }
    let left_keys = left.iter().filter(|l| !l[left_slot].is_null()).count();
    if right_nan && left_keys > 0 {
        return Err(nan_err());
    }
    let mut out = Vec::new();
    for l in &left {
        let v = &l[left_slot];
        if v.is_null() {
            continue;
        }
        if is_nan(v) {
            if right_keys > 0 {
                return Err(nan_err());
            }
            continue;
        }
        if let Some(matches) = table.get(&KeyAtom::from_value(v)) {
            for &i in matches {
                let mut row = l.clone();
                row.extend(right[i].iter().cloned());
                out.push(row);
            }
        }
    }
    Ok(out)
}

/// Run the resolved operator pipeline over the scanned rows: either a
/// lazy cursor (plain SELECT) or an eager materialization (pipeline
/// breakers present).
fn run_select<'db>(
    db: &'db Database,
    plan: &Arc<PhysicalPlan>,
    source: Vec<Row>,
    params: &[Value],
) -> Result<Rows<'db>> {
    let PhysicalPlan::StaticSelect(sp) = &**plan else {
        unreachable!("run_select takes a SELECT plan");
    };
    let ops = &sp.ops;
    if ops.group.is_none() && ops.order_by.is_empty() && ops.distinct_order.is_empty() {
        return Ok(Rows {
            columns: ops.columns.clone(),
            state: RowsState::Lazy(Box::new(LazyScan {
                db,
                params: params.to_vec(),
                plan: Arc::clone(plan),
                source: source.into_iter(),
                seen: ops.distinct.then(HashSet::new),
                remaining: ops.limit,
                failed: false,
            })),
        });
    }
    let rows = materialize(db, ops, source, params)?;
    Ok(Rows {
        columns: ops.columns.clone(),
        state: RowsState::Done(rows.into_iter()),
    })
}

/// Eager pipeline: filter → \[group → having\] → project → \[distinct\]
/// → sort → limit.
fn materialize(
    db: &Database,
    ops: &SelectOps,
    source: Vec<Row>,
    params: &[Value],
) -> Result<Vec<Row>> {
    let ctx = Ctx {
        db,
        params,
        fns: &ops.fns,
        group: None,
    };

    if let Some(gp) = &ops.group {
        // Grouping applies its own WHERE during the accumulation sweep.
        let groups = grouped_groups(&ctx, ops.where_clause.as_ref(), gp, &source)?;
        let keyed = emit_groups(db, params, ops, groups)?;
        return Ok(grouped_tail(keyed, ops));
    }

    let mut rows = source;
    if let Some(pred) = &ops.where_clause {
        let mut kept = Vec::with_capacity(rows.len());
        for r in rows {
            if is_true(&eval(&ctx, pred, &r)?)? {
                kept.push(r);
            }
        }
        rows = kept;
    }

    let mut keyed: Vec<(Vec<Value>, Row)>;
    if ops.distinct {
        // DISTINCT sorts on projected columns, so project everything now.
        keyed = Vec::with_capacity(rows.len());
        for r in &rows {
            let mut out = Vec::with_capacity(ops.projections.len());
            for e in &ops.projections {
                out.push(eval(&ctx, e, r)?);
            }
            keyed.push((Vec::new(), out));
        }
    } else {
        // Ordered: sort keys evaluate per source row; projection runs after
        // the sort, only for the rows LIMIT keeps.
        keyed = Vec::with_capacity(rows.len());
        for r in rows {
            let mut sort_key = Vec::with_capacity(ops.order_by.len());
            for (e, _) in &ops.order_by {
                sort_key.push(eval(&ctx, e, &r)?);
            }
            keyed.push((sort_key, r));
        }
    }

    if ops.distinct {
        return Ok(grouped_tail(keyed, ops));
    }
    sort_keyed(&mut keyed, &ops.order_by);
    let mut out_rows = Vec::with_capacity(keyed.len().min(ops.limit));
    for (_, r) in keyed.into_iter().take(ops.limit) {
        let mut out = Vec::with_capacity(ops.projections.len());
        for e in &ops.projections {
            out.push(eval(&ctx, e, &r)?);
        }
        out_rows.push(out);
    }
    Ok(out_rows)
}

/// Stable multi-key sort shared by the grouped and plain ORDER BY paths.
fn sort_keyed(keyed: &mut [(Vec<Value>, Row)], order_by: &[(Expr, bool)]) {
    if order_by.is_empty() {
        return;
    }
    keyed.sort_by(|(ka, _), (kb, _)| {
        for (i, (_, desc)) in order_by.iter().enumerate() {
            let o = order_cmp(&ka[i], &kb[i]);
            let o = if *desc { o.reverse() } else { o };
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    });
}

/// DISTINCT ordering: sort deduplicated rows on projected column indices.
fn sort_by_output(keyed: &mut [(Vec<Value>, Row)], spec: &[(usize, bool)]) {
    if spec.is_empty() {
        return;
    }
    keyed.sort_by(|(_, ra), (_, rb)| {
        for (i, desc) in spec {
            let o = order_cmp(&ra[*i], &rb[*i]);
            let o = if *desc { o.reverse() } else { o };
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    });
}

/// Evaluate a plan's index access path into candidate rids (ascending —
/// index scans visit rows in rid order, so results match a sequential
/// scan byte for byte). `None` falls back to the sequential scan: no
/// access path was planned, the index vanished since planning (epoch
/// races), or a bound does not map into the key space (the per-row
/// comparison must then surface its own errors). Candidates are a
/// superset of the matches; the caller still applies snapshot visibility
/// and the full WHERE clause.
fn probe_access(
    ctx: &Ctx<'_>,
    access: Option<&IndexChoice>,
    guard: &Table,
    view: &TableView<'_>,
) -> Result<Option<Vec<usize>>> {
    let Some(a) = access else {
        return Ok(None);
    };
    let Some((ordinal, meta)) = guard.find_index(&a.index_name) else {
        return Ok(None);
    };
    if meta.column != a.column {
        return Ok(None);
    }
    let lo = match &a.lo {
        Some(e) => Some(eval(ctx, e, &[])?),
        None => None,
    };
    let hi = match &a.hi {
        Some(e) => Some(eval(ctx, e, &[])?),
        None => None,
    };
    Ok(view.probe(ordinal, a.space, lo.as_ref(), hi.as_ref()))
}

/// The slots a statement's batch must fill: every slot any of `exprs`
/// reads, deduplicated.
fn batch_slots<'e>(exprs: impl Iterator<Item = &'e Expr>) -> Vec<usize> {
    let mut slots: Vec<usize> = Vec::new();
    {
        let mut mark = |i: usize| slots.push(i);
        for e in exprs {
            walk_slots(e, &mut mark);
        }
    }
    slots.sort_unstable();
    slots.dedup();
    slots
}

/// Vectorized grouped accumulation: fill a column batch from the
/// visible-row view, evaluate the filter batch-at-a-time, materialize
/// key and aggregate-argument columns over the surviving selection, and
/// fold whole column slices per group. Returns the same
/// `(key values, aggregate values)` contract as [`grouped_groups`];
/// `Err(Fallback)` means the caller must re-run the scalar sweep.
fn vec_grouped(
    ctx: &Ctx<'_>,
    where_clause: Option<&Expr>,
    gp: &GroupPlan,
    schema: &Schema,
    view: &[&Row],
) -> batch::VResult<Vec<(Vec<Value>, Vec<Value>)>> {
    let db = ctx.db;
    let slots = batch_slots(
        where_clause
            .into_iter()
            .chain(&gp.keys)
            .chain(gp.aggs.iter().flat_map(|c| &c.args)),
    );
    let b = batch::Batch::fill(schema, view, &slots)?;
    db.bump(Stat::BatchesFilled, 1);
    let cx = batch::VecCtx {
        params: ctx.params,
        fns: ctx.fns,
    };
    let sel = batch::filter(where_clause, &b, &cx)?;
    let n = sel.len();
    let mut keys = Vec::with_capacity(gp.keys.len());
    for e in &gp.keys {
        keys.push(batch::eval(e, &b, &sel, &cx)?.materialize(n)?);
    }
    let mut aggs = Vec::with_capacity(gp.aggs.len());
    for c in &gp.aggs {
        let arg = match c.args.as_slice() {
            [] => None,
            [a] => Some(batch::eval(a, &b, &sel, &cx)?.materialize(n)?),
            _ => return Err(batch::Fallback),
        };
        aggs.push((c.op, arg));
    }
    let groups = batch::grouped_fold(&keys, &aggs, n)?;
    db.bump(Stat::VectorizedOps, 1);
    // Same memoization contract the scalar sweep reports.
    db.bump(Stat::AggEvals, (groups.len() * gp.aggs.len()) as u64);
    Ok(groups)
}

/// Vectorized ordered SELECT: filter batch-at-a-time, sort indices over
/// the one typed key column — through the bounded top-K heap when a
/// LIMIT keeps fewer rows than survive the filter — and project only
/// the chosen rows. Returns the finished (sorted, limited) output rows;
/// `Err(Fallback)` means the caller must re-run the scalar path.
fn vec_ordered(
    ctx: &Ctx<'_>,
    where_clause: Option<&Expr>,
    order_by: &[(Expr, bool)],
    schema: &Schema,
    view: &[&Row],
    limit: usize,
    project: &dyn Fn(&Row) -> Result<Row>,
) -> batch::VResult<Vec<Row>> {
    let db = ctx.db;
    let [(key_expr, desc)] = order_by else {
        return Err(batch::Fallback);
    };
    let slots = batch_slots(where_clause.into_iter().chain([key_expr]));
    let b = batch::Batch::fill(schema, view, &slots)?;
    db.bump(Stat::BatchesFilled, 1);
    let cx = batch::VecCtx {
        params: ctx.params,
        fns: ctx.fns,
    };
    let sel = batch::filter(where_clause, &b, &cx)?;
    let n = sel.len();
    let key = batch::eval(key_expr, &b, &sel, &cx)?.materialize(n)?;
    let order = if limit < n {
        // The heap serves every key column: `lane_cmp` orders NaN after
        // every float and NULLs last, so with the lane-index tie-break
        // it yields exactly the stable sort's first `limit` lanes.
        batch::top_k_indices(&key, *desc, limit)
    } else {
        batch::sort_indices(&key, *desc)
    };
    db.bump(Stat::VectorizedOps, 1);
    let mut out = Vec::with_capacity(order.len());
    for lane in order {
        let r = view[sel[lane as usize] as usize];
        out.push(project(r).map_err(|_| batch::Fallback)?);
    }
    Ok(out)
}

/// The one scan prologue of a single-table statement, run under the
/// guard its rows come from: re-check the planned schema, load the
/// statement's snapshot, open the table's view and probe the plan's
/// access path, counting which path ran. Returns the snapshot, the view
/// and the index candidates (`None`: walk every version).
fn open_scan<'t>(
    ctx: &Ctx<'_>,
    table: &'t Table,
    name: &str,
    columns: &[String],
    access: Option<&IndexChoice>,
) -> Result<(Snapshot, TableView<'t>, Option<Vec<Rid>>)> {
    if !schema_matches(&table.schema, columns) {
        return Err(stale_plan(name));
    }
    let snap = ctx.db.current_snapshot();
    let view = table.view();
    let cand = probe_access(ctx, access, table, &view)?;
    ctx.db.note_access(cand.is_some());
    Ok((snap, view, cand))
}

/// Copy-out, the row source of statements whose expressions may
/// re-enter the database: under the table's read guard, hand each
/// candidate row visible to the statement's snapshot to `keep`, with its
/// rid. The guard drops on return, so the caller evaluates what it kept
/// with no guard held.
fn copy_out(
    ctx: &Ctx<'_>,
    handle: &parking_lot::RwLock<Table>,
    name: &str,
    columns: &[String],
    access: Option<&IndexChoice>,
    mut keep: impl FnMut(Rid, &Row),
) -> Result<()> {
    let guard = handle.read();
    let (snap, view, cand) = open_scan(ctx, &guard, name, columns, access)?;
    let mut copied = 0u64;
    view.scan(cand.as_deref(), snap).for_each(|(rid, v)| {
        copied += 1;
        keep(rid, &v.data);
    });
    ctx.db.note_scan(copied, false);
    Ok(())
}

/// Borrowed rows for a grouped or ordered SELECT: collect the candidate
/// rows visible to the statement's snapshot under the table's read
/// guard, once, and run `f` over that slice (the vectorized kernel, the
/// scalar operator, or the scalar re-run after a batch `Fallback`). The
/// guard drops when `f` returns.
fn borrow_rows<T>(
    ctx: &Ctx<'_>,
    handle: &parking_lot::RwLock<Table>,
    t: &ScanItem,
    access: Option<&IndexChoice>,
    f: impl FnOnce(&Schema, &[&Row]) -> Result<T>,
) -> Result<T> {
    let guard = handle.read();
    let (snap, view, cand) = open_scan(ctx, &guard, &t.name, &t.columns, access)?;
    let mut rows: Vec<&Row> = Vec::new();
    // `for_each` iterates internally: the scan dispatches once, not per
    // row as `collect` would.
    view.scan(cand.as_deref(), snap)
        .for_each(|(_, v)| rows.push(&v.data));
    let out = f(&guard.schema, &rows)?;
    ctx.db.note_scan(rows.len() as u64, true);
    Ok(out)
}

/// Execute a static SELECT plan. A single-table plan reads its table
/// through its access path, from borrowed rows under the read guard or
/// from a copy-out; joins, function scans and FROM-less SELECTs read one
/// snapshot of every table. A plain SELECT streams — over borrowed rows
/// through an [`MvccScan`] cursor that refills in batches, otherwise
/// through a lazy filter over the copied rows; every other shape is
/// materialized before it returns.
fn run_static_select<'db>(
    db: &'db Database,
    plan: &Arc<PhysicalPlan>,
    params: &[Value],
) -> Result<Rows<'db>> {
    let PhysicalPlan::StaticSelect(sp) = &**plan else {
        unreachable!("run_static_select takes a static SELECT plan");
    };
    let (Some(scan), [t]) = (&sp.table, sp.from.as_slice()) else {
        let rows = scan_tables(db, sp, params)?;
        return run_select(db, plan, rows, params);
    };
    let ops = &sp.ops;
    let handle = db.get_table(&t.name)?;
    let ctx = Ctx {
        db,
        params,
        fns: &ops.fns,
        group: None,
    };
    let access = scan.access.as_ref();
    if !scan.under_guard {
        // Copy-out: keep only the columns the statement reads (NULL in
        // the others, so the plan's full-layout slots still address
        // them; no slot reaches past the last one read), then run the
        // pipeline with no guard held.
        let mut read = vec![false; t.used.last().map_or(0, |&c| c + 1)];
        for &c in &t.used {
            read[c] = true;
        }
        let mut rows: Vec<Row> = Vec::new();
        copy_out(&ctx, &handle, &t.name, &t.columns, access, |_, r| {
            let row = r.iter().zip(&read);
            rows.push(
                row.map(|(v, &read)| if read { v.clone() } else { Value::Null })
                    .collect(),
            );
        })?;
        return run_select(db, plan, rows, params);
    }
    // Borrowed rows: the statement runs directly over the table's
    // version array under the read guard — rows are never copied, and
    // only the projection of rows that are snapshot-visible and survive
    // the filter is materialized.
    let where_clause = ops.where_clause.as_ref();
    let output = if let Some(gp) = &ops.group {
        // Grouped: the accumulation sweep folds borrowed rows under the
        // guard; emission (HAVING, projection, ORDER BY — which may
        // still call arbitrary UDFs) runs after it drops.
        let groups = borrow_rows(&ctx, &handle, t, access, |schema, rows| {
            if scan.vectorized {
                // Fold whole column slices per group. Any shape the
                // typed kernels cannot reproduce byte-identically re-runs
                // the scalar sweep over the same rows.
                match vec_grouped(&ctx, where_clause, gp, schema, rows) {
                    Ok(groups) => return Ok(groups),
                    Err(batch::Fallback) => db.bump(Stat::VectorizedFallbacks, 1),
                }
            }
            grouped_groups(&ctx, where_clause, gp, rows.iter().copied())
        })?;
        grouped_tail(emit_groups(db, params, ops, groups)?, ops)
    } else {
        // Projection lists that are plain column references (the common
        // `SELECT a, b, c` shape) clone slots directly, skipping
        // expression dispatch per value.
        let slot_projs: Option<Vec<usize>> = ops
            .projections
            .iter()
            .map(|e| match e {
                Expr::Slot(i) => Some(*i),
                _ => None,
            })
            .collect();
        if ops.order_by.is_empty() && ops.distinct_order.is_empty() {
            // True streaming: the cursor pins the table and an MVCC
            // snapshot, then filters/projects borrowed rows in batches
            // under short-lived read guards — early-stopping consumers
            // pay only for what they read, and the consumer may write to
            // the scanned table between batches (its writes are newer
            // than the snapshot and stay invisible to the stream).
            let (snap, cand) = {
                let guard = handle.read();
                // Pin before loading the snapshot so compaction cannot
                // renumber versions under the cursor (the same pin keeps
                // any probed candidate positions valid across refills).
                guard.pin();
                let opened = open_scan(&ctx, &guard, &t.name, &t.columns, access);
                match opened {
                    Ok((snap, _, cand)) => (snap, cand),
                    Err(e) => {
                        guard.unpin();
                        return Err(e);
                    }
                }
            };
            // Rows examined are charged when the cursor finishes (see
            // `MvccScan::drop`); only the strategy is recorded here.
            db.note_scan(0, true);
            return Ok(Rows {
                columns: ops.columns.clone(),
                state: RowsState::Mvcc(Box::new(MvccScan {
                    db,
                    params: params.to_vec(),
                    plan: Arc::clone(plan),
                    handle,
                    snap,
                    slot_projs,
                    cand,
                    cur_shard: 0,
                    next_version: 0,
                    unpinned_below: 0,
                    examined: 0,
                    buf: VecDeque::new(),
                    seen: ops.distinct.then(HashSet::new),
                    remaining: ops.limit,
                    failed: false,
                    pending_err: None,
                    done: false,
                })),
            });
        }
        let project = |r: &Row| -> Result<Row> {
            match &slot_projs {
                Some(slots) => Ok(slots.iter().map(|&i| r[i].clone()).collect()),
                None => {
                    let mut out = Vec::with_capacity(ops.projections.len());
                    for e in &ops.projections {
                        out.push(eval(&ctx, e, r)?);
                    }
                    Ok(out)
                }
            }
        };
        borrow_rows(&ctx, &handle, t, access, |schema, rows| {
            if scan.vectorized {
                // Specialized single-key index sort (or the bounded
                // top-K heap when LIMIT applies) over a typed key column;
                // only the surviving rows are projected. A batch the
                // kernels cannot reproduce re-runs the scalar path over
                // the same rows.
                match vec_ordered(
                    &ctx,
                    where_clause,
                    &ops.order_by,
                    schema,
                    rows,
                    ops.limit,
                    &project,
                ) {
                    Ok(out) => return Ok(out),
                    Err(batch::Fallback) => db.bump(Stat::VectorizedFallbacks, 1),
                }
            }
            // Sort keys and projections evaluate per surviving row; the
            // sort (and DISTINCT + LIMIT) runs on those pruned
            // projections, never on full-row clones.
            let mut keyed: Vec<(Vec<Value>, Row)> = Vec::new();
            for &r in rows {
                if let Some(p) = where_clause {
                    if !is_true(&eval(&ctx, p, r)?)? {
                        continue;
                    }
                }
                let mut sort_key = Vec::with_capacity(ops.order_by.len());
                for (e, _) in &ops.order_by {
                    sort_key.push(eval(&ctx, e, r)?);
                }
                keyed.push((sort_key, project(r)?));
            }
            Ok(grouped_tail(keyed, ops))
        })?
    };
    Ok(Rows {
        columns: ops.columns.clone(),
        state: RowsState::Done(output.into_iter()),
    })
}

// ---------------------------------------------------------------------------
// DML / DDL execution
// ---------------------------------------------------------------------------

/// One-row `count` status result shared by the DML statements.
fn count_result<'db>(n: i64) -> Rows<'db> {
    let mut q = QueryResult::new(vec!["count".into()]);
    q.rows.push(vec![Value::Int(n)]);
    Rows::from_result(q)
}

/// Map a source row onto the target schema through an INSERT column list.
fn map_insert_row(r: Row, ip: &InsertPlan) -> Result<Row> {
    match &ip.column_idxs {
        None => Ok(r),
        Some(idxs) => {
            if r.len() != idxs.len() {
                return Err(SqlError::Constraint(format!(
                    "INSERT row has {} values for {} columns",
                    r.len(),
                    idxs.len()
                )));
            }
            let mut full = vec![Value::Null; ip.schema_len];
            for (v, &i) in r.into_iter().zip(idxs) {
                full[i] = v;
            }
            Ok(full)
        }
    }
}

/// First-updater-wins write conflict under snapshot isolation
/// (PostgreSQL's REPEATABLE READ wording).
fn serialize_conflict() -> SqlError {
    SqlError::Execution("could not serialize access due to concurrent update".into())
}

/// RAII table pin for auto-commit writes that hold version indices
/// across guard releases: blocks compaction (which renumbers versions)
/// until the statement finishes. Transactional writes pin through
/// [`Database::txn_pin`] instead, which holds until COMMIT/ROLLBACK.
struct TablePin<'a> {
    handle: &'a Arc<parking_lot::RwLock<Table>>,
}

impl<'a> TablePin<'a> {
    fn new(handle: &'a Arc<parking_lot::RwLock<Table>>) -> TablePin<'a> {
        handle.read().pin();
        TablePin { handle }
    }
}

impl Drop for TablePin<'_> {
    fn drop(&mut self) {
        self.handle.read().unpin();
    }
}

/// INSERT: evaluate every source row, then hand the batch to the table's
/// one append path ([`Database::append_rows`]). Evaluation holds no table
/// lock, since VALUES expressions and SELECT UDFs may re-enter the
/// database; only a zero-copy SELECT source, whose expressions cannot,
/// drains in one bulk pass under its read guard. Draining first means
/// `INSERT INTO t SELECT … FROM t` sees only the pre-statement rows, and
/// a source error leaves the table untouched.
fn run_insert<'db>(
    db: &'db Database,
    stmt: &Stmt,
    ip: &InsertPlan,
    params: &[Value],
) -> Result<Rows<'db>> {
    let Stmt::Insert { source, .. } = stmt else {
        unreachable!("insert plan compiled from a non-INSERT statement");
    };
    let handle = db.get_table(&ip.table)?;
    // The plan's column mapping is positional: if the target's schema
    // changed since planning (a DDL race past the epoch check), fail as
    // stale instead of silently mapping values into the wrong columns.
    // One check suffices — a table object's schema never mutates (DDL
    // replaces the whole table), so the handle stays consistent with it.
    if !schema_matches(&handle.read().schema, &ip.schema_cols) {
        return Err(stale_plan(&ip.table));
    }
    let rows = match source {
        InsertSource::Values(rows) => {
            let ctx = Ctx {
                db,
                params,
                fns: NO_FNS,
                group: None,
            };
            rows.iter()
                .map(|row| row.iter().map(|e| eval(&ctx, e, &[])).collect())
                .collect::<Result<Vec<Row>>>()?
        }
        InsertSource::Select(_) => {
            let src_plan = ip
                .source
                .as_ref()
                .expect("INSERT … SELECT has a source plan");
            run_static_select(db, src_plan, params)?.into_result()?.rows
        }
    };
    let n = db.append_rows(&handle, rows, |r| map_insert_row(r, ip))?;
    Ok(count_result(n as i64))
}

/// UPDATE and DELETE (a DELETE is an UPDATE without a SET list). Every
/// target version is collected first, through the scan prologue and row
/// sources a single-table SELECT uses — index candidates when the plan
/// chose an access path — so an UPDATE that moves an indexed key never
/// revisits its own successors and an evaluation error leaves the table
/// untouched. Then, under the write guard and one write stamp, each
/// target is ended and each UPDATE successor appended. A target another transaction has already ended
/// is a first-updater-wins conflict.
fn run_dml<'db>(db: &'db Database, dp: &DmlPlan, params: &[Value]) -> Result<Rows<'db>> {
    let ctx = Ctx {
        db,
        params,
        fns: &dp.fns,
        group: None,
    };
    let handle = db.get_table(&dp.table)?;
    let txn = db.write_txn();
    if let WriteTxn::Txn { .. } = txn {
        db.txn_pin(&handle);
    }
    // Targets in scan (ascending rid) order, and the UPDATE successors.
    let mut ended: Vec<Rid> = Vec::new();
    let mut successors: Vec<Row> = Vec::new();
    // The one per-row evaluation: test WHERE, then build the successor —
    // the old row with each SET value coerced to its column type.
    let mut visit = |rid: Rid, r: &Row, schema: &Schema| -> Result<()> {
        if let Some(p) = &dp.where_clause {
            if !is_true(&eval(&ctx, p, r)?)? {
                return Ok(());
            }
        }
        if !dp.sets.is_empty() {
            let mut new = r.clone();
            for (e, &c) in dp.sets.iter().zip(&dp.set_idx) {
                new[c] = eval(&ctx, e, r)?.coerce_to(schema.columns[c].dtype)?;
            }
            successors.push(new);
        }
        ended.push(rid);
        Ok(())
    };
    // The copy-out source holds rids across guard releases; a pin keeps
    // compaction from renumbering them (a transaction pinned above).
    let _pin = (!dp.under_guard && txn == WriteTxn::Auto).then(|| TablePin::new(&handle));
    let mut guard = if dp.under_guard {
        // Re-entrancy-free: evaluate borrowed rows under the write guard.
        let guard = handle.write();
        let (snap, view, cand) =
            open_scan(&ctx, &guard, &dp.table, &dp.schema_cols, dp.access.as_ref())?;
        let mut examined = 0u64;
        for (rid, v) in view.scan(cand.as_deref(), snap) {
            examined += 1;
            visit(rid, &v.data, &guard.schema)?;
        }
        db.note_scan(examined, true);
        drop(view);
        guard
    } else {
        // Re-entrant: copy the candidates out, then evaluate lock-free so
        // UDFs may call back into the database.
        let mut copied: Vec<(Rid, Row)> = Vec::new();
        copy_out(
            &ctx,
            &handle,
            &dp.table,
            &dp.schema_cols,
            dp.access.as_ref(),
            |rid, r| copied.push((rid, r.clone())),
        )?;
        // A table's schema never changes: DDL replaces the whole table.
        let schema = handle.read().schema.clone();
        for (rid, r) in &copied {
            visit(*rid, r, &schema)?;
        }
        handle.write()
    };
    if ended.iter().any(|&rid| guard.version_end(rid) != LIVE) {
        return Err(serialize_conflict());
    }
    if !successors.is_empty() && guard.has_unique_index() {
        guard.check_unique(&successors, &ended, txn.txid())?;
    }
    let stamp = db.write_stamp(txn);
    for &rid in &ended {
        guard.end_version(rid, stamp);
    }
    let created: Vec<Rid> = successors
        .into_iter()
        .map(|r| guard.push_version(stamp, r))
        .collect();
    let n = ended.len() as i64;
    match txn {
        WriteTxn::Auto => db.maybe_gc(&mut guard),
        WriteTxn::Txn { .. } => {
            drop(guard);
            db.txn_record_write(&handle, created, ended);
        }
    }
    Ok(count_result(n))
}

/// The no-rows status result of DDL and transaction-control statements.
fn empty_result<'db>() -> Rows<'db> {
    Rows::from_result(QueryResult::new(vec![]))
}

/// A session-level notice surfaced as a one-row result. PostgreSQL sends
/// these out-of-band as `NOTICE` messages; sqlmini has no wire protocol,
/// so the text rides in a `notice` column instead.
fn notice_result<'db>(msg: &str) -> Rows<'db> {
    let mut q = QueryResult::new(vec!["notice".into()]);
    q.rows.push(vec![Value::Text(msg.into())]);
    Rows::from_result(q)
}

/// DDL and transaction control — statements without a compiled operator
/// tree.
fn run_other<'db>(db: &'db Database, stmt: &Stmt) -> Result<Rows<'db>> {
    match stmt {
        Stmt::CreateTable {
            name,
            columns,
            if_not_exists,
        } => {
            let cols = columns
                .iter()
                .map(|(n, t)| Column::new(n, *t))
                .collect::<Vec<_>>();
            let schema = Schema::new(cols)?;
            match db.create_table(name, Table::new(schema)) {
                Ok(()) => db.txn_record_ddl(UndoEntry::CreateTable {
                    name: name.to_ascii_lowercase(),
                }),
                Err(SqlError::Constraint(_)) if *if_not_exists => {}
                Err(e) => return Err(e),
            }
            Ok(empty_result())
        }
        Stmt::DropTable { name, if_exists } => {
            // Hold on to the displaced table so ROLLBACK can reinstate
            // it — versions, stats and all.
            let displaced = db.get_table(name).ok();
            match db.drop_table(name) {
                Ok(()) => {
                    if let Some(handle) = displaced {
                        db.txn_record_ddl(UndoEntry::DropTable {
                            name: name.to_ascii_lowercase(),
                            handle,
                        });
                    }
                }
                Err(SqlError::UnknownTable(_)) if *if_exists => {}
                Err(e) => return Err(e),
            }
            Ok(empty_result())
        }
        Stmt::Begin => {
            if db.begin_txn() {
                Ok(empty_result())
            } else {
                Ok(notice_result("there is already a transaction in progress"))
            }
        }
        Stmt::Commit => {
            if db.commit_txn()? {
                Ok(empty_result())
            } else {
                Ok(notice_result("there is no transaction in progress"))
            }
        }
        Stmt::Rollback => {
            if db.rollback_txn() {
                Ok(empty_result())
            } else {
                Ok(notice_result("there is no transaction in progress"))
            }
        }
        Stmt::CreateIndex {
            name,
            table,
            column,
            unique,
        } => {
            let handle = db.create_index(name, table, column, *unique)?;
            db.txn_record_ddl(UndoEntry::CreateIndex {
                table: handle,
                name: name.to_ascii_lowercase(),
            });
            Ok(empty_result())
        }
        Stmt::DropIndex { name } => {
            let (table, iname, column, unique) = db.drop_index(name)?;
            db.txn_record_ddl(UndoEntry::DropIndex {
                table,
                name: iname,
                column,
                unique,
            });
            Ok(empty_result())
        }
        Stmt::Analyze(table) => {
            db.analyze(table.as_deref())?;
            Ok(empty_result())
        }
        Stmt::Select(_)
        | Stmt::Insert { .. }
        | Stmt::Update { .. }
        | Stmt::Delete { .. }
        | Stmt::Explain(_) => {
            unreachable!("DML and EXPLAIN execute through their compiled plans")
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Execute a statement against its compiled plan with bind parameters;
/// `SELECT`s stream through [`Rows`], everything else returns its (tiny)
/// materialized status result. The caller, [`crate::Statement::query_rows`],
/// rejects statements in an aborted transaction and aborts the
/// transaction when this fails.
pub(crate) fn execute<'db>(
    db: &'db Database,
    stmt: &Stmt,
    plan: &Arc<PhysicalPlan>,
    params: &[Value],
) -> Result<Rows<'db>> {
    match &**plan {
        PhysicalPlan::StaticSelect(_) => run_static_select(db, plan, params),
        PhysicalPlan::Insert(ip) => run_insert(db, stmt, ip, params),
        PhysicalPlan::Update(dp) | PhysicalPlan::Delete(dp) => run_dml(db, dp, params),
        PhysicalPlan::Explain(lines) => {
            let mut q = QueryResult::new(vec!["query plan".into()]);
            for l in lines {
                q.rows.push(vec![Value::Text(l.clone())]);
            }
            Ok(Rows::from_result(q))
        }
        PhysicalPlan::Other => run_other(db, stmt),
    }
}
