//! Physical plans — the compile half of the plan → execute pipeline.
//!
//! [`compile`] turns one parsed [`Stmt`] into an immutable
//! [`PhysicalPlan`]. Plans are held as `Arc<PhysicalPlan>` by prepared
//! statements, so repeated [`crate::Statement::query`] executions bind
//! parameters against a shared operator tree instead of re-resolving (or
//! cloning) any expression per execution:
//!
//! * **SELECTs** resolve completely at plan time. Each FROM item binds
//!   its columns: a table's schema, or a function's declared output
//!   columns. Wildcards expand against them, GROUP BY / ORDER BY ordinals
//!   and output aliases resolve to projection expressions, and every
//!   column reference is rewritten to a positional [`Expr::Slot`] — the
//!   executor never resolves a name. A function's arguments resolve
//!   against the items to its left only (LATERAL).
//! * **Grouped queries** are lowered once: subtrees matching a GROUP BY
//!   key become [`Expr::GroupKey`] references, aggregate calls are
//!   deduplicated by expression identity into the plan's [`AggCall`] list
//!   and replaced by [`Expr::Agg`] references — so each distinct
//!   aggregate is computed exactly once per group at execution, no matter
//!   how often it appears across the select list, HAVING and ORDER BY.
//!
//! Plans are invalidated by DDL: the [`crate::Database`] keeps a schema
//! epoch that CREATE/DROP TABLE and function (re-)registration bump, and
//! a cached plan compiled under an older epoch is recompiled on its next
//! execution.

use std::sync::Arc;

use crate::ast::{
    contains_aggregate, map_slots, walk_slots, BinOp, Expr, FromItem, InsertSource, SelectItem,
    SelectStmt, Stmt, UnOp, AGGREGATE_FUNCTIONS,
};
use crate::cost::{self, IndexChoice};
use crate::db::Database;
use crate::error::{Result, SqlError};
use crate::functions::{ScalarFn, TableFn};
use crate::value::{DataType, Value};

/// One FROM item's contribution to the name environment.
#[derive(Debug, Clone)]
pub(crate) struct Binding {
    /// Qualifier other parts of the query use for this item's columns.
    pub qualifier: String,
    /// Column names, in order.
    pub columns: Vec<String>,
    /// Offset of this binding's first column in the flattened row.
    pub offset: usize,
}

/// Plan-time name environment over a flattened joined row.
pub(crate) struct Env<'a> {
    pub bindings: &'a [Binding],
}

impl Env<'_> {
    /// Resolve a column reference to a flat index.
    pub fn resolve(&self, table: Option<&str>, name: &str) -> Result<usize> {
        let name = name.to_ascii_lowercase();
        let mut found: Option<usize> = None;
        for b in self.bindings {
            if let Some(q) = table {
                if !q.eq_ignore_ascii_case(&b.qualifier) {
                    continue;
                }
            }
            if let Some(i) = b.columns.iter().position(|c| *c == name) {
                if found.is_some() {
                    return Err(SqlError::UnknownColumn(format!(
                        "{name} (ambiguous reference)"
                    )));
                }
                found = Some(b.offset + i);
            }
        }
        found.ok_or_else(|| unknown_column(table, &name))
    }
}

/// PostgreSQL's error for a column reference that names no column in
/// scope.
pub(crate) fn unknown_column(table: Option<&str>, name: &str) -> SqlError {
    let name = name.to_ascii_lowercase();
    match table {
        Some(t) => SqlError::UnknownColumn(format!("{t}.{name}")),
        None => SqlError::UnknownColumn(name),
    }
}

// ---------------------------------------------------------------------------
// Plan types
// ---------------------------------------------------------------------------

/// A compiled statement, shared immutably between executions.
pub(crate) enum PhysicalPlan {
    /// SELECT — fully resolved at plan time.
    StaticSelect(Box<StaticSelectPlan>),
    /// INSERT with its target column mapping resolved.
    Insert(InsertPlan),
    /// UPDATE with its SET targets and expressions resolved.
    Update(DmlPlan),
    /// DELETE with its predicate resolved.
    Delete(DmlPlan),
    /// `EXPLAIN` — the inner statement's physical plan, pre-rendered at
    /// compile time into one text line per output row.
    Explain(Vec<String>),
    /// DDL — executed directly from the AST.
    Other,
}

/// A fully resolved SELECT.
pub(crate) struct StaticSelectPlan {
    /// FROM items in join order.
    pub from: Vec<ScanItem>,
    /// The resolved operator pipeline. A single-table plan's expressions
    /// address the table's **full** column layout; every other plan's
    /// address the **pruned** row layout.
    pub ops: SelectOps,
    /// How a single-table plan reads its table; `None` for joins,
    /// function scans and FROM-less SELECTs, which scan a snapshot.
    pub table: Option<TableScan>,
    /// Hash equi-join chosen by the cost model for a two-table scan:
    /// build a hash table over the right table's join keys, probe with
    /// the left. Slots address the pruned concatenated row layout.
    pub hash_join: Option<HashJoin>,
}

/// One FROM item of a SELECT: a base table or a function scan.
pub(crate) struct ScanItem {
    /// Table or function name (lower-case).
    pub name: String,
    /// Column names at plan time: a function's declared output columns,
    /// or a table's schema. The scan re-checks a table's under its read
    /// guard: a concurrent DROP+CREATE between the epoch check and the
    /// scan must surface as a stale-plan error, never as an
    /// out-of-bounds (or silently remapped) `Slot`.
    pub columns: Vec<String>,
    /// The column indices the statement actually reads, ascending; every
    /// column of a function. Copy-out and snapshot scans clone only
    /// these columns; a snapshot's pruned row is the concatenation of
    /// each item's used columns.
    pub used: Vec<usize>,
    /// The function of a function scan; `None` for a table.
    pub call: Option<FunctionScan>,
}

/// A function in FROM, called once per joined row of the items to its
/// left.
pub(crate) struct FunctionScan {
    /// The function's body; a scalar function returns its one row.
    pub f: TableFn,
    /// Arguments in the pruned layout of the items to the left (LATERAL).
    pub args: Vec<Expr>,
}

/// A cost-chosen hash equi-join between the two scanned tables.
pub(crate) struct HashJoin {
    /// Join key slot of the left (first) table, in the pruned
    /// concatenated layout.
    pub left_slot: usize,
    /// Join key slot of the right (second) table, in the pruned
    /// concatenated layout.
    pub right_slot: usize,
}

/// How a single-table SELECT reads its table: the access path and row
/// source an UPDATE or DELETE with the same WHERE clause takes.
pub(crate) struct TableScan {
    /// Cost-chosen index access path (see [`DmlPlan::access`]).
    pub access: Option<IndexChoice>,
    /// Every scan-side expression is re-entrancy-free: the executor
    /// evaluates borrowed rows under the table's read guard. Otherwise it
    /// copies the columns the statement reads out of the candidate rows
    /// and evaluates with no guard held.
    pub under_guard: bool,
    /// Plan-time choice: run this scan on the columnar batch path
    /// (typed column vectors with vectorized filter / aggregate / sort
    /// kernels, see `batch.rs`). Only borrowed rows fill a batch. The
    /// executor may still fall back to the scalar path at run time when
    /// a batch holds value shapes the kernels cannot reproduce
    /// byte-identically.
    pub vectorized: bool,
}

/// UPDATE / DELETE with the predicate (and SET expressions) resolved to
/// the target table's column layout.
pub(crate) struct DmlPlan {
    /// Names of the resolved scalar functions, parallel to `fns` (for
    /// EXPLAIN rendering).
    pub fn_names: Vec<String>,
    /// Target table (lower-case).
    pub table: String,
    /// Target column names at plan time — re-checked under the guard so
    /// a DDL race surfaces as a stale-plan error.
    pub schema_cols: Vec<String>,
    /// Schema positions assigned by SET, in statement order (UPDATE;
    /// empty for DELETE).
    pub set_idx: Vec<usize>,
    /// SET value expressions, slot-resolved (UPDATE; empty for DELETE).
    pub sets: Vec<Expr>,
    /// WHERE predicate, slot-resolved.
    pub where_clause: Option<Expr>,
    /// Resolved scalar functions referenced by the expressions.
    pub fns: Vec<PlanFn>,
    /// Cost-chosen index access path: probe this index for candidate
    /// version positions instead of walking every version. Candidates
    /// are a superset; the executor re-checks visibility and the full
    /// WHERE clause, so results are identical to a sequential scan.
    pub access: Option<IndexChoice>,
    /// Every expression is re-entrancy-free: the executor evaluates
    /// borrowed rows under the table's write guard. Otherwise it copies
    /// the candidates out under the read guard and evaluates lock-free,
    /// so UDFs in SET or WHERE may call back into the database.
    pub under_guard: bool,
}

/// The operator pipeline of a SELECT after name resolution: filter →
/// \[group → having\] → project → \[distinct\] → sort → limit. All
/// expressions are slot-resolved; in grouped pipelines the projection,
/// HAVING and ORDER BY expressions are additionally lowered to
/// `GroupKey`/`Agg` references.
pub(crate) struct SelectOps {
    /// Output column names.
    pub columns: Vec<String>,
    /// Names of the resolved scalar functions, parallel to `fns` (for
    /// EXPLAIN rendering).
    pub fn_names: Vec<String>,
    /// Scalar functions referenced by the resolved expressions;
    /// `Expr::ScalarCall` indexes into this table, so per-row evaluation
    /// never consults the function registry. (UDF re-registration bumps
    /// the schema epoch, invalidating plans that resolved the old body.)
    pub fns: Vec<PlanFn>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// Projection expressions, one per output column.
    pub projections: Vec<Expr>,
    /// ORDER BY keys (evaluated per source row, or per group when
    /// grouped). Empty when `distinct` ordering applies.
    pub order_by: Vec<(Expr, bool)>,
    /// Grouping operator, when the query groups or aggregates.
    pub group: Option<GroupPlan>,
    /// `SELECT DISTINCT` — deduplicate projected rows.
    pub distinct: bool,
    /// For DISTINCT + ORDER BY: sort keys as output-column indices
    /// (DISTINCT requires ORDER BY expressions to appear in the select
    /// list, so they always map to projected columns).
    pub distinct_order: Vec<(usize, bool)>,
    /// LIMIT row bound.
    pub limit: usize,
}

/// One resolved scalar function of a plan: either an ordinary registered
/// UDF, or a pure builtin the executor evaluates natively (the call
/// counter still ticks, and a type the native path does not handle falls
/// back to the UDF so error wording stays identical).
pub(crate) enum PlanFn {
    /// Registered UDF, called through its (coercing, counting) wrapper.
    Udf(ScalarFn),
    /// Pure builtin evaluated in place — also safe inside a zero-copy
    /// scan that holds a table read guard, since it cannot re-enter the
    /// database.
    Intrinsic {
        op: crate::functions::Intrinsic,
        counter: std::sync::Arc<std::sync::atomic::AtomicU64>,
        fallback: ScalarFn,
    },
}

/// The grouping operator: bucket source rows by key, memoize each
/// distinct aggregate once per group.
pub(crate) struct GroupPlan {
    /// Grouping key expressions (empty = one group over the whole input).
    pub keys: Vec<Expr>,
    /// Distinct aggregate calls referenced anywhere in the select list,
    /// HAVING or ORDER BY; `Expr::Agg(k)` indexes into this list.
    pub aggs: Vec<AggCall>,
    /// HAVING predicate, lowered to `GroupKey`/`Agg` references.
    pub having: Option<Expr>,
}

/// The aggregate kinds the grouping operator folds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AggOp {
    /// `count(*)` — rows in the group.
    CountStar,
    /// `count(e)` — non-NULL values.
    Count,
    /// `count(DISTINCT e)` — distinct non-NULL values.
    CountDistinct,
    Sum,
    Avg,
    Min,
    Max,
}

/// One deduplicated aggregate call of a grouped query.
#[derive(PartialEq)]
pub(crate) struct AggCall {
    /// The fold this call performs (resolved from the name at plan time).
    pub op: AggOp,
    /// Argument expressions, slot-resolved (evaluated per source row).
    pub args: Vec<Expr>,
}

/// INSERT with the target column mapping resolved against the schema.
pub(crate) struct InsertPlan {
    /// Target table (lower-case).
    pub table: String,
    /// Schema positions of an explicit column list, in list order.
    pub column_idxs: Option<Vec<usize>>,
    /// Width of the target schema (for NULL-filling partial rows).
    pub schema_len: usize,
    /// Target column names at plan time — re-checked before inserting so
    /// a DDL race cannot silently remap values into the wrong columns.
    pub schema_cols: Vec<String>,
    /// Compiled SELECT source (`None` for VALUES — those expressions are
    /// evaluated straight from the AST).
    pub source: Option<Arc<PhysicalPlan>>,
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// Reject aggregate calls in clauses where PostgreSQL forbids them
/// (`aggregate functions are not allowed in WHERE`, …).
pub(crate) fn reject_aggregate(clause: &str, e: &Expr) -> Result<()> {
    if contains_aggregate(e) {
        return Err(SqlError::Grouping(format!(
            "aggregate functions are not allowed in {clause}"
        )));
    }
    Ok(())
}

/// Compile one statement into its physical plan.
pub(crate) fn compile(db: &Database, stmt: &Stmt) -> Result<PhysicalPlan> {
    match stmt {
        Stmt::Select(sel) => compile_select(db, sel),
        Stmt::Insert {
            table,
            columns,
            source,
        } => {
            let handle = db.get_table(table)?;
            let (schema_len, schema_cols, column_idxs) = {
                let guard = handle.read();
                let idxs = columns
                    .as_ref()
                    .map(|cols| {
                        cols.iter()
                            .map(|c| {
                                guard.schema.index_of(c).ok_or_else(|| {
                                    SqlError::UnknownColumn(format!("{c} in INSERT column list"))
                                })
                            })
                            .collect::<Result<Vec<usize>>>()
                    })
                    .transpose()?;
                let cols: Vec<String> = guard
                    .schema
                    .columns
                    .iter()
                    .map(|c| c.name.clone())
                    .collect();
                (guard.schema.len(), cols, idxs)
            };
            let source_plan = match source {
                InsertSource::Values(rows) => {
                    for row in rows {
                        for e in row {
                            reject_aggregate("VALUES", e)?;
                        }
                    }
                    None
                }
                InsertSource::Select(sel) => Some(Arc::new(compile_select(db, sel)?)),
            };
            Ok(PhysicalPlan::Insert(InsertPlan {
                table: table.to_ascii_lowercase(),
                column_idxs,
                schema_len,
                schema_cols,
                source: source_plan,
            }))
        }
        Stmt::Update {
            table,
            sets,
            where_clause,
        } => {
            for (_, e) in sets {
                reject_aggregate("UPDATE", e)?;
            }
            if let Some(w) = where_clause {
                reject_aggregate("WHERE", w)?;
            }
            let (plan, set_idx, resolved) =
                compile_dml(db, table, where_clause.as_ref(), |schema| {
                    let mut idx = Vec::with_capacity(sets.len());
                    for (c, _) in sets {
                        idx.push(schema.index_of(c).ok_or_else(|| {
                            SqlError::UnknownColumn(format!("{c} in UPDATE SET"))
                        })?);
                    }
                    Ok((idx, sets.iter().map(|(_, e)| e).collect()))
                })?;
            Ok(PhysicalPlan::Update(DmlPlan {
                set_idx,
                sets: resolved,
                ..plan
            }))
        }
        Stmt::Delete {
            table,
            where_clause,
        } => {
            if let Some(w) = where_clause {
                reject_aggregate("WHERE", w)?;
            }
            let (plan, _, _) = compile_dml(db, table, where_clause.as_ref(), |_| {
                Ok((Vec::new(), Vec::new()))
            })?;
            Ok(PhysicalPlan::Delete(plan))
        }
        Stmt::Explain(inner) => {
            let plan = compile(db, inner)?;
            Ok(PhysicalPlan::Explain(render_plan(&plan)?))
        }
        Stmt::CreateTable { .. }
        | Stmt::DropTable { .. }
        | Stmt::CreateIndex { .. }
        | Stmt::DropIndex { .. }
        | Stmt::Analyze(_)
        | Stmt::Begin
        | Stmt::Commit
        | Stmt::Rollback => Ok(PhysicalPlan::Other),
    }
}

/// Shared UPDATE/DELETE compilation: resolve the target schema, the SET
/// columns/expressions (via `sets_of`) and the WHERE predicate, cost out
/// the access path, and classify whether everything may evaluate under
/// the table's write guard (no expression can re-enter the database).
fn compile_dml<'a>(
    db: &Database,
    table: &str,
    where_clause: Option<&Expr>,
    sets_of: impl FnOnce(&crate::table::Schema) -> Result<(Vec<usize>, Vec<&'a Expr>)>,
) -> Result<(DmlPlan, Vec<usize>, Vec<Expr>)> {
    let handle = db.get_table(table)?;
    let (schema_cols, set_idx, set_exprs) = {
        let guard = handle.read();
        let cols: Vec<String> = guard
            .schema
            .columns
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let (idx, exprs) = sets_of(&guard.schema)?;
        (cols, idx, exprs)
    };
    let binding = [Binding {
        qualifier: table.to_string(),
        columns: schema_cols.clone(),
        offset: 0,
    }];
    let env = Env { bindings: &binding };
    let mut resolver = Resolver {
        db,
        names: Vec::new(),
        fns: Vec::new(),
    };
    let sets: Vec<Expr> = set_exprs
        .into_iter()
        .map(|e| resolve_cols(e, &env, &mut resolver))
        .collect::<Result<_>>()?;
    let where_clause = where_clause
        .map(|w| resolve_cols(w, &env, &mut resolver))
        .transpose()?;
    let under_guard = where_clause
        .as_ref()
        .is_none_or(|w| scan_safe(w, &resolver.fns))
        && sets.iter().all(|e| scan_safe(e, &resolver.fns));
    let access = choose_index_access(db, table, where_clause.as_ref());
    Ok((
        DmlPlan {
            fn_names: resolver.names,
            table: table.to_ascii_lowercase(),
            schema_cols,
            set_idx: Vec::new(),
            sets: Vec::new(),
            where_clause,
            fns: resolver.fns,
            access,
            under_guard,
        },
        set_idx,
        sets,
    ))
}

/// May this expression run while a table guard is held? True when it
/// cannot re-enter the database: no raw function calls, and resolved
/// calls only to native intrinsics.
pub(crate) fn scan_safe(e: &Expr, fns: &[PlanFn]) -> bool {
    match e {
        Expr::Literal(_) | Expr::Param(_) | Expr::Slot(_) | Expr::GroupKey(_) | Expr::Agg(_) => {
            true
        }
        Expr::Column { .. } | Expr::Function { .. } => false,
        Expr::ScalarCall { f, args } => {
            matches!(fns[*f], PlanFn::Intrinsic { .. }) && args.iter().all(|a| scan_safe(a, fns))
        }
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::IsNull { expr, .. } => {
            scan_safe(expr, fns)
        }
        Expr::Binary { left, right, .. } => scan_safe(left, fns) && scan_safe(right, fns),
        Expr::InList { expr, list, .. } => {
            scan_safe(expr, fns) && list.iter().all(|e| scan_safe(e, fns))
        }
    }
}

/// May a single-table SELECT evaluate borrowed rows under the table's
/// read guard? Its scan side must be re-entrancy-free: WHERE, plus the
/// keys and aggregate arguments of a grouped query (emission runs after
/// the guard drops, so HAVING, the projection and ORDER BY may call any
/// UDF), or else the projection and the ORDER BY keys.
fn select_under_guard(ops: &SelectOps) -> bool {
    let safe = |e: &Expr| scan_safe(e, &ops.fns);
    ops.where_clause.as_ref().is_none_or(safe)
        && match &ops.group {
            Some(gp) => gp.keys.iter().all(safe) && gp.aggs.iter().all(|c| c.args.iter().all(safe)),
            None => ops.projections.iter().all(safe) && ops.order_by.iter().all(|(e, _)| safe(e)),
        }
}

/// May a single-table SELECT over borrowed rows run on the columnar
/// batch path? Stricter than [`select_under_guard`]: every scan-side
/// expression must be one the typed kernels implement, and the statement
/// shape must map onto a batch operator — grouped aggregation, or a
/// single-key ordered SELECT (where the specialized index sort and the
/// top-K heap apply). Unordered streaming SELECTs keep the
/// tuple-at-a-time cursor: they hand rows out incrementally, which a
/// materialized batch cannot.
fn vectorizable(ops: &SelectOps) -> bool {
    let ok = |e: &Expr| vec_expr_ok(e, &ops.fns);
    if !ops.where_clause.as_ref().is_none_or(ok) {
        return false;
    }
    match &ops.group {
        Some(gp) => gp.keys.iter().all(ok) && gp.aggs.iter().all(|c| c.args.iter().all(ok)),
        None => ops.order_by.len() == 1 && !ops.distinct && ok(&ops.order_by[0].0),
    }
}

/// The expression subset the vectorized kernels implement end-to-end:
/// typed arithmetic and comparisons, Kleene AND/OR, IS NULL, int/float
/// casts, and single-argument native intrinsics. Anything else (string
/// concat, IN lists, NULL literals, re-entrant UDF calls) keeps the
/// scalar executor — the run-time kernels would only discover the same
/// thing and fall back after filling a batch for nothing.
fn vec_expr_ok(e: &Expr, fns: &[PlanFn]) -> bool {
    match e {
        Expr::Literal(Value::Null) => false,
        Expr::Literal(_) | Expr::Param(_) | Expr::Slot(_) => true,
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => vec_expr_ok(expr, fns),
        Expr::Cast { expr, ty } => {
            matches!(ty, DataType::Int | DataType::Float) && vec_expr_ok(expr, fns)
        }
        Expr::Binary { op, left, right } => {
            *op != BinOp::Concat && vec_expr_ok(left, fns) && vec_expr_ok(right, fns)
        }
        Expr::ScalarCall { f, args } => {
            matches!(fns[*f], PlanFn::Intrinsic { .. })
                && args.len() == 1
                && vec_expr_ok(&args[0], fns)
        }
        _ => false,
    }
}

fn compile_select(db: &Database, sel: &SelectStmt) -> Result<PhysicalPlan> {
    // Clause-placement validation (independent of any schema).
    if let Some(w) = &sel.where_clause {
        reject_aggregate("WHERE", w)?;
    }
    for e in &sel.join_on {
        reject_aggregate("JOIN conditions", e)?;
    }
    for item in &sel.from {
        if let FromItem::Function { args, .. } = item {
            for a in args {
                reject_aggregate("FROM", a)?;
            }
        }
    }

    // Bind the FROM items left to right. A function's arguments see only
    // the items to its left (LATERAL); the function is looked up here,
    // once.
    let mut resolver = Resolver {
        db,
        names: Vec::new(),
        fns: Vec::new(),
    };
    let mut bindings: Vec<Binding> = Vec::with_capacity(sel.from.len());
    let mut from = Vec::with_capacity(sel.from.len());
    for item in &sel.from {
        let (name, columns, call) = match item {
            FromItem::Table { name, .. } => {
                let handle = db.get_table(name)?;
                let cols: Vec<String> = handle
                    .read()
                    .schema
                    .columns
                    .iter()
                    .map(|c| c.name.clone())
                    .collect();
                (name, cols, None)
            }
            FromItem::Function { name, args, alias } => {
                let env = Env {
                    bindings: &bindings,
                };
                let args = args
                    .iter()
                    .map(|a| resolve_cols(a, &env, &mut resolver))
                    .collect::<Result<_>>()?;
                let (mut cols, f) = db.lookup_from_fn(name)?;
                // Single-column functions adopt the alias as the column
                // name, as PostgreSQL does for `generate_series(…) AS id`.
                if let (1, Some(a)) = (cols.len(), alias) {
                    cols = vec![a.to_ascii_lowercase()];
                }
                (name, cols, Some(FunctionScan { f, args }))
            }
        };
        bindings.push(Binding {
            qualifier: item.binding_name().to_string(),
            columns: columns.clone(),
            offset: bindings.last().map_or(0, |b| b.offset + b.columns.len()),
        });
        from.push(ScanItem {
            name: name.to_ascii_lowercase(),
            columns,
            used: Vec::new(),
            call,
        });
    }
    let mut ops = build_select(sel, &bindings, resolver)?;
    let table = match from.as_slice() {
        [t] if t.call.is_none() => {
            let under_guard = select_under_guard(&ops);
            Some(TableScan {
                access: choose_index_access(db, &t.name, ops.where_clause.as_ref()),
                under_guard,
                vectorized: under_guard && db.vectorized_enabled() && vectorizable(&ops),
            })
        }
        _ => None,
    };
    prune_columns(&mut ops, &mut from, &bindings, table.is_none());
    let hash_join = choose_hash_join(db, &from, &ops);
    Ok(PhysicalPlan::StaticSelect(Box::new(StaticSelectPlan {
        from,
        ops,
        table,
        hash_join,
    })))
}

/// Cost out a secondary-index access path for a single-table scan:
/// SELECT, UPDATE or DELETE, whatever its row source. All keep the
/// table's full row layout, so sargable slots are schema column
/// ordinals — exactly what indexes cover.
fn choose_index_access(
    db: &Database,
    table: &str,
    where_clause: Option<&Expr>,
) -> Option<IndexChoice> {
    let w = where_clause?;
    if !db.index_access_enabled() {
        return None;
    }
    let Ok(handle) = db.get_table(table) else {
        return None;
    };
    let indexes: Vec<(String, usize)> = handle
        .read()
        .indexes()
        .iter()
        .map(|ix| (ix.name.clone(), ix.column))
        .collect();
    if indexes.is_empty() {
        return None;
    }
    let stats = db.stats_for(table)?;
    let guard = handle.read();
    cost::choose_access(Some(w), &guard.schema, &indexes, &stats)
}

/// Cost out a hash join for a two-table scan: the WHERE clause (in the
/// pruned concatenated layout) must contain an equi-conjunct between a
/// column of each table, with identical column types — cross-type
/// equality (`int = float`, `timestamp = text`) follows comparison
/// coercions a hash key cannot mirror exactly, so it stays on the
/// nested-loop path.
fn choose_hash_join(db: &Database, from: &[ScanItem], ops: &SelectOps) -> Option<HashJoin> {
    let [t0, t1] = from else {
        return None;
    };
    if t0.call.is_some() || t1.call.is_some() || !db.hash_join_enabled() {
        return None;
    }
    let w = ops.where_clause.as_ref()?;
    let w0 = t0.used.len();
    let w1 = t1.used.len();
    for (a, b) in cost::equi_slot_pairs(w) {
        let (l, r) = if a < w0 && (w0..w0 + w1).contains(&b) {
            (a, b)
        } else if b < w0 && (w0..w0 + w1).contains(&a) {
            (b, a)
        } else {
            continue;
        };
        let dl = column_dtype(db, &t0.name, t0.used[l])?;
        let dr = column_dtype(db, &t1.name, t1.used[r - w0])?;
        if dl != dr || dl == DataType::Variant {
            continue;
        }
        let nl = db.stats_for(&t0.name)?.row_count;
        let nr = db.stats_for(&t1.name)?.row_count;
        if cost::hash_join_beats_nested(nl, nr) {
            return Some(HashJoin {
                left_slot: l,
                right_slot: r,
            });
        }
    }
    None
}

/// The declared type of one table column, if the table still exists.
fn column_dtype(db: &Database, table: &str, column: usize) -> Option<DataType> {
    let handle = db.get_table(table).ok()?;
    let guard = handle.read();
    guard.schema.columns.get(column).map(|c| c.dtype)
}

/// Column pruning: compute the set of slots the pipeline and the
/// function arguments actually read and record each FROM item's used
/// column indices (what a copy-out or snapshot scan must clone). With
/// `readdress`, also rewrite every expression to the pruned row layout;
/// a single-table plan keeps the table's full layout instead. A function
/// keeps every column.
fn prune_columns(
    ops: &mut SelectOps,
    from: &mut [ScanItem],
    bindings: &[Binding],
    readdress: bool,
) {
    let mut used: Vec<usize> = Vec::new();
    {
        let mut mark = |i: usize| used.push(i);
        for e in ops
            .where_clause
            .iter()
            .chain(&ops.projections)
            .chain(ops.order_by.iter().map(|(e, _)| e))
        {
            walk_slots(e, &mut mark);
        }
        if let Some(gp) = &ops.group {
            for e in gp.keys.iter().chain(gp.aggs.iter().flat_map(|c| &c.args)) {
                walk_slots(e, &mut mark);
            }
            if let Some(h) = &gp.having {
                walk_slots(h, &mut mark);
            }
        }
        for (item, b) in from.iter().zip(bindings) {
            if let Some(call) = &item.call {
                for a in &call.args {
                    walk_slots(a, &mut mark);
                }
                (b.offset..b.offset + b.columns.len()).for_each(&mut mark);
            }
        }
    }
    used.sort_unstable();
    used.dedup();
    for (item, b) in from.iter_mut().zip(bindings) {
        item.used = used
            .iter()
            .filter(|&&s| s >= b.offset && s < b.offset + b.columns.len())
            .map(|&s| s - b.offset)
            .collect();
    }
    if !readdress {
        return;
    }
    // Old flat slot -> pruned index.
    let full_width = bindings.last().map_or(0, |b| b.offset + b.columns.len());
    let mut map = vec![usize::MAX; full_width];
    for (new, &old) in used.iter().enumerate() {
        map[old] = new;
    }
    let mut remap = |i: usize| map[i];
    for e in ops
        .where_clause
        .iter_mut()
        .chain(ops.projections.iter_mut())
        .chain(ops.order_by.iter_mut().map(|(e, _)| e))
    {
        map_slots(e, &mut remap);
    }
    if let Some(gp) = &mut ops.group {
        for e in gp
            .keys
            .iter_mut()
            .chain(gp.aggs.iter_mut().flat_map(|c| c.args.iter_mut()))
        {
            map_slots(e, &mut remap);
        }
        if let Some(h) = &mut gp.having {
            map_slots(h, &mut remap);
        }
    }
    for item in from.iter_mut() {
        if let Some(call) = &mut item.call {
            for a in &mut call.args {
                map_slots(a, &mut remap);
            }
        }
    }
}

/// Shared state of one resolution pass: the database (for scalar-function
/// lookup) and the plan's deduplicated function table.
struct Resolver<'a> {
    db: &'a Database,
    names: Vec<String>,
    fns: Vec<PlanFn>,
}

impl Resolver<'_> {
    /// Resolve a scalar function to its table index, registering it on
    /// first use. Unknown functions error here — at plan time. Pure
    /// builtins resolve to native intrinsics (the registered UDF stays as
    /// the error/fallback path).
    fn function(&mut self, name: &str) -> Result<usize> {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return Ok(i);
        }
        let f = self
            .db
            .lookup_scalar(name)
            .ok_or_else(|| SqlError::UnknownFunction(format!("{name}(…)")))?;
        let entry = match self.db.intrinsic_of(name) {
            Some(op) => PlanFn::Intrinsic {
                op,
                counter: self.db.udf_counter(name),
                fallback: f,
            },
            None => PlanFn::Udf(f),
        };
        self.names.push(name.to_string());
        self.fns.push(entry);
        Ok(self.fns.len() - 1)
    }
}

/// Resolve and lower a SELECT's clauses against the FROM items' bindings
/// into the executable operator pipeline. `resolver` already holds the
/// functions the FROM items' arguments call.
fn build_select(
    sel: &SelectStmt,
    bindings: &[Binding],
    mut resolver: Resolver<'_>,
) -> Result<SelectOps> {
    let env = Env { bindings };

    // 1. Expand projection wildcards into (raw expr, output name) pairs.
    let mut raw_projs: Vec<(Expr, String)> = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Wildcard => {
                for b in bindings {
                    for c in &b.columns {
                        raw_projs.push((
                            Expr::Column {
                                table: Some(b.qualifier.clone()),
                                name: c.clone(),
                            },
                            c.clone(),
                        ));
                    }
                }
                if bindings.is_empty() {
                    return Err(SqlError::Parse("SELECT * with no FROM items".into()));
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let b = bindings
                    .iter()
                    .find(|b| b.qualifier.eq_ignore_ascii_case(q))
                    .ok_or_else(|| SqlError::UnknownTable(q.clone()))?;
                for c in &b.columns {
                    raw_projs.push((
                        Expr::Column {
                            table: Some(b.qualifier.clone()),
                            name: c.clone(),
                        },
                        c.clone(),
                    ));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| derived_name(expr));
                raw_projs.push((expr.clone(), name.to_ascii_lowercase()));
            }
        }
    }
    let columns: Vec<String> = raw_projs.iter().map(|(_, n)| n.clone()).collect();

    // 2. Resolve GROUP BY ordinals (`GROUP BY 1` names the first select
    //    item, as in PostgreSQL) and reject aggregates in keys.
    let mut raw_group: Vec<Expr> = Vec::with_capacity(sel.group_by.len());
    for e in &sel.group_by {
        let resolved = match e {
            Expr::Literal(Value::Int(n)) => {
                let i = usize::try_from(*n - 1)
                    .ok()
                    .filter(|i| *i < raw_projs.len())
                    .ok_or_else(|| {
                        SqlError::Grouping(format!("GROUP BY position {n} is not in select list"))
                    })?;
                raw_projs[i].0.clone()
            }
            other => other.clone(),
        };
        reject_aggregate("GROUP BY", &resolved)?;
        raw_group.push(resolved);
    }

    // 3. ORDER BY items may name an output column (alias) or its 1-based
    //    ordinal; both resolve to the projected expression. A bare name
    //    matching both an output and an input column means the output.
    let mut raw_order: Vec<(Expr, bool)> = Vec::with_capacity(sel.order_by.len());
    for (e, desc) in &sel.order_by {
        let resolved = match e {
            Expr::Literal(Value::Int(n)) => {
                let i = usize::try_from(*n - 1)
                    .ok()
                    .filter(|i| *i < raw_projs.len())
                    .ok_or_else(|| {
                        SqlError::Grouping(format!("ORDER BY position {n} is not in select list"))
                    })?;
                raw_projs[i].0.clone()
            }
            Expr::Column { table: None, name } => {
                let hits: Vec<&Expr> = raw_projs
                    .iter()
                    .filter(|(_, out)| out.eq_ignore_ascii_case(name))
                    .map(|(pe, _)| pe)
                    .collect();
                match hits.as_slice() {
                    [] => e.clone(),
                    [first, rest @ ..] => {
                        // Several output columns may share the name as long
                        // as they are the same expression (`SELECT *, x …
                        // ORDER BY x`); different expressions are ambiguous.
                        if rest.iter().all(|pe| same_group_expr(&env, first, pe)) {
                            (*first).clone()
                        } else {
                            return Err(SqlError::Grouping(format!(
                                "ORDER BY \"{name}\" is ambiguous"
                            )));
                        }
                    }
                }
            }
            other => other.clone(),
        };
        raw_order.push((resolved, *desc));
    }

    let has_aggregate = raw_projs.iter().any(|(e, _)| contains_aggregate(e))
        || sel.having.as_ref().is_some_and(contains_aggregate)
        || raw_order.iter().any(|(e, _)| contains_aggregate(e));
    let grouped = has_aggregate || !raw_group.is_empty() || sel.having.is_some();
    let limit = sel.limit.map(|l| l as usize).unwrap_or(usize::MAX);

    // 4. DISTINCT sorting happens on projected rows, so each ORDER BY
    //    expression must be one of the select-list expressions.
    let mut distinct_order: Vec<(usize, bool)> = Vec::new();
    if sel.distinct && !raw_order.is_empty() {
        for (e, desc) in &raw_order {
            let i = raw_projs
                .iter()
                .position(|(p, _)| same_group_expr(&env, p, e))
                .ok_or_else(|| {
                    SqlError::Grouping(
                        "for SELECT DISTINCT, ORDER BY expressions must appear in select list"
                            .into(),
                    )
                })?;
            distinct_order.push((i, *desc));
        }
    }

    let where_clause = joined_where(sel)
        .as_ref()
        .map(|w| resolve_cols(w, &env, &mut resolver))
        .transpose()?;

    if grouped {
        // Lower the output clauses once: key subtrees → GroupKey, each
        // distinct aggregate call → Agg over the shared list.
        let keys: Vec<Expr> = raw_group
            .iter()
            .map(|e| resolve_cols(e, &env, &mut resolver))
            .collect::<Result<_>>()?;
        let mut aggs: Vec<AggCall> = Vec::new();
        let projections: Vec<Expr> = raw_projs
            .iter()
            .map(|(e, _)| lower_grouped(e, &raw_group, &env, &mut aggs, &mut resolver))
            .collect::<Result<_>>()?;
        let having = sel
            .having
            .as_ref()
            .map(|h| lower_grouped(h, &raw_group, &env, &mut aggs, &mut resolver))
            .transpose()?;
        let order_by = if sel.distinct {
            Vec::new()
        } else {
            raw_order
                .iter()
                .map(|(e, desc)| {
                    Ok((
                        lower_grouped(e, &raw_group, &env, &mut aggs, &mut resolver)?,
                        *desc,
                    ))
                })
                .collect::<Result<_>>()?
        };
        Ok(SelectOps {
            columns,
            fn_names: resolver.names,
            fns: resolver.fns,
            where_clause,
            projections,
            order_by,
            group: Some(GroupPlan { keys, aggs, having }),
            distinct: sel.distinct,
            distinct_order,
            limit,
        })
    } else {
        let projections: Vec<Expr> = raw_projs
            .iter()
            .map(|(e, _)| resolve_cols(e, &env, &mut resolver))
            .collect::<Result<_>>()?;
        let order_by = if sel.distinct {
            Vec::new()
        } else {
            raw_order
                .iter()
                .map(|(e, desc)| Ok((resolve_cols(e, &env, &mut resolver)?, *desc)))
                .collect::<Result<_>>()?
        };
        Ok(SelectOps {
            columns,
            fn_names: resolver.names,
            fns: resolver.fns,
            where_clause,
            projections,
            order_by,
            group: None,
            distinct: sel.distinct,
            distinct_order,
            limit,
        })
    }
}

/// The effective WHERE clause of a SELECT: the explicit WHERE predicate
/// ANDed with every `JOIN … ON` condition (inner-join semantics).
fn joined_where(sel: &SelectStmt) -> Option<Expr> {
    let mut acc = sel.where_clause.clone();
    for on in &sel.join_on {
        acc = Some(match acc {
            None => on.clone(),
            Some(w) => Expr::Binary {
                op: BinOp::And,
                left: Box::new(w),
                right: Box::new(on.clone()),
            },
        });
    }
    acc
}

/// Rewrite every column reference to its flat row index and every scalar
/// function call to its plan-table index.
fn resolve_cols(e: &Expr, env: &Env<'_>, r: &mut Resolver<'_>) -> Result<Expr> {
    Ok(match e {
        Expr::Column { table, name } => Expr::Slot(env.resolve(table.as_deref(), name)?),
        Expr::Literal(_) | Expr::Param(_) | Expr::Slot(_) | Expr::GroupKey(_) | Expr::Agg(_) => {
            e.clone()
        }
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(resolve_cols(expr, env, r)?),
        },
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(resolve_cols(left, env, r)?),
            right: Box::new(resolve_cols(right, env, r)?),
        },
        Expr::Cast { expr, ty } => Expr::Cast {
            expr: Box::new(resolve_cols(expr, env, r)?),
            ty: *ty,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(resolve_cols(expr, env, r)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(resolve_cols(expr, env, r)?),
            list: list
                .iter()
                .map(|e| resolve_cols(e, env, r))
                .collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::Function {
            name,
            args,
            distinct,
        } => {
            if *distinct {
                return Err(not_an_aggregate(name));
            }
            Expr::ScalarCall {
                f: r.function(name)?,
                args: args
                    .iter()
                    .map(|a| resolve_cols(a, env, r))
                    .collect::<Result<_>>()?,
            }
        }
        Expr::ScalarCall { f, args } => Expr::ScalarCall {
            f: *f,
            args: args
                .iter()
                .map(|a| resolve_cols(a, env, r))
                .collect::<Result<_>>()?,
        },
    })
}

/// `DISTINCT` inside a non-aggregate call, with PostgreSQL's wording.
fn not_an_aggregate(name: &str) -> SqlError {
    SqlError::Type(format!(
        "DISTINCT specified, but {name} is not an aggregate function"
    ))
}

/// The PostgreSQL grouping-rule error for a raw column reference that is
/// neither grouped nor inside an aggregate.
fn ungrouped_column(table: Option<&str>, name: &str) -> SqlError {
    let qualified = match table {
        Some(t) => format!("{t}.{name}"),
        None => name.to_string(),
    };
    SqlError::Grouping(format!(
        "column \"{qualified}\" must appear in the GROUP BY clause \
         or be used in an aggregate function"
    ))
}

/// Are these two expressions the same grouping expression? Structural
/// equality, except bare column references compare by resolved position,
/// so `SELECT t.a … GROUP BY a` matches.
fn same_group_expr(env: &Env<'_>, a: &Expr, b: &Expr) -> bool {
    if a == b {
        return true;
    }
    if let (
        Expr::Column {
            table: ta,
            name: na,
        },
        Expr::Column {
            table: tb,
            name: nb,
        },
    ) = (a, b)
    {
        if let (Ok(ia), Ok(ib)) = (
            env.resolve(ta.as_deref(), na),
            env.resolve(tb.as_deref(), nb),
        ) {
            return ia == ib;
        }
    }
    false
}

/// Lower one output/HAVING/ORDER BY expression of a grouped query:
/// subtrees matching a GROUP BY expression become `GroupKey` references,
/// aggregate calls are deduplicated into `aggs` and become `Agg`
/// references, and any column reference left over is a grouping error.
fn lower_grouped(
    e: &Expr,
    keys: &[Expr],
    env: &Env<'_>,
    aggs: &mut Vec<AggCall>,
    r: &mut Resolver<'_>,
) -> Result<Expr> {
    if let Some(i) = keys.iter().position(|k| same_group_expr(env, k, e)) {
        return Ok(Expr::GroupKey(i));
    }
    Ok(match e {
        Expr::Function {
            name,
            args,
            distinct,
        } if AGGREGATE_FUNCTIONS.contains(&name.as_str()) => {
            if args.iter().any(contains_aggregate) {
                return Err(SqlError::Grouping(
                    "aggregate function calls cannot be nested".into(),
                ));
            }
            let op = match (name.as_str(), args.len()) {
                ("count", 0) => AggOp::CountStar,
                ("count", 1) if *distinct => AggOp::CountDistinct,
                ("count", 1) => AggOp::Count,
                (n, _) if *distinct => {
                    return Err(SqlError::Grouping(format!(
                        "DISTINCT is not implemented for {n}()"
                    )))
                }
                ("sum", 1) => AggOp::Sum,
                ("avg", 1) => AggOp::Avg,
                ("min", 1) => AggOp::Min,
                ("max", 1) => AggOp::Max,
                (n, _) => return Err(SqlError::Type(format!("{n}() takes exactly one argument"))),
            };
            let call = AggCall {
                op,
                args: args
                    .iter()
                    .map(|a| resolve_cols(a, env, r))
                    .collect::<Result<_>>()?,
            };
            let k = match aggs.iter().position(|c| *c == call) {
                Some(k) => k,
                None => {
                    aggs.push(call);
                    aggs.len() - 1
                }
            };
            Expr::Agg(k)
        }
        Expr::Column { table, name } => return Err(ungrouped_column(table.as_deref(), name)),
        Expr::Literal(_) | Expr::Param(_) | Expr::Slot(_) | Expr::GroupKey(_) | Expr::Agg(_) => {
            e.clone()
        }
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(lower_grouped(expr, keys, env, aggs, r)?),
        },
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(lower_grouped(left, keys, env, aggs, r)?),
            right: Box::new(lower_grouped(right, keys, env, aggs, r)?),
        },
        Expr::Cast { expr, ty } => Expr::Cast {
            expr: Box::new(lower_grouped(expr, keys, env, aggs, r)?),
            ty: *ty,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(lower_grouped(expr, keys, env, aggs, r)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(lower_grouped(expr, keys, env, aggs, r)?),
            list: list
                .iter()
                .map(|e| lower_grouped(e, keys, env, aggs, r))
                .collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::Function {
            name,
            args,
            distinct,
        } => {
            if *distinct {
                return Err(not_an_aggregate(name));
            }
            Expr::ScalarCall {
                f: r.function(name)?,
                args: args
                    .iter()
                    .map(|a| lower_grouped(a, keys, env, aggs, r))
                    .collect::<Result<_>>()?,
            }
        }
        Expr::ScalarCall { f, args } => Expr::ScalarCall {
            f: *f,
            args: args
                .iter()
                .map(|a| lower_grouped(a, keys, env, aggs, r))
                .collect::<Result<_>>()?,
        },
    })
}

// ---------------------------------------------------------------------------
// EXPLAIN rendering
// ---------------------------------------------------------------------------

/// Render a compiled plan as indented text lines (one per output row of
/// `EXPLAIN`). Runs at compile time: the rendered plan is exactly the
/// plan the statement would execute with, under the current statistics.
fn render_plan(plan: &PhysicalPlan) -> Result<Vec<String>> {
    match plan {
        PhysicalPlan::StaticSelect(p) => Ok(render_static(p)),
        PhysicalPlan::Insert(ip) => {
            let child = match &ip.source {
                Some(src) => render_plan(src)?,
                None => vec!["Values".to_string()],
            };
            let mut lines = vec![format!("Insert on {}", ip.table)];
            lines.extend(indent_child(child));
            Ok(lines)
        }
        PhysicalPlan::Update(p) => Ok(render_dml("Update", p)),
        PhysicalPlan::Delete(p) => Ok(render_dml("Delete", p)),
        PhysicalPlan::Explain(_) | PhysicalPlan::Other => Err(SqlError::Parse(
            "EXPLAIN is only supported for SELECT, INSERT, UPDATE and DELETE".into(),
        )),
    }
}

/// Nest a child node: `->` marker on its first line, matching indent on
/// the rest.
fn indent_child(lines: Vec<String>) -> Vec<String> {
    lines
        .into_iter()
        .enumerate()
        .map(|(i, l)| {
            if i == 0 {
                format!("  ->  {l}")
            } else {
                format!("      {l}")
            }
        })
        .collect()
}

/// Name a slot of the pruned concatenated row layout, qualified by table
/// or function name when the FROM has more than one item.
fn pruned_slot_name(p: &StaticSelectPlan, s: usize) -> String {
    let mut off = 0;
    for item in &p.from {
        if s < off + item.used.len() {
            let col = &item.columns[item.used[s - off]];
            return if p.from.len() == 1 {
                col.clone()
            } else {
                format!("{}.{col}", item.name)
            };
        }
        off += item.used.len();
    }
    format!("?column{s}?")
}

/// The node line of a FROM item read without an access path.
fn scan_node(item: &ScanItem) -> String {
    match item.call {
        Some(_) => format!("FunctionScan on {}", item.name),
        None => format!("SeqScan on {}", item.name),
    }
}

/// The scan node of a single-table plan: `IndexScan using … on t` with
/// its `Index Cond` when an access path was chosen, else `SeqScan on t`,
/// then the `Filter`. `name` maps the expressions' slots to columns.
fn render_scan(
    table: &str,
    access: Option<&IndexChoice>,
    filter: Option<&Expr>,
    name: &dyn Fn(usize) -> String,
    fns: &[String],
) -> Vec<String> {
    let mut lines = match access {
        Some(a) => {
            let conds = a
                .conds
                .iter()
                .map(|(c, op, v)| {
                    format!(
                        "({} {} {})",
                        name(*c),
                        op_str(*op),
                        render_expr(v, name, fns)
                    )
                })
                .collect::<Vec<_>>()
                .join(" AND ");
            vec![
                format!("IndexScan using {} on {table}", a.index_name),
                format!("  Index Cond: {conds}"),
            ]
        }
        None => vec![format!("SeqScan on {table}")],
    };
    if let Some(w) = filter {
        lines.push(format!("  Filter: {}", render_expr(w, name, fns)));
    }
    lines
}

/// Name a slot of a table's full column layout.
fn column_name(cols: &[String], s: usize) -> String {
    cols.get(s)
        .cloned()
        .unwrap_or_else(|| format!("?column{s}?"))
}

fn render_static(p: &StaticSelectPlan) -> Vec<String> {
    // Pruned slot names serve only plans that are not single-table.
    let pruned = |s: usize| pruned_slot_name(p, s);
    let filter = || {
        p.ops
            .where_clause
            .as_ref()
            .map(|w| format!("  Filter: {}", render_expr(w, &pruned, &p.ops.fn_names)))
    };
    let scan = if let [t] = p.from.as_slice() {
        match &p.table {
            Some(ts) => {
                // Single-table plan: expressions are in the full layout.
                let full = |s: usize| column_name(&t.columns, s);
                let mut lines = render_scan(
                    &t.name,
                    ts.access.as_ref(),
                    p.ops.where_clause.as_ref(),
                    &full,
                    &p.ops.fn_names,
                );
                lines.push(format!("  Vectorized: {}", ts.vectorized));
                if ts.vectorized && p.ops.group.is_none() && p.ops.limit != usize::MAX {
                    // Bounded ordered SELECT on the batch path: the sort
                    // is a top-K heap, not a full sort.
                    let mut topk = vec![format!("Top-K (k={})", p.ops.limit)];
                    topk.extend(indent_child(lines));
                    lines = topk;
                }
                lines
            }
            None => [scan_node(t)].into_iter().chain(filter()).collect(),
        }
    } else {
        let children: Vec<String> = p
            .from
            .iter()
            .flat_map(|t| indent_child(vec![scan_node(t)]))
            .collect();
        let mut lines = match &p.hash_join {
            Some(hj) => vec![
                "HashJoin".to_string(),
                format!(
                    "  Hash Cond: ({} = {})",
                    pruned(hj.left_slot),
                    pruned(hj.right_slot)
                ),
            ],
            None => vec!["NestedLoop".to_string()],
        };
        lines.extend(filter());
        lines.extend(children);
        lines
    };
    wrap_aggregate(p.ops.group.is_some(), scan)
}

fn wrap_aggregate(grouped: bool, scan: Vec<String>) -> Vec<String> {
    if grouped {
        let mut lines = vec!["Aggregate".to_string()];
        lines.extend(indent_child(scan));
        lines
    } else {
        scan
    }
}

fn render_dml(verb: &str, p: &DmlPlan) -> Vec<String> {
    let name = |s: usize| column_name(&p.schema_cols, s);
    let scan = render_scan(
        &p.table,
        p.access.as_ref(),
        p.where_clause.as_ref(),
        &name,
        &p.fn_names,
    );
    let mut lines = vec![format!("{verb} on {}", p.table)];
    lines.extend(indent_child(scan));
    lines
}

fn op_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Concat => "||",
        BinOp::Eq => "=",
        BinOp::Ne => "<>",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::And => "AND",
        BinOp::Or => "OR",
    }
}

/// Render one plan expression for EXPLAIN output. `name` maps a slot to
/// its column name in the layout the expression was resolved against;
/// `fns` maps scalar-call indices back to function names.
fn render_expr(e: &Expr, name: &dyn Fn(usize) -> String, fns: &[String]) -> String {
    let list = |args: &[Expr]| {
        args.iter()
            .map(|a| render_expr(a, name, fns))
            .collect::<Vec<_>>()
            .join(", ")
    };
    match e {
        Expr::Literal(Value::Text(s)) => format!("'{s}'"),
        Expr::Literal(v) => format!("{v}"),
        Expr::Param(n) => format!("${n}"),
        Expr::Slot(i) => name(*i),
        Expr::Column { table, name: n } => match table {
            Some(t) => format!("{t}.{n}"),
            None => n.clone(),
        },
        Expr::Unary {
            op: UnOp::Neg,
            expr,
        } => format!("-{}", render_expr(expr, name, fns)),
        Expr::Unary {
            op: UnOp::Not,
            expr,
        } => format!("NOT {}", render_expr(expr, name, fns)),
        Expr::Binary { op, left, right } => format!(
            "({} {} {})",
            render_expr(left, name, fns),
            op_str(*op),
            render_expr(right, name, fns)
        ),
        Expr::Cast { expr, ty } => format!("({}::{})", render_expr(expr, name, fns), ty.name()),
        Expr::IsNull { expr, negated } => format!(
            "({} IS {}NULL)",
            render_expr(expr, name, fns),
            if *negated { "NOT " } else { "" }
        ),
        Expr::InList {
            expr,
            list: items,
            negated,
        } => format!(
            "({} {}IN ({}))",
            render_expr(expr, name, fns),
            if *negated { "NOT " } else { "" },
            list(items)
        ),
        Expr::Function {
            name: n,
            args,
            distinct,
        } => format!(
            "{n}({}{})",
            if *distinct { "DISTINCT " } else { "" },
            list(args)
        ),
        Expr::ScalarCall { f, args } => {
            let n = fns.get(*f).map(String::as_str).unwrap_or("?fn?");
            format!("{n}({})", list(args))
        }
        Expr::GroupKey(i) => format!("?group{i}?"),
        Expr::Agg(i) => format!("?agg{i}?"),
    }
}

/// Output column name for an unaliased projection.
fn derived_name(e: &Expr) -> String {
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => name.clone(),
        Expr::Cast { expr, .. } => derived_name(expr),
        _ => "?column?".into(),
    }
}
