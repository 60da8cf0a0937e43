//! Column-major execution batches and the vectorized kernels that run
//! over them.
//!
//! The zero-copy MVCC scan (see `exec.rs`) collects the visible rows of
//! one table under the read guard and [`Batch::fill`] transposes the
//! pruned columns into typed vectors — `f64` / `i64` / `bool` columns
//! plus text columns that *borrow* `&str` from the rows, so filling a
//! batch performs no string allocation. A validity bitmap tracks NULLs
//! per column.
//!
//! Every kernel returns [`VResult`]: `Err(Fallback)` means "this batch
//! cannot be reproduced byte-identically on the typed path" — an
//! unsupported value shape, a lane that would raise a runtime error
//! (NaN comparison, division by zero, integer overflow), or an operator
//! feature the kernels do not implement. The executor then re-runs the
//! tuple-at-a-time scalar path over the *same* visible-row view, so
//! results, error wording, and error ordering stay exactly the scalar
//! executor's. Kernels therefore never construct a user-facing error.
//!
//! Expression evaluation is selection-vector based: `eval` computes a
//! column of `sel.len()` lanes for the batch row ids listed in `sel`.
//! `AND`/`OR` evaluate their right side only over the lanes the left
//! side did not decide (a sub-selection), which reproduces the scalar
//! short-circuit contract — including how many times an intrinsic call
//! counter ticks and which lanes may raise errors.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::Ordering as AtomicOrdering;

use crate::ast::{BinOp, Expr, UnOp};
use crate::exec::float_key_bits;
use crate::plan::{AggOp, PlanFn};
use crate::table::{Row, Schema};
use crate::value::{DataType, Value, BIGINT_BOUND};

/// "Re-run this statement on the scalar executor." Carries no payload:
/// the scalar re-run owns all user-facing results and errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fallback;

/// Result type of every vectorized kernel.
pub(crate) type VResult<T> = std::result::Result<T, Fallback>;

// ---------------------------------------------------------------------------
// Validity bitmap
// ---------------------------------------------------------------------------

/// Per-column NULL bitmap: bit set = lane holds a valid value.
#[derive(Clone)]
pub(crate) struct Validity {
    bits: Vec<u64>,
}

impl Validity {
    pub(crate) fn all_valid(len: usize) -> Validity {
        Validity {
            bits: vec![u64::MAX; len.div_ceil(64)],
        }
    }

    pub(crate) fn set_null(&mut self, i: usize) {
        self.bits[i / 64] &= !(1u64 << (i % 64));
    }

    #[inline]
    pub(crate) fn is_valid(&self, i: usize) -> bool {
        self.bits[i / 64] >> (i % 64) & 1 != 0
    }
}

// ---------------------------------------------------------------------------
// Typed column vectors
// ---------------------------------------------------------------------------

/// Which SQL type an `i64` column carries (they share one representation
/// but must not compare across kinds).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum IntKind {
    Int,
    Timestamp,
    Interval,
}

impl IntKind {
    fn value(self, v: i64) -> Value {
        match self {
            IntKind::Int => Value::Int(v),
            IntKind::Timestamp => Value::Timestamp(v),
            IntKind::Interval => Value::Interval(v),
        }
    }
}

/// One typed column of a batch. Text lanes borrow from the rows the
/// batch was filled from (they live under the table read guard).
pub(crate) enum ColVec<'a> {
    F64 {
        data: Vec<f64>,
        valid: Validity,
    },
    I64 {
        kind: IntKind,
        data: Vec<i64>,
        valid: Validity,
    },
    Bool {
        data: Vec<bool>,
        valid: Validity,
    },
    Text {
        data: Vec<&'a str>,
        valid: Validity,
    },
}

impl<'a> ColVec<'a> {
    pub(crate) fn len(&self) -> usize {
        match self {
            ColVec::F64 { data, .. } => data.len(),
            ColVec::I64 { data, .. } => data.len(),
            ColVec::Bool { data, .. } => data.len(),
            ColVec::Text { data, .. } => data.len(),
        }
    }

    pub(crate) fn validity(&self) -> &Validity {
        match self {
            ColVec::F64 { valid, .. }
            | ColVec::I64 { valid, .. }
            | ColVec::Bool { valid, .. }
            | ColVec::Text { valid, .. } => valid,
        }
    }

    /// Rebuild lane `i` as an owned [`Value`] (allocates for text).
    pub(crate) fn value_at(&self, i: usize) -> Value {
        if !self.validity().is_valid(i) {
            return Value::Null;
        }
        match self {
            ColVec::F64 { data, .. } => Value::Float(data[i]),
            ColVec::I64 { kind, data, .. } => kind.value(data[i]),
            ColVec::Bool { data, .. } => Value::Bool(data[i]),
            ColVec::Text { data, .. } => Value::Text(data[i].to_string()),
        }
    }

    /// Copy the lanes listed in `sel` into a new column.
    fn gather(&self, sel: &[u32]) -> ColVec<'a> {
        fn pick<T: Copy>(data: &[T], valid: &Validity, sel: &[u32]) -> (Vec<T>, Validity) {
            let mut out = Vec::with_capacity(sel.len());
            let mut v = Validity::all_valid(sel.len());
            for (lane, &i) in sel.iter().enumerate() {
                out.push(data[i as usize]);
                if !valid.is_valid(i as usize) {
                    v.set_null(lane);
                }
            }
            (out, v)
        }
        match self {
            ColVec::F64 { data, valid } => {
                let (data, valid) = pick(data, valid, sel);
                ColVec::F64 { data, valid }
            }
            ColVec::I64 { kind, data, valid } => {
                let (data, valid) = pick(data, valid, sel);
                ColVec::I64 {
                    kind: *kind,
                    data,
                    valid,
                }
            }
            ColVec::Bool { data, valid } => {
                let (data, valid) = pick(data, valid, sel);
                ColVec::Bool { data, valid }
            }
            ColVec::Text { data, valid } => {
                let (data, valid) = pick(data, valid, sel);
                ColVec::Text { data, valid }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The batch
// ---------------------------------------------------------------------------

/// A column-major slice of one table's visible rows. `cols` is indexed
/// by the table's full-layout slot; only the slots the statement
/// references are filled (column pruning carries over from the
/// zero-copy scan).
pub(crate) struct Batch<'a> {
    cols: Vec<Option<ColVec<'a>>>,
    len: usize,
}

/// Rows per fill chunk. [`Batch::fill`] runs every column's typed loop
/// over one chunk before it reads the next, so a chunk of rows (about
/// 200 KB for a four-column table) is still in cache when the next
/// column reads it.
const FILL_CHUNK: usize = 1024;

impl<'a> Batch<'a> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Transpose `slots` of the visible rows into typed columns, chunk by
    /// chunk. The column type is the *declared* schema type; a stored
    /// value of any other shape (possible through `variant` coercion
    /// paths) aborts to the scalar executor rather than guessing.
    pub(crate) fn fill(schema: &Schema, rows: &[&'a Row], slots: &[usize]) -> VResult<Batch<'a>> {
        let mut cols: Vec<Option<ColVec<'a>>> = Vec::with_capacity(schema.columns.len());
        cols.resize_with(schema.columns.len(), || None);
        for &slot in slots {
            let dtype = schema.columns.get(slot).ok_or(Fallback)?.dtype;
            if cols[slot].is_none() {
                cols[slot] = Some(ColVec::with_capacity(dtype, rows.len())?);
            }
        }
        for chunk in rows.chunks(FILL_CHUNK) {
            for (slot, col) in cols.iter_mut().enumerate() {
                if let Some(col) = col {
                    col.extend_from(chunk, slot)?;
                }
            }
        }
        Ok(Batch {
            cols,
            len: rows.len(),
        })
    }
}

impl<'a> ColVec<'a> {
    /// An empty column of the declared type with room for `n` lanes.
    fn with_capacity(dtype: DataType, n: usize) -> VResult<ColVec<'a>> {
        let valid = Validity::all_valid(n);
        Ok(match dtype {
            DataType::Float => ColVec::F64 {
                data: Vec::with_capacity(n),
                valid,
            },
            DataType::Int => ColVec::I64 {
                kind: IntKind::Int,
                data: Vec::with_capacity(n),
                valid,
            },
            DataType::Timestamp => ColVec::I64 {
                kind: IntKind::Timestamp,
                data: Vec::with_capacity(n),
                valid,
            },
            DataType::Interval => ColVec::I64 {
                kind: IntKind::Interval,
                data: Vec::with_capacity(n),
                valid,
            },
            DataType::Bool => ColVec::Bool {
                data: Vec::with_capacity(n),
                valid,
            },
            DataType::Text => ColVec::Text {
                data: Vec::with_capacity(n),
                valid,
            },
            DataType::Variant => return Err(Fallback),
        })
    }

    /// Append `slot` of each of `rows`: one typed loop for the column.
    fn extend_from(&mut self, rows: &[&'a Row], slot: usize) -> VResult<()> {
        macro_rules! typed {
            ($data:ident, $valid:ident, $default:expr, $pat:pat => $lane:expr) => {
                for row in rows {
                    match row.get(slot).ok_or(Fallback)? {
                        Value::Null => {
                            $valid.set_null($data.len());
                            $data.push($default);
                        }
                        $pat => $data.push($lane),
                        _ => return Err(Fallback),
                    }
                }
            };
        }
        match self {
            ColVec::F64 { data, valid } => typed!(data, valid, 0.0, Value::Float(f) => *f),
            ColVec::I64 {
                kind: IntKind::Int,
                data,
                valid,
            } => typed!(data, valid, 0, Value::Int(v) => *v),
            ColVec::I64 {
                kind: IntKind::Timestamp,
                data,
                valid,
            } => typed!(data, valid, 0, Value::Timestamp(v) => *v),
            ColVec::I64 {
                kind: IntKind::Interval,
                data,
                valid,
            } => typed!(data, valid, 0, Value::Interval(v) => *v),
            ColVec::Bool { data, valid } => typed!(data, valid, false, Value::Bool(b) => *b),
            ColVec::Text { data, valid } => {
                typed!(data, valid, "", Value::Text(s) => s.as_str())
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Vectorized expression evaluation
// ---------------------------------------------------------------------------

/// Statement context the vectorized evaluator needs: bind parameters and
/// the plan's resolved scalar-function table.
pub(crate) struct VecCtx<'e> {
    pub(crate) params: &'e [Value],
    pub(crate) fns: &'e [PlanFn],
}

/// An evaluated expression over a selection: either a column of
/// `sel.len()` lanes or an unexpanded constant.
pub(crate) enum Evaled<'a> {
    Col(ColVec<'a>),
    Const(Value),
}

impl<'a> Evaled<'a> {
    /// Expand to a full column of `n` lanes (for key / sort columns that
    /// need per-lane access). Constant NULL and text stay scalar-only.
    pub(crate) fn materialize(self, n: usize) -> VResult<ColVec<'a>> {
        match self {
            Evaled::Col(c) => Ok(c),
            Evaled::Const(v) => {
                let valid = Validity::all_valid(n);
                Ok(match v {
                    Value::Int(x) => ColVec::I64 {
                        kind: IntKind::Int,
                        data: vec![x; n],
                        valid,
                    },
                    Value::Float(x) => ColVec::F64 {
                        data: vec![x; n],
                        valid,
                    },
                    Value::Bool(x) => ColVec::Bool {
                        data: vec![x; n],
                        valid,
                    },
                    Value::Timestamp(x) => ColVec::I64 {
                        kind: IntKind::Timestamp,
                        data: vec![x; n],
                        valid,
                    },
                    Value::Interval(x) => ColVec::I64 {
                        kind: IntKind::Interval,
                        data: vec![x; n],
                        valid,
                    },
                    Value::Null | Value::Text(_) => return Err(Fallback),
                })
            }
        }
    }
}

/// Evaluate `e` over the batch rows listed in `sel`, producing one lane
/// per selection entry.
pub(crate) fn eval<'a>(
    e: &Expr,
    b: &Batch<'a>,
    sel: &[u32],
    cx: &VecCtx<'_>,
) -> VResult<Evaled<'a>> {
    match e {
        Expr::Literal(v) => Ok(Evaled::Const(v.clone())),
        Expr::Param(i) => match cx.params.get(*i - 1) {
            Some(v) => Ok(Evaled::Const(v.clone())),
            None => Err(Fallback),
        },
        Expr::Slot(i) => {
            let col = b.cols.get(*i).and_then(|c| c.as_ref()).ok_or(Fallback)?;
            Ok(Evaled::Col(col.gather(sel)))
        }
        Expr::Unary { op, expr } => {
            let v = eval(expr, b, sel, cx)?;
            match op {
                UnOp::Neg => neg(v),
                UnOp::Not => not(v),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, b, sel, cx)?;
            Ok(match v {
                Evaled::Const(v) => Evaled::Const(Value::Bool(v.is_null() != *negated)),
                Evaled::Col(c) => {
                    let valid = c.validity();
                    let data: Vec<bool> = (0..c.len())
                        .map(|i| valid.is_valid(i) == *negated)
                        .collect();
                    Evaled::Col(ColVec::Bool {
                        valid: Validity::all_valid(data.len()),
                        data,
                    })
                }
            })
        }
        Expr::Cast { expr, ty } => {
            let v = eval(expr, b, sel, cx)?;
            cast(v, *ty)
        }
        Expr::Binary { op, left, right } => match op {
            BinOp::And | BinOp::Or => logical(matches!(op, BinOp::And), left, right, b, sel, cx),
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                let l = eval(left, b, sel, cx)?;
                let r = eval(right, b, sel, cx)?;
                arith(*op, &l, &r, sel.len())
            }
            BinOp::Concat => Err(Fallback),
            _ => {
                let l = eval(left, b, sel, cx)?;
                let r = eval(right, b, sel, cx)?;
                compare(*op, &l, &r, sel.len())
            }
        },
        Expr::ScalarCall { f, args } => scalar_call(*f, args, b, sel, cx),
        // Everything else (Concat, InList, unresolved columns, grouped
        // references, plain Function dispatch) is scalar-only.
        _ => Err(Fallback),
    }
}

fn neg(v: Evaled<'_>) -> VResult<Evaled<'_>> {
    match v {
        Evaled::Const(Value::Null) => Ok(Evaled::Const(Value::Null)),
        Evaled::Const(Value::Int(i)) => {
            Ok(Evaled::Const(Value::Int(i.checked_neg().ok_or(Fallback)?)))
        }
        Evaled::Const(Value::Float(f)) => Ok(Evaled::Const(Value::Float(-f))),
        Evaled::Const(Value::Interval(i)) => Ok(Evaled::Const(Value::Interval(
            i.checked_neg().ok_or(Fallback)?,
        ))),
        Evaled::Const(_) => Err(Fallback),
        Evaled::Col(ColVec::F64 { data, valid }) => Ok(Evaled::Col(ColVec::F64 {
            data: data.into_iter().map(|f| -f).collect(),
            valid,
        })),
        Evaled::Col(ColVec::I64 { kind, data, valid }) if kind != IntKind::Timestamp => {
            let mut out = Vec::with_capacity(data.len());
            for (i, x) in data.into_iter().enumerate() {
                if valid.is_valid(i) {
                    out.push(x.checked_neg().ok_or(Fallback)?);
                } else {
                    out.push(0);
                }
            }
            Ok(Evaled::Col(ColVec::I64 {
                kind,
                data: out,
                valid,
            }))
        }
        Evaled::Col(_) => Err(Fallback),
    }
}

fn not(v: Evaled<'_>) -> VResult<Evaled<'_>> {
    match v {
        Evaled::Const(Value::Null) => Ok(Evaled::Const(Value::Null)),
        Evaled::Const(Value::Bool(x)) => Ok(Evaled::Const(Value::Bool(!x))),
        Evaled::Const(_) => Err(Fallback),
        Evaled::Col(ColVec::Bool { data, valid }) => Ok(Evaled::Col(ColVec::Bool {
            data: data.into_iter().map(|x| !x).collect(),
            valid,
        })),
        Evaled::Col(_) => Err(Fallback),
    }
}

fn cast<'a>(v: Evaled<'a>, ty: DataType) -> VResult<Evaled<'a>> {
    match v {
        // `cast_to` owns the scalar semantics (including the rounding
        // float → int rule); a cast it rejects falls back for wording.
        Evaled::Const(v) => v.cast_to(ty).map(Evaled::Const).map_err(|_| Fallback),
        Evaled::Col(c) => match (ty, c) {
            (DataType::Int, ColVec::F64 { data, valid }) => {
                // One comparison per lane flags NaN and |x| >= 2^63; a
                // flagged valid lane is `bigint out of range` in the
                // scalar cast, so the batch declines and the re-run raises.
                let mut overflow = false;
                let ints = data
                    .into_iter()
                    .enumerate()
                    .map(|(i, f)| {
                        let r = f.round();
                        let fits = r.abs() < BIGINT_BOUND;
                        overflow |= !fits && valid.is_valid(i);
                        r as i64
                    })
                    .collect();
                if overflow {
                    return Err(Fallback);
                }
                Ok(Evaled::Col(ColVec::I64 {
                    kind: IntKind::Int,
                    data: ints,
                    valid,
                }))
            }
            (
                DataType::Int,
                c @ ColVec::I64 {
                    kind: IntKind::Int, ..
                },
            ) => Ok(Evaled::Col(c)),
            (
                DataType::Float,
                ColVec::I64 {
                    kind: IntKind::Int,
                    data,
                    valid,
                },
            ) => Ok(Evaled::Col(ColVec::F64 {
                data: data.into_iter().map(|i| i as f64).collect(),
                valid,
            })),
            (DataType::Float, c @ ColVec::F64 { .. }) => Ok(Evaled::Col(c)),
            _ => Err(Fallback),
        },
    }
}

/// A normalized view of one side of a binary operator.
enum Side<'v, 'a> {
    FCol(&'v [f64], &'v Validity),
    FConst(f64),
    ICol(IntKind, &'v [i64], &'v Validity),
    IConst(IntKind, i64),
    BCol(&'v [bool], &'v Validity),
    BConst(bool),
    TCol(&'v [&'a str], &'v Validity),
    TConst(&'v str),
}

impl Side<'_, '_> {
    fn of<'v, 'a>(ev: &'v Evaled<'a>) -> VResult<Side<'v, 'a>> {
        Ok(match ev {
            Evaled::Col(ColVec::F64 { data, valid }) => Side::FCol(data, valid),
            Evaled::Col(ColVec::I64 { kind, data, valid }) => Side::ICol(*kind, data, valid),
            Evaled::Col(ColVec::Bool { data, valid }) => Side::BCol(data, valid),
            Evaled::Col(ColVec::Text { data, valid }) => Side::TCol(data, valid),
            Evaled::Const(Value::Int(x)) => Side::IConst(IntKind::Int, *x),
            Evaled::Const(Value::Float(x)) => Side::FConst(*x),
            Evaled::Const(Value::Bool(x)) => Side::BConst(*x),
            Evaled::Const(Value::Text(s)) => Side::TConst(s.as_str()),
            Evaled::Const(Value::Timestamp(x)) => Side::IConst(IntKind::Timestamp, *x),
            Evaled::Const(Value::Interval(x)) => Side::IConst(IntKind::Interval, *x),
            Evaled::Const(Value::Null) => return Err(Fallback),
        })
    }

    #[inline]
    fn valid(&self, i: usize) -> bool {
        match self {
            Side::FCol(_, v) | Side::ICol(_, _, v) | Side::BCol(_, v) | Side::TCol(_, v) => {
                v.is_valid(i)
            }
            _ => true,
        }
    }

    #[inline]
    fn f(&self, i: usize) -> f64 {
        match self {
            Side::FCol(d, _) => d[i],
            Side::FConst(x) => *x,
            Side::ICol(_, d, _) => d[i] as f64,
            Side::IConst(_, x) => *x as f64,
            Side::BCol(d, _) => d[i] as u8 as f64,
            Side::BConst(x) => *x as u8 as f64,
            _ => 0.0,
        }
    }

    #[inline]
    fn i(&self, i: usize) -> i64 {
        match self {
            Side::ICol(_, d, _) => d[i],
            Side::IConst(_, x) => *x,
            _ => 0,
        }
    }

    fn int_kind(&self) -> Option<IntKind> {
        match self {
            Side::ICol(k, _, _) => Some(*k),
            Side::IConst(k, _) => Some(*k),
            _ => None,
        }
    }

    /// Participates in the scalar float-promotion arm (`as_f64`)?
    fn numericish(&self) -> bool {
        matches!(
            self,
            Side::FCol(..) | Side::FConst(_) | Side::BCol(..) | Side::BConst(_)
        ) || self.int_kind() == Some(IntKind::Int)
    }
}

fn arith<'a>(op: BinOp, l: &Evaled<'a>, r: &Evaled<'a>, n: usize) -> VResult<Evaled<'a>> {
    if matches!(l, Evaled::Const(Value::Null)) || matches!(r, Evaled::Const(Value::Null)) {
        return Ok(Evaled::Const(Value::Null));
    }
    let a = Side::of(l)?;
    let b = Side::of(r)?;
    // Timestamp / interval arithmetic has bespoke scalar arms; bail.
    if !a.numericish() || !b.numericish() {
        return Err(Fallback);
    }
    let mut valid = Validity::all_valid(n);
    if a.int_kind() == Some(IntKind::Int) && b.int_kind() == Some(IntKind::Int) {
        // Integer arm, exactly like the scalar executor: division by
        // zero and overflow are runtime errors, so the batch declines
        // and the scalar re-run raises them.
        let mut data = vec![0i64; n];
        for (lane, out) in data.iter_mut().enumerate() {
            if !(a.valid(lane) && b.valid(lane)) {
                valid.set_null(lane);
                continue;
            }
            let (x, y) = (a.i(lane), b.i(lane));
            *out = match op {
                BinOp::Add => x.checked_add(y),
                BinOp::Sub => x.checked_sub(y),
                BinOp::Mul => x.checked_mul(y),
                BinOp::Div => {
                    if y == 0 {
                        return Err(Fallback);
                    }
                    x.checked_div(y)
                }
                _ => unreachable!("arith takes + - * / only"),
            }
            .ok_or(Fallback)?;
        }
        return Ok(Evaled::Col(ColVec::I64 {
            kind: IntKind::Int,
            data,
            valid,
        }));
    }
    let mut data = vec![0.0f64; n];
    for (lane, out) in data.iter_mut().enumerate() {
        if !(a.valid(lane) && b.valid(lane)) {
            valid.set_null(lane);
            continue;
        }
        let (x, y) = (a.f(lane), b.f(lane));
        *out = match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => {
                if y == 0.0 {
                    return Err(Fallback);
                }
                x / y
            }
            _ => unreachable!("arith takes + - * / only"),
        };
    }
    Ok(Evaled::Col(ColVec::F64 { data, valid }))
}

fn cmp_op(op: BinOp, o: Ordering) -> bool {
    match op {
        BinOp::Eq => o == Ordering::Equal,
        BinOp::Ne => o != Ordering::Equal,
        BinOp::Lt => o == Ordering::Less,
        BinOp::Le => o != Ordering::Greater,
        BinOp::Gt => o == Ordering::Greater,
        BinOp::Ge => o != Ordering::Less,
        _ => unreachable!("cmp_op takes comparison operators only"),
    }
}

fn compare<'a>(op: BinOp, l: &Evaled<'a>, r: &Evaled<'a>, n: usize) -> VResult<Evaled<'a>> {
    if matches!(l, Evaled::Const(Value::Null)) || matches!(r, Evaled::Const(Value::Null)) {
        return Ok(Evaled::Const(Value::Null));
    }
    let a = Side::of(l)?;
    let b = Side::of(r)?;
    let mut valid = Validity::all_valid(n);
    let mut data = vec![false; n];
    // Typed comparison lanes, mirroring the scalar `compare` arms. Any
    // pairing that scalar `compare` rejects (or parses, like timestamp
    // vs text) falls back; a NaN on a compared lane is a scalar runtime
    // error, so it falls back too.
    enum Kernel {
        I64,
        F64,
        Bool,
        Text,
    }
    let kernel = match (&a, &b) {
        (Side::TCol(..) | Side::TConst(_), Side::TCol(..) | Side::TConst(_)) => Kernel::Text,
        (Side::BCol(..) | Side::BConst(_), Side::BCol(..) | Side::BConst(_)) => Kernel::Bool,
        _ => match (a.int_kind(), b.int_kind()) {
            (Some(ka), Some(kb)) if ka == kb => Kernel::I64,
            _ if a.numericish()
                && b.numericish()
                && a.int_kind().is_none_or(|k| k == IntKind::Int)
                && b.int_kind().is_none_or(|k| k == IntKind::Int)
                && !matches!(a, Side::BCol(..) | Side::BConst(_))
                && !matches!(b, Side::BCol(..) | Side::BConst(_)) =>
            {
                Kernel::F64
            }
            _ => return Err(Fallback),
        },
    };
    for lane in 0..n {
        if !(a.valid(lane) && b.valid(lane)) {
            valid.set_null(lane);
            continue;
        }
        let o = match kernel {
            Kernel::I64 => a.i(lane).cmp(&b.i(lane)),
            Kernel::F64 => a.f(lane).partial_cmp(&b.f(lane)).ok_or(Fallback)?,
            Kernel::Bool => {
                let (x, y) = match (&a, &b) {
                    (Side::BCol(d, _), _) => (d[lane], bool_side(&b, lane)),
                    (Side::BConst(x), _) => (*x, bool_side(&b, lane)),
                    _ => unreachable!(),
                };
                x.cmp(&y)
            }
            Kernel::Text => {
                let x = text_side(&a, lane);
                let y = text_side(&b, lane);
                x.cmp(y)
            }
        };
        data[lane] = cmp_op(op, o);
    }
    Ok(Evaled::Col(ColVec::Bool { data, valid }))
}

fn bool_side(s: &Side<'_, '_>, i: usize) -> bool {
    match s {
        Side::BCol(d, _) => d[i],
        Side::BConst(x) => *x,
        _ => unreachable!(),
    }
}

fn text_side<'v, 'a>(s: &'v Side<'v, 'a>, i: usize) -> &'v str {
    match s {
        Side::TCol(d, _) => d[i],
        Side::TConst(x) => x,
        _ => unreachable!(),
    }
}

/// Kleene AND/OR with the scalar short-circuit contract: the right side
/// is evaluated only over lanes the left side did not decide (left
/// `false` decides AND; left `true` decides OR), so right-side errors,
/// fallbacks, and intrinsic-counter ticks land on exactly the lanes the
/// scalar executor would evaluate.
fn logical<'a>(
    and: bool,
    left: &Expr,
    right: &Expr,
    b: &Batch<'a>,
    sel: &[u32],
    cx: &VecCtx<'_>,
) -> VResult<Evaled<'a>> {
    let l = eval(left, b, sel, cx)?;
    let lanes: Vec<Option<bool>> = match &l {
        Evaled::Const(Value::Bool(x)) => {
            if *x != and {
                // Uniformly decided: `false AND …` / `true OR …`.
                return Ok(Evaled::Const(Value::Bool(*x)));
            }
            vec![Some(*x); sel.len()]
        }
        Evaled::Const(Value::Null) => vec![None; sel.len()],
        Evaled::Const(_) => return Err(Fallback),
        Evaled::Col(ColVec::Bool { data, valid }) => (0..data.len())
            .map(|i| valid.is_valid(i).then(|| data[i]))
            .collect(),
        Evaled::Col(_) => return Err(Fallback),
    };
    let undecided: Vec<usize> = (0..lanes.len())
        .filter(|&i| lanes[i] != Some(!and))
        .collect();
    let rhs = if undecided.is_empty() {
        None
    } else {
        let sub_sel: Vec<u32> = undecided.iter().map(|&i| sel[i]).collect();
        Some(eval(right, b, &sub_sel, cx)?)
    };
    let mut data = vec![false; lanes.len()];
    let mut valid = Validity::all_valid(lanes.len());
    let mut sub = 0usize;
    for (i, l) in lanes.iter().enumerate() {
        let out = if *l == Some(!and) {
            Some(!and)
        } else {
            let r = match rhs.as_ref().expect("undecided lanes imply a right side") {
                Evaled::Const(Value::Bool(x)) => Some(*x),
                Evaled::Const(Value::Null) => None,
                Evaled::Const(_) => return Err(Fallback),
                Evaled::Col(ColVec::Bool { data, valid }) => valid.is_valid(sub).then(|| data[sub]),
                Evaled::Col(_) => return Err(Fallback),
            };
            sub += 1;
            match (and, *l, r) {
                // AND: false dominates, then NULL, then true.
                (true, _, Some(false)) => Some(false),
                (true, None, _) | (true, _, None) => None,
                (true, Some(x), Some(y)) => Some(x && y),
                // OR: true dominates, then NULL, then false.
                (false, _, Some(true)) => Some(true),
                (false, None, _) | (false, _, None) => None,
                (false, Some(x), Some(y)) => Some(x || y),
            }
        };
        match out {
            Some(x) => data[i] = x,
            None => valid.set_null(i),
        }
    }
    Ok(Evaled::Col(ColVec::Bool { data, valid }))
}

/// Vectorized intrinsic call: the plan resolved `f` to a pure builtin.
/// The shared call counter ticks once per evaluated lane — exactly the
/// scalar per-row ticking, including NULL-argument lanes (intrinsics
/// are strict but still count the call).
fn scalar_call<'a>(
    f: usize,
    args: &[Expr],
    b: &Batch<'a>,
    sel: &[u32],
    cx: &VecCtx<'_>,
) -> VResult<Evaled<'a>> {
    use crate::functions::Intrinsic;
    let PlanFn::Intrinsic { op, counter, .. } = cx.fns.get(f).ok_or(Fallback)? else {
        return Err(Fallback);
    };
    let [arg] = args else { return Err(Fallback) };
    let arg = eval(arg, b, sel, cx)?;
    let out = match arg {
        Evaled::Const(v) => match crate::functions::eval_intrinsic(*op, &[v]) {
            Some(Ok(v)) => Evaled::Const(v),
            // Errors and natively-unhandled shapes go to the scalar
            // executor, which owns the wording.
            _ => return Err(Fallback),
        },
        Evaled::Col(col) => {
            let float_kernel = |g: fn(f64) -> f64, col: ColVec<'a>| -> VResult<ColVec<'a>> {
                match col {
                    ColVec::F64 { data, valid } => Ok(ColVec::F64 {
                        data: data.into_iter().map(g).collect(),
                        valid,
                    }),
                    ColVec::I64 {
                        kind: IntKind::Int,
                        data,
                        valid,
                    } => Ok(ColVec::F64 {
                        data: data.into_iter().map(|i| g(i as f64)).collect(),
                        valid,
                    }),
                    _ => Err(Fallback),
                }
            };
            Evaled::Col(match op {
                Intrinsic::Floor => float_kernel(f64::floor, col)?,
                Intrinsic::Ceil => float_kernel(f64::ceil, col)?,
                Intrinsic::Sqrt => float_kernel(f64::sqrt, col)?,
                Intrinsic::Exp => float_kernel(f64::exp, col)?,
                Intrinsic::Ln => float_kernel(f64::ln, col)?,
                Intrinsic::Abs => match col {
                    ColVec::F64 { data, valid } => ColVec::F64 {
                        data: data.into_iter().map(f64::abs).collect(),
                        valid,
                    },
                    ColVec::I64 {
                        kind: IntKind::Int,
                        data,
                        valid,
                    } => {
                        let mut out = Vec::with_capacity(data.len());
                        for (i, x) in data.into_iter().enumerate() {
                            if valid.is_valid(i) {
                                out.push(x.checked_abs().ok_or(Fallback)?);
                            } else {
                                out.push(0);
                            }
                        }
                        ColVec::I64 {
                            kind: IntKind::Int,
                            data: out,
                            valid,
                        }
                    }
                    _ => return Err(Fallback),
                },
                Intrinsic::ExtractEpoch => match col {
                    ColVec::I64 {
                        kind: IntKind::Timestamp | IntKind::Interval,
                        data,
                        valid,
                    } => ColVec::I64 {
                        kind: IntKind::Int,
                        data,
                        valid,
                    },
                    _ => return Err(Fallback),
                },
            })
        }
    };
    counter.fetch_add(sel.len() as u64, AtomicOrdering::Relaxed);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Kernels: filter, grouped fold, sort, top-K
// ---------------------------------------------------------------------------

/// Evaluate the WHERE clause over the whole batch and return the passing
/// batch row ids (ascending). NULL predicates drop the row, as in SQL.
pub(crate) fn filter(
    where_clause: Option<&Expr>,
    b: &Batch<'_>,
    cx: &VecCtx<'_>,
) -> VResult<Vec<u32>> {
    let all: Vec<u32> = (0..b.len() as u32).collect();
    let Some(w) = where_clause else {
        return Ok(all);
    };
    match eval(w, b, &all, cx)? {
        Evaled::Const(Value::Bool(true)) => Ok(all),
        Evaled::Const(Value::Bool(false)) | Evaled::Const(Value::Null) => Ok(Vec::new()),
        Evaled::Const(_) => Err(Fallback),
        Evaled::Col(ColVec::Bool { data, valid }) => Ok((0..data.len() as u32)
            .filter(|&i| valid.is_valid(i as usize) && data[i as usize])
            .collect()),
        Evaled::Col(_) => Err(Fallback),
    }
}

/// Dense first-seen ids for a sequence of keys: the first distinct key
/// gets 0, the next 1, and so on. A key equal to the one before reuses
/// its id without a map probe, so clustered input hashes once per run.
/// Returns each lane's id and, per id, the lane that first had it.
fn dense_ids<K: Copy + Eq + Hash>(keys: impl Iterator<Item = K>) -> (Vec<u32>, Vec<u32>) {
    let mut map: HashMap<K, u32> = HashMap::new();
    let mut ids = Vec::with_capacity(keys.size_hint().0);
    let mut firsts = Vec::new();
    let mut prev: Option<(K, u32)> = None;
    for (lane, key) in keys.enumerate() {
        let id = match prev {
            Some((p, id)) if p == key => id,
            _ => {
                let id = *map.entry(key).or_insert_with(|| {
                    firsts.push(lane as u32);
                    firsts.len() as u32 - 1
                });
                prev = Some((key, id));
                id
            }
        };
        ids.push(id);
    }
    (ids, firsts)
}

/// The map key of an id pair, `(hi << 32) | lo`: distinct pairs get
/// distinct keys, so numbering pairs numbers the tuples they stand for.
fn pair(hi: u32, lo: u32) -> u64 {
    (hi as u64) << 32 | lo as u64
}

/// [`dense_ids`] over the lanes of one column. The map key is the lane's
/// payload (canonical float bits, the integer, the bool, or the borrowed
/// text); NULL is `None`, an id of its own.
fn column_ids(col: &ColVec<'_>) -> (Vec<u32>, Vec<u32>) {
    fn lanes<'d, T: Copy, K>(
        data: &'d [T],
        valid: &'d Validity,
        key: impl Fn(T) -> K + 'd,
    ) -> impl Iterator<Item = Option<K>> + 'd {
        data.iter()
            .enumerate()
            .map(move |(i, &x)| valid.is_valid(i).then(|| key(x)))
    }
    match col {
        ColVec::F64 { data, valid } => dense_ids(lanes(data, valid, float_key_bits)),
        ColVec::I64 { data, valid, .. } => dense_ids(lanes(data, valid, |x| x)),
        ColVec::Bool { data, valid } => dense_ids(lanes(data, valid, |x| x)),
        ColVec::Text { data, valid } => dense_ids(lanes(data, valid, |x| x)),
    }
}

/// Grouped aggregation over materialized key and argument columns (all
/// of length `n`, already gathered through the selection). Returns
/// `(key values, aggregate values)` per group in first-seen order — the
/// same contract as the scalar grouping operator, including the "empty
/// GROUP BY yields one group even over empty input" rule.
///
/// Each key column gets dense ids of its own; further key columns fold
/// in pairwise as the composite [`pair`]`(id so far, column id)`, again
/// densely numbered in first-seen order. Key tuples and composite ids
/// map one to one over the same row order, so the group order is the
/// scalar executor's. A group's key values come from its first lane.
pub(crate) fn grouped_fold(
    keys: &[ColVec<'_>],
    aggs: &[(AggOp, Option<ColVec<'_>>)],
    n: usize,
) -> VResult<Vec<(Vec<Value>, Vec<Value>)>> {
    let (gids, key_rows) = match keys.split_first() {
        None => (vec![0; n], vec![Vec::new()]),
        Some((first, rest)) => {
            let (mut gids, mut firsts) = column_ids(first);
            for k in rest {
                let (col, _) = column_ids(k);
                (gids, firsts) = dense_ids(gids.iter().zip(&col).map(|(&g, &c)| pair(g, c)));
            }
            let key_rows: Vec<Vec<Value>> = firsts
                .iter()
                .map(|&i| keys.iter().map(|k| k.value_at(i as usize)).collect())
                .collect();
            (gids, key_rows)
        }
    };
    let ng = key_rows.len();
    let mut agg_cols: Vec<Vec<Value>> = Vec::with_capacity(aggs.len());
    for (op, arg) in aggs {
        agg_cols.push(fold_one(*op, arg.as_ref(), &gids, ng)?);
    }
    Ok(key_rows
        .into_iter()
        .enumerate()
        .map(|(g, kr)| (kr, agg_cols.iter().map(|c| c[g].clone()).collect()))
        .collect())
}

/// Fold one aggregate over the whole input, slice-at-a-time per group.
fn fold_one(op: AggOp, arg: Option<&ColVec<'_>>, gids: &[u32], ng: usize) -> VResult<Vec<Value>> {
    match op {
        AggOp::CountStar => {
            let mut counts = vec![0i64; ng];
            for &g in gids {
                counts[g as usize] += 1;
            }
            Ok(counts.into_iter().map(Value::Int).collect())
        }
        AggOp::Count => {
            let col = arg.ok_or(Fallback)?;
            let mut counts = vec![0i64; ng];
            let valid = col.validity();
            for (i, &g) in gids.iter().enumerate() {
                counts[g as usize] += valid.is_valid(i) as i64;
            }
            Ok(counts.into_iter().map(Value::Int).collect())
        }
        AggOp::CountDistinct => {
            // One count per distinct (group, value) pair among the
            // non-NULL lanes; NULL lanes share the pair id `None`.
            let col = arg.ok_or(Fallback)?;
            let (vids, _) = column_ids(col);
            let valid = col.validity();
            let (_, firsts) = dense_ids(
                (gids.iter().zip(&vids).enumerate())
                    .map(|(i, (&g, &v))| valid.is_valid(i).then_some(pair(g, v))),
            );
            let mut counts = vec![0i64; ng];
            for i in firsts {
                if valid.is_valid(i as usize) {
                    counts[gids[i as usize] as usize] += 1;
                }
            }
            Ok(counts.into_iter().map(Value::Int).collect())
        }
        AggOp::Sum | AggOp::Avg => {
            let col = arg.ok_or(Fallback)?;
            let mut sums = vec![0.0f64; ng];
            let mut ns = vec![0i64; ng];
            // Mirror `as_f64`: floats, ints, and bools sum; everything
            // else is a scalar type error.
            macro_rules! accumulate {
                ($data:ident, $valid:ident, $as_f:expr) => {
                    for (i, &g) in gids.iter().enumerate() {
                        if $valid.is_valid(i) {
                            sums[g as usize] += $as_f($data[i]);
                            ns[g as usize] += 1;
                        }
                    }
                };
            }
            match col {
                ColVec::F64 { data, valid } => accumulate!(data, valid, |x: f64| x),
                ColVec::I64 {
                    kind: IntKind::Int,
                    data,
                    valid,
                } => accumulate!(data, valid, |x: i64| x as f64),
                ColVec::Bool { data, valid } => {
                    accumulate!(data, valid, |x: bool| x as u8 as f64)
                }
                _ => return Err(Fallback),
            }
            Ok(sums
                .into_iter()
                .zip(ns)
                .map(|(s, n)| {
                    if n == 0 {
                        Value::Null
                    } else if op == AggOp::Avg {
                        Value::Float(s / n as f64)
                    } else {
                        Value::Float(s)
                    }
                })
                .collect())
        }
        AggOp::Min | AggOp::Max => {
            let col = arg.ok_or(Fallback)?;
            let want = if op == AggOp::Min {
                Ordering::Less
            } else {
                Ordering::Greater
            };
            // Track the best lane per group; replace only on a strict
            // win so ties keep the first-seen value, like the scalar
            // accumulator. NaN would be a scalar comparison error.
            let mut best: Vec<Option<usize>> = vec![None; ng];
            let valid = col.validity();
            for (i, &g) in gids.iter().enumerate() {
                if !valid.is_valid(i) {
                    continue;
                }
                match best[g as usize] {
                    None => best[g as usize] = Some(i),
                    Some(cur) => {
                        let o = match col {
                            ColVec::F64 { data, .. } => {
                                data[i].partial_cmp(&data[cur]).ok_or(Fallback)?
                            }
                            ColVec::I64 { data, .. } => data[i].cmp(&data[cur]),
                            ColVec::Bool { data, .. } => data[i].cmp(&data[cur]),
                            ColVec::Text { data, .. } => data[i].cmp(data[cur]),
                        };
                        if o == want {
                            best[g as usize] = Some(i);
                        }
                    }
                }
            }
            if let ColVec::F64 { data, .. } = col {
                // A best-lane NaN never loses a comparison above when it
                // arrives first; scalar min/max errors on any NaN.
                if (data.iter().enumerate()).any(|(i, f)| f.is_nan() && valid.is_valid(i)) {
                    return Err(Fallback);
                }
            }
            Ok(best
                .into_iter()
                .map(|b| b.map(|i| col.value_at(i)).unwrap_or(Value::Null))
                .collect())
        }
    }
}

/// Ordering of two lanes of one key column, replicating the scalar
/// `order_cmp`: NULLs sort last (before DESC reversal), NaN sorts after
/// every other float. NaN must not compare `Equal` to non-NaN values —
/// that breaks the total order the standard sort requires.
fn lane_cmp(c: &ColVec<'_>, a: usize, b: usize) -> Ordering {
    let v = c.validity();
    match (v.is_valid(a), v.is_valid(b)) {
        (false, false) => Ordering::Equal,
        (false, true) => Ordering::Greater,
        (true, false) => Ordering::Less,
        (true, true) => match c {
            ColVec::F64 { data, .. } => match (data[a].is_nan(), data[b].is_nan()) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Greater,
                (false, true) => Ordering::Less,
                (false, false) => data[a].partial_cmp(&data[b]).unwrap_or(Ordering::Equal),
            },
            ColVec::I64 { data, .. } => data[a].cmp(&data[b]),
            ColVec::Bool { data, .. } => data[a].cmp(&data[b]),
            ColVec::Text { data, .. } => data[a].cmp(data[b]),
        },
    }
}

/// Stable index sort over one key column — the specialized single-key
/// sort: the comparator and stability match the scalar `sort_keyed`, so
/// the resulting permutation is identical, including NULL and NaN
/// placement.
pub(crate) fn sort_indices(key: &ColVec<'_>, desc: bool) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..key.len() as u32).collect();
    idx.sort_by(|&a, &b| {
        let o = lane_cmp(key, a as usize, b as usize);
        if desc {
            o.reverse()
        } else {
            o
        }
    });
    idx
}

/// Bounded top-K over one key column: the first `k` lanes of the stable
/// sort, computed with an O(k)-memory binary heap. Ties break by lane
/// index (= input order), which is exactly what a stable sort produces,
/// so `top_k_indices(..) == sort_indices(..)[..k]` always — `lane_cmp`
/// plus the index tie-break is a total order, NaN and NULL included.
pub(crate) fn top_k_indices(key: &ColVec<'_>, desc: bool, k: usize) -> Vec<u32> {
    let n = key.len() as u32;
    if k == 0 {
        return Vec::new();
    }
    let eff = |a: u32, b: u32| -> Ordering {
        let o = lane_cmp(key, a as usize, b as usize);
        let o = if desc { o.reverse() } else { o };
        o.then(a.cmp(&b))
    };
    // Max-heap under `eff`: the root is the worst of the k kept lanes.
    let mut heap: Vec<u32> = Vec::with_capacity(k.min(key.len()));
    for i in 0..n {
        if heap.len() < k {
            heap.push(i);
            let mut c = heap.len() - 1;
            while c > 0 {
                let p = (c - 1) / 2;
                if eff(heap[c], heap[p]) == Ordering::Greater {
                    heap.swap(c, p);
                    c = p;
                } else {
                    break;
                }
            }
        } else if eff(i, heap[0]) == Ordering::Less {
            heap[0] = i;
            let mut p = 0usize;
            loop {
                let (l, r) = (2 * p + 1, 2 * p + 2);
                let mut m = p;
                if l < heap.len() && eff(heap[l], heap[m]) == Ordering::Greater {
                    m = l;
                }
                if r < heap.len() && eff(heap[r], heap[m]) == Ordering::Greater {
                    m = r;
                }
                if m == p {
                    break;
                }
                heap.swap(p, m);
                p = m;
            }
        }
    }
    heap.sort_by(|&a, &b| eff(a, b));
    heap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Column;

    fn f64_col(vals: &[Option<f64>]) -> ColVec<'static> {
        let mut valid = Validity::all_valid(vals.len());
        let mut data = Vec::with_capacity(vals.len());
        for (i, v) in vals.iter().enumerate() {
            match v {
                Some(f) => data.push(*f),
                None => {
                    valid.set_null(i);
                    data.push(0.0);
                }
            }
        }
        ColVec::F64 { data, valid }
    }

    #[test]
    fn validity_tracks_nulls() {
        let mut v = Validity::all_valid(130);
        assert!(v.is_valid(0) && v.is_valid(129));
        v.set_null(64);
        v.set_null(64); // idempotent
        assert!(!v.is_valid(64));
        assert!(v.is_valid(63) && v.is_valid(65));
    }

    #[test]
    fn fill_types_columns_and_rejects_mismatches() {
        let schema = Schema::new(vec![
            Column::new("x", DataType::Float),
            Column::new("t", DataType::Text),
        ])
        .unwrap();
        let rows: Vec<Row> = vec![
            vec![Value::Float(1.5), Value::Text("a".into())],
            vec![Value::Null, Value::Text("b".into())],
        ];
        let refs: Vec<&Row> = rows.iter().collect();
        let b = Batch::fill(&schema, &refs, &[0, 1]).unwrap();
        assert_eq!(b.len(), 2);
        let sel = [0u32, 1];
        let Evaled::Col(x) = eval(&Expr::Slot(0), &b, &sel, &no_ctx()).unwrap() else {
            panic!("slot gathers a column");
        };
        assert_eq!(x.value_at(0), Value::Float(1.5));
        assert_eq!(x.value_at(1), Value::Null);

        // A stored value that contradicts the declared type aborts.
        let bad: Vec<Row> = vec![vec![Value::Int(3), Value::Text("a".into())]];
        let refs: Vec<&Row> = bad.iter().collect();
        assert!(Batch::fill(&schema, &refs, &[0]).is_err());
    }

    fn no_ctx() -> VecCtx<'static> {
        VecCtx {
            params: &[],
            fns: &[],
        }
    }

    fn slot_gt(slot: usize, lit: f64) -> Expr {
        Expr::Binary {
            op: BinOp::Gt,
            left: Box::new(Expr::Slot(slot)),
            right: Box::new(Expr::Literal(Value::Float(lit))),
        }
    }

    #[test]
    fn filter_drops_false_and_null_lanes() {
        let schema = Schema::new(vec![Column::new("x", DataType::Float)]).unwrap();
        let rows: Vec<Row> = vec![
            vec![Value::Float(1.0)],
            vec![Value::Null],
            vec![Value::Float(3.0)],
            vec![Value::Float(0.5)],
        ];
        let refs: Vec<&Row> = rows.iter().collect();
        let b = Batch::fill(&schema, &refs, &[0]).unwrap();
        let sel = filter(Some(&slot_gt(0, 0.75)), &b, &no_ctx()).unwrap();
        assert_eq!(sel, vec![0, 2]);
        assert_eq!(filter(None, &b, &no_ctx()).unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn logical_and_evaluates_right_only_on_undecided_lanes() {
        // x > 1 AND (10 / x) > 4 — lane x=0 fails the left side, so the
        // division by zero on its right side must never be evaluated
        // (the scalar executor short-circuits it the same way).
        let schema = Schema::new(vec![Column::new("x", DataType::Float)]).unwrap();
        let rows: Vec<Row> = vec![
            vec![Value::Float(0.0)],
            vec![Value::Float(2.0)],
            vec![Value::Float(4.0)],
        ];
        let refs: Vec<&Row> = rows.iter().collect();
        let b = Batch::fill(&schema, &refs, &[0]).unwrap();
        let pred = Expr::Binary {
            op: BinOp::And,
            left: Box::new(slot_gt(0, 1.0)),
            right: Box::new(Expr::Binary {
                op: BinOp::Gt,
                left: Box::new(Expr::Binary {
                    op: BinOp::Div,
                    left: Box::new(Expr::Literal(Value::Float(10.0))),
                    right: Box::new(Expr::Slot(0)),
                }),
                right: Box::new(Expr::Literal(Value::Float(4.0))),
            }),
        };
        assert_eq!(filter(Some(&pred), &b, &no_ctx()).unwrap(), vec![1]);
    }

    #[test]
    fn grouped_fold_first_seen_order_and_float_canonicalization() {
        // -0.0 and 0.0 must land in one bucket (first-seen value wins).
        let key = f64_col(&[Some(-0.0), Some(1.0), Some(0.0), None, None]);
        let arg = f64_col(&[Some(10.0), Some(20.0), Some(30.0), Some(40.0), None]);
        let groups = grouped_fold(
            std::slice::from_ref(&key),
            &[(AggOp::Sum, Some(arg)), (AggOp::CountStar, None)],
            5,
        )
        .unwrap();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].0, vec![Value::Float(-0.0)]);
        assert_eq!(groups[0].1, vec![Value::Float(40.0), Value::Int(2)]);
        assert_eq!(groups[1].0, vec![Value::Float(1.0)]);
        assert_eq!(groups[2].0, vec![Value::Null]);
        // sum over the NULL group's one non-NULL argument; count(*) = 2.
        assert_eq!(groups[2].1, vec![Value::Float(40.0), Value::Int(2)]);
    }

    #[test]
    fn grouped_fold_no_keys_yields_one_group_over_empty_input() {
        let groups = grouped_fold(&[], &[(AggOp::CountStar, None)], 0).unwrap();
        assert_eq!(groups, vec![(vec![], vec![Value::Int(0)])]);
    }

    #[test]
    fn min_max_keep_first_seen_on_ties_and_reject_nan() {
        let col = f64_col(&[Some(2.0), Some(-0.0), Some(0.0), None]);
        let gids = vec![0u32; 4];
        let mins = fold_one(AggOp::Min, Some(&col), &gids, 1).unwrap();
        // -0.0 arrives before the tying 0.0 and must be kept.
        assert!(matches!(mins[0], Value::Float(f) if f == 0.0 && f.is_sign_negative()));
        let nan = f64_col(&[Some(1.0), Some(f64::NAN)]);
        assert!(fold_one(AggOp::Min, Some(&nan), &[0, 0], 1).is_err());
    }

    #[test]
    fn sort_and_top_k_agree_including_ties_nulls_and_nan() {
        let key = f64_col(&[
            Some(3.0),
            None,
            Some(1.0),
            Some(3.0),
            Some(-1.0),
            None,
            Some(1.0),
            Some(f64::NAN),
        ]);
        for desc in [false, true] {
            let sorted = sort_indices(&key, desc);
            for k in 0..=key.len() {
                let topk = top_k_indices(&key, desc, k);
                assert_eq!(topk, sorted[..k], "desc={desc} k={k}");
            }
        }
        // ASC: values first, ties in input order, then NaN, then NULLs.
        assert_eq!(sort_indices(&key, false), vec![4, 2, 6, 0, 3, 7, 1, 5]);
        // DESC reverses everything, NULLs included (matches scalar sort_keyed).
        assert_eq!(sort_indices(&key, true), vec![1, 5, 7, 0, 3, 2, 6, 4]);
    }

    #[test]
    fn arith_int_columns_stay_integer_and_div_by_zero_falls_back() {
        let schema = Schema::new(vec![Column::new("n", DataType::Int)]).unwrap();
        let rows: Vec<Row> = vec![vec![Value::Int(7)], vec![Value::Int(-4)]];
        let refs: Vec<&Row> = rows.iter().collect();
        let b = Batch::fill(&schema, &refs, &[0]).unwrap();
        let sel = [0u32, 1];
        let double = Expr::Binary {
            op: BinOp::Add,
            left: Box::new(Expr::Slot(0)),
            right: Box::new(Expr::Slot(0)),
        };
        let col = eval(&double, &b, &sel, &no_ctx())
            .unwrap()
            .materialize(2)
            .unwrap();
        assert_eq!(col.value_at(0), Value::Int(14));
        assert_eq!(col.value_at(1), Value::Int(-8));
        let div = Expr::Binary {
            op: BinOp::Div,
            left: Box::new(Expr::Literal(Value::Int(1))),
            right: Box::new(Expr::Binary {
                op: BinOp::Sub,
                left: Box::new(Expr::Slot(0)),
                right: Box::new(Expr::Slot(0)),
            }),
        };
        assert!(eval(&div, &b, &sel, &no_ctx()).is_err());
    }
}
