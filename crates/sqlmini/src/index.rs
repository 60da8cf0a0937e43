//! Ordered secondary indexes: B-tree-style maps from a column key to the
//! positions of the row versions carrying that key.
//!
//! With sharded version storage, each table index is split into one
//! `SecondaryIndex` **per shard**, keyed by arena-local positions and
//! maintained under that shard's lock. An index slice covers **every
//! physical version** in its shard's arena — committed, pending and dead
//! alike — because probes are always re-checked against the reader's
//! MVCC [`Snapshot`](crate::table::Snapshot) and its full WHERE clause.
//! That keeps maintenance purely positional *per shard*: begin/end stamp
//! changes (commit, rollback, UPDATE, DELETE) never touch the index; only
//! appends and compaction in that shard do.
//!
//! Probe results are therefore a *candidate superset* of the matching
//! rows, returned in ascending local-position order; the table layer
//! maps them to rids and concatenates shard results, which preserves
//! ascending rid order, so the executor's visibility-checked re-scan
//! produces byte-identical output to a sequential scan of the same
//! snapshot.

use std::collections::BTreeMap;

use crate::error::{Result, SqlError};
use crate::value::{DataType, Value};

/// Monotone total-order encoding of an `f64`: preserves `<` on all
/// non-NaN values, canonicalizes `-0.0` to `0.0`, and maps every NaN to
/// one canonical key that sorts above `+inf`.
fn f64_bits(f: f64) -> u64 {
    let f = if f == 0.0 {
        0.0
    } else if f.is_nan() {
        f64::NAN
    } else {
        f
    };
    let b = f.to_bits();
    if b & (1 << 63) != 0 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// The canonical NaN key — the greatest [`OrdKey::Num`] value.
fn nan_key() -> OrdKey {
    OrdKey::Num(f64_bits(f64::NAN))
}

/// A totally ordered index key. One index only ever holds one variant
/// (the column's key space), so the cross-variant ordering is arbitrary.
/// Ints and floats share [`OrdKey::Num`]: `i64 → f64` is weakly monotone,
/// so range probes stay supersets even where the cast loses precision —
/// the executor's exact re-check (`compare`) filters the collisions.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum OrdKey {
    Bool(bool),
    /// Monotone bit-encoding of the value as `f64` (see [`f64_bits`]).
    Num(u64),
    Text(String),
    Time(i64),
    Ivl(i64),
}

/// Which [`OrdKey`] variant a column's values map into, fixed by its
/// declared type. `Variant` columns have no key space (values keep their
/// original types, so one column can mix incomparable variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KeySpace {
    Bool,
    Num,
    Text,
    Time,
    Ivl,
}

impl KeySpace {
    /// The key space of a column type; `None` for `variant`.
    pub(crate) fn of(dtype: DataType) -> Option<KeySpace> {
        match dtype {
            DataType::Bool => Some(KeySpace::Bool),
            DataType::Int | DataType::Float => Some(KeySpace::Num),
            DataType::Text => Some(KeySpace::Text),
            DataType::Timestamp => Some(KeySpace::Time),
            DataType::Interval => Some(KeySpace::Ivl),
            DataType::Variant => None,
        }
    }
}

/// Key of a **stored** value (already coerced to the column type).
/// `None` for NULL — NULLs are never indexed.
pub(crate) fn key_of(v: &Value) -> Option<OrdKey> {
    match v {
        Value::Null => None,
        Value::Bool(b) => Some(OrdKey::Bool(*b)),
        Value::Int(i) => Some(OrdKey::Num(f64_bits(*i as f64))),
        Value::Float(f) => Some(OrdKey::Num(f64_bits(*f))),
        Value::Text(s) => Some(OrdKey::Text(s.clone())),
        Value::Timestamp(t) => Some(OrdKey::Time(*t)),
        Value::Interval(i) => Some(OrdKey::Ivl(*i)),
    }
}

/// Map a **probe bound** value into a column's key space. `None` means
/// the bound cannot be expressed as a key of this space (mismatched
/// type, unparseable timestamp text, NaN bound) — the caller must fall
/// back to a full scan so per-row comparison errors surface exactly as
/// a sequential scan would raise them.
fn bound_key(space: KeySpace, v: &Value) -> Option<OrdKey> {
    match (space, v) {
        (KeySpace::Num, Value::Int(i)) => Some(OrdKey::Num(f64_bits(*i as f64))),
        (KeySpace::Num, Value::Float(f)) if !f.is_nan() => Some(OrdKey::Num(f64_bits(*f))),
        (KeySpace::Text, Value::Text(s)) => Some(OrdKey::Text(s.clone())),
        (KeySpace::Time, Value::Timestamp(t)) => Some(OrdKey::Time(*t)),
        // `timestamp <op> text` parses the text (see `exec::compare`).
        (KeySpace::Time, Value::Text(s)) => crate::value::parse_timestamp(s).ok().map(OrdKey::Time),
        (KeySpace::Bool, Value::Bool(b)) => Some(OrdKey::Bool(*b)),
        (KeySpace::Ivl, Value::Interval(i)) => Some(OrdKey::Ivl(*i)),
        _ => None,
    }
}

/// An ordered secondary index over one column — the per-shard slice.
/// Name and uniqueness live in the table-level `IndexMeta` descriptor;
/// each shard's slice only needs the column it maintains.
#[derive(Debug, Clone, Default)]
pub(crate) struct SecondaryIndex {
    /// Indexed column's ordinal in the table schema.
    pub(crate) column: usize,
    /// Key → ascending version positions holding that key.
    map: BTreeMap<OrdKey, Vec<usize>>,
}

impl SecondaryIndex {
    pub(crate) fn new(column: usize) -> SecondaryIndex {
        SecondaryIndex {
            column,
            map: BTreeMap::new(),
        }
    }

    /// Add a freshly appended version. `pos` is the end of the heap, so
    /// pushing keeps every per-key vector sorted.
    pub(crate) fn insert(&mut self, pos: usize, value: &Value) {
        if let Some(k) = key_of(value) {
            self.map.entry(k).or_default().push(pos);
        }
    }

    /// Drop every position at or past `len` — tail truncation.
    #[cfg(test)]
    pub(crate) fn truncate(&mut self, len: usize) {
        self.map.retain(|_, v| {
            v.retain(|&p| p < len);
            !v.is_empty()
        });
    }

    /// Remove physically deleted positions and renumber the survivors:
    /// each surviving position drops by the number of removed positions
    /// below it. `removed` is sorted ascending.
    pub(crate) fn remove_renumber(&mut self, removed: &[usize]) {
        if removed.is_empty() {
            return;
        }
        self.map.retain(|_, v| {
            v.retain_mut(|p| match removed.binary_search(p) {
                Ok(_) => false,
                Err(rank) => {
                    *p -= rank;
                    true
                }
            });
            !v.is_empty()
        });
    }

    /// Candidate positions for a point/range probe, ascending. `lo`/`hi`
    /// are inclusive bounds (strict predicates widen to inclusive — the
    /// WHERE re-check restores exactness); equality passes the same value
    /// as both. Returns:
    /// - `None`: the probe cannot narrow (unmappable bound) — scan all.
    /// - `Some(vec)`: superset of matching positions. For numeric key
    ///   spaces the NaN bucket is always included so the re-check raises
    ///   the same "NaN comparison" error a sequential scan would.
    pub(crate) fn probe(
        &self,
        space: KeySpace,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Option<Vec<usize>> {
        // A NULL bound makes the sargable conjunct never-true: no row
        // can match, and comparison against NULL never errors.
        if matches!(lo, Some(Value::Null)) || matches!(hi, Some(Value::Null)) {
            return Some(Vec::new());
        }
        let lo_key = match lo {
            None => None,
            Some(v) => Some(bound_key(space, v)?),
        };
        let hi_key = match hi {
            None => None,
            Some(v) => Some(bound_key(space, v)?),
        };
        use std::ops::Bound;
        let range = (
            lo_key.map_or(Bound::Unbounded, Bound::Included),
            hi_key.clone().map_or(Bound::Unbounded, Bound::Included),
        );
        let mut out: Vec<usize> = self
            .map
            .range(range)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        // NaN sorts above every bounded range: pull its bucket in
        // explicitly whenever an upper bound would exclude it.
        if space == KeySpace::Num && hi_key.is_some() {
            if let Some(v) = self.map.get(&nan_key()) {
                out.extend(v.iter().copied());
            }
        }
        out.sort_unstable();
        Some(out)
    }

    /// Positions currently holding `key` (unique-violation checks).
    pub(crate) fn positions_of(&self, key: &OrdKey) -> &[usize] {
        self.map.get(key).map_or(&[], |v| v.as_slice())
    }

    /// Rebuild from scratch over a version heap (rollback of DROP INDEX,
    /// CREATE INDEX itself).
    pub(crate) fn rebuild<'a>(&mut self, rows: impl Iterator<Item = &'a [Value]>) {
        self.map.clear();
        for (pos, row) in rows.enumerate() {
            self.insert(pos, &row[self.column]);
        }
    }
}

/// PostgreSQL's duplicate-key wording.
pub(crate) fn unique_violation(index: &str) -> SqlError {
    SqlError::Constraint(format!(
        "duplicate key value violates unique constraint \"{index}\""
    ))
}

/// Reject `CREATE INDEX` on column types without a key space.
pub(crate) fn check_indexable(dtype: DataType, column: &str) -> Result<KeySpace> {
    KeySpace::of(dtype).ok_or_else(|| {
        SqlError::Type(format!(
            "cannot create an index on variant column \"{column}\""
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx_over(vals: &[Value]) -> SecondaryIndex {
        let mut ix = SecondaryIndex::new(0);
        for (p, v) in vals.iter().enumerate() {
            ix.insert(p, v);
        }
        ix
    }

    #[test]
    fn point_probe_returns_matches_and_nan_bucket() {
        let ix = idx_over(&[
            Value::Float(1.0),
            Value::Float(2.0),
            Value::Float(f64::NAN),
            Value::Float(2.0),
            Value::Null,
        ]);
        let got = ix
            .probe(
                KeySpace::Num,
                Some(&Value::Float(2.0)),
                Some(&Value::Float(2.0)),
            )
            .unwrap();
        assert_eq!(got, vec![1, 2, 3], "matches plus the NaN bucket, sorted");
        // Unbounded-above ranges already include NaN.
        let got = ix
            .probe(KeySpace::Num, Some(&Value::Float(1.5)), None)
            .unwrap();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn int_and_float_share_the_num_space() {
        let ix = idx_over(&[Value::Int(1), Value::Int(5), Value::Int(9)]);
        let got = ix
            .probe(
                KeySpace::Num,
                Some(&Value::Float(2.5)),
                Some(&Value::Int(9)),
            )
            .unwrap();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn unmappable_bound_falls_back() {
        let ix = idx_over(&[Value::Int(1)]);
        assert!(ix
            .probe(KeySpace::Num, Some(&Value::Text("x".into())), None)
            .is_none());
        // NaN bound: every comparison errors — cannot narrow.
        assert!(ix
            .probe(
                KeySpace::Num,
                Some(&Value::Float(f64::NAN)),
                Some(&Value::Float(f64::NAN))
            )
            .is_none());
        // NULL bound: conjunct is never true.
        assert_eq!(
            ix.probe(KeySpace::Num, Some(&Value::Null), None).unwrap(),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn timestamp_text_bounds_parse() {
        let t = crate::value::parse_timestamp("2015-02-01 00:00").unwrap();
        let ix = idx_over(&[Value::Timestamp(t), Value::Timestamp(t + 3600)]);
        let got = ix
            .probe(
                KeySpace::Time,
                Some(&Value::Text("2015-02-01 00:30".into())),
                None,
            )
            .unwrap();
        assert_eq!(got, vec![1]);
        assert!(ix
            .probe(
                KeySpace::Time,
                Some(&Value::Text("not a time".into())),
                None
            )
            .is_none());
    }

    #[test]
    fn maintenance_truncate_and_remove() {
        let mut ix = idx_over(&[Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(2)]);
        ix.truncate(3); // drop position 3
        let all = ix.probe(KeySpace::Num, None, None).unwrap();
        assert_eq!(all, vec![0, 1, 2]);
        // Remove position 1: positions 2 renumbers to 1.
        ix.remove_renumber(&[1]);
        assert_eq!(ix.probe(KeySpace::Num, None, None).unwrap(), vec![0, 1]);
        assert_eq!(
            ix.probe(KeySpace::Num, Some(&Value::Int(3)), Some(&Value::Int(3)))
                .unwrap(),
            vec![1]
        );
    }
}
