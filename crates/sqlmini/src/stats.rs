//! Table statistics backing the cost-based planner: per-table row
//! counts and per-column NDV / min / max / null counts, collected by
//! `ANALYZE` (or `pgfmu_analyze()`) and refreshed automatically once a
//! table has churned past a staleness threshold since its last pass.

use std::collections::HashSet;

use crate::exec::KeyAtom;
use crate::table::{Snapshot, Table};
use crate::value::Value;

/// Statistics for one column of one table.
#[derive(Debug, Clone, Default)]
pub(crate) struct ColumnStats {
    /// Number of distinct non-NULL values.
    pub(crate) ndv: u64,
    /// Smallest numeric value (ints, floats, timestamps, intervals as
    /// `f64`); `None` for non-numeric columns or all-NULL columns.
    pub(crate) min: Option<f64>,
    /// Largest numeric value (see [`ColumnStats::min`]).
    pub(crate) max: Option<f64>,
    /// Number of NULLs.
    pub(crate) null_count: u64,
}

/// Statistics for one table, as of one `ANALYZE` pass.
#[derive(Debug, Clone, Default)]
pub(crate) struct TableStats {
    /// Snapshot-visible rows at analyze time.
    pub(crate) row_count: u64,
    /// Per-column stats, in schema order.
    pub(crate) columns: Vec<ColumnStats>,
    /// The table's modification counter when this pass ran — the
    /// staleness baseline.
    pub(crate) mods_at_analyze: u64,
}

/// How much churn (versions appended / ended / overwritten) a table may
/// accumulate before its stats are considered stale: a fixed floor plus
/// a quarter of the analyzed row count.
fn staleness_budget(row_count: u64) -> u64 {
    256 + row_count / 4
}

impl TableStats {
    /// True when enough writes happened since the last pass that the
    /// planner should re-analyze before costing.
    pub(crate) fn stale(&self, mod_count: u64) -> bool {
        mod_count.saturating_sub(self.mods_at_analyze) > staleness_budget(self.row_count)
    }

    /// Estimated rows matching an equality probe on `column`.
    pub(crate) fn est_eq_rows(&self, column: usize) -> f64 {
        let n = self.row_count as f64;
        match self.columns.get(column) {
            Some(c) if c.ndv > 0 => (n / c.ndv as f64).max(1.0),
            _ => (n / 10.0).max(1.0),
        }
    }

    /// Estimated rows matching a range probe on `column`. Known numeric
    /// bounds interpolate against the column's min/max; a bound whose
    /// value is unknown until execution (a `$n` parameter, a non-numeric
    /// literal) contributes a fixed third of selectivity instead.
    pub(crate) fn est_range_rows(&self, column: usize, lo: Bound, hi: Bound) -> f64 {
        let n = self.row_count as f64;
        let c = self.columns.get(column);
        let span = c.and_then(|c| match (c.min, c.max) {
            (Some(min), Some(max)) if max > min => Some((min, max)),
            _ => None,
        });
        let mut frac = match span {
            Some((min, max)) => {
                let width = max - min;
                let lo = match lo {
                    Bound::Known(v) => v.clamp(min, max),
                    Bound::Unknown | Bound::None => min,
                };
                let hi = match hi {
                    Bound::Known(v) => v.clamp(min, max),
                    Bound::Unknown | Bound::None => max,
                };
                ((hi - lo) / width).clamp(0.0, 1.0)
            }
            None => {
                let mut frac = 1.0;
                if matches!(lo, Bound::Known(_)) {
                    frac /= 3.0;
                }
                if matches!(hi, Bound::Known(_)) {
                    frac /= 3.0;
                }
                frac
            }
        };
        if matches!(lo, Bound::Unknown) {
            frac /= 3.0;
        }
        if matches!(hi, Bound::Unknown) {
            frac /= 3.0;
        }
        (n * frac).max(1.0)
    }
}

/// One side of a range probe, as seen at plan time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Bound {
    /// No conjunct bounds this side.
    None,
    /// Bounded by a value known at plan time.
    Known(f64),
    /// Bounded, but the value only arrives at execution (a `$n` bind).
    Unknown,
}

/// Numeric projection of a value for min/max tracking.
fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) if !f.is_nan() => Some(*f),
        Value::Timestamp(t) | Value::Interval(t) => Some(*t as f64),
        _ => None,
    }
}

/// One full statistics pass over the rows visible to `snap`.
pub(crate) fn analyze_table(table: &Table, snap: Snapshot, mod_count: u64) -> TableStats {
    let ncols = table.schema.len();
    let mut distinct: Vec<HashSet<KeyAtom>> = (0..ncols).map(|_| HashSet::new()).collect();
    let mut stats = TableStats {
        row_count: 0,
        columns: vec![ColumnStats::default(); ncols],
        mods_at_analyze: mod_count,
    };
    let view = table.view();
    for (_, version) in view.scan(None, snap) {
        stats.row_count += 1;
        for (c, v) in version.data.iter().enumerate() {
            let cs = &mut stats.columns[c];
            if v.is_null() {
                cs.null_count += 1;
                continue;
            }
            distinct[c].insert(KeyAtom::from_value(v));
            if let Some(f) = numeric(v) {
                cs.min = Some(cs.min.map_or(f, |m| m.min(f)));
                cs.max = Some(cs.max.map_or(f, |m| m.max(f)));
            }
        }
    }
    for (c, set) in distinct.into_iter().enumerate() {
        stats.columns[c].ndv = set.len() as u64;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Column, Schema};
    use crate::value::DataType;

    fn sample() -> Table {
        let mut t = Table::new(
            Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("x", DataType::Float),
                Column::new("s", DataType::Text),
            ])
            .unwrap(),
        );
        for i in 0..10 {
            t.insert(vec![
                Value::Int(i % 5),
                if i == 3 {
                    Value::Null
                } else {
                    Value::Float(i as f64)
                },
                Value::Text(format!("s{}", i % 2)),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn analyze_counts_rows_ndv_minmax_nulls() {
        let t = sample();
        let s = analyze_table(&t, Snapshot::latest(), 10);
        assert_eq!(s.row_count, 10);
        assert_eq!(s.columns[0].ndv, 5);
        assert_eq!(s.columns[0].min, Some(0.0));
        assert_eq!(s.columns[0].max, Some(4.0));
        assert_eq!(s.columns[1].null_count, 1);
        assert_eq!(s.columns[1].ndv, 9);
        assert_eq!(s.columns[2].ndv, 2);
        assert_eq!(s.columns[2].min, None, "text has no numeric min");
        assert_eq!(s.mods_at_analyze, 10);
    }

    #[test]
    fn staleness_threshold() {
        let s = TableStats {
            row_count: 1000,
            mods_at_analyze: 100,
            ..Default::default()
        };
        assert!(!s.stale(100));
        assert!(!s.stale(100 + 256 + 250));
        assert!(s.stale(100 + 256 + 251));
    }

    #[test]
    fn estimates() {
        let t = sample();
        let s = analyze_table(&t, Snapshot::latest(), 0);
        assert_eq!(s.est_eq_rows(0), 2.0); // 10 rows / 5 ndv
                                           // Range k in [0, 2] over min 0 max 4 → half the table.
        assert!((s.est_range_rows(0, Bound::Known(0.0), Bound::Known(2.0)) - 5.0).abs() < 1e-9);
        // Known bound on a text column (no numeric span): default fraction.
        assert!(s.est_range_rows(2, Bound::Known(0.0), Bound::None) <= 10.0 / 3.0 + 1e-9);
        // A `$n` bound discounts selectivity even with a known span:
        // two unknown bounds estimate a ninth of the table, not all of it.
        let est = s.est_range_rows(0, Bound::Unknown, Bound::Unknown);
        assert!((est - 10.0 / 9.0).abs() < 1e-9, "{est}");
    }
}
