//! The dataset container shared by generators, loaders and the baseline.

use pgfmu_sqlmini::{timestamp_from_parts, Database, Value};

/// A measurement dataset: a timestamp grid plus named numeric columns
/// (paper Table 6 shape).
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Name of the timestamp column (conventionally `ts`).
    pub time_column: String,
    /// Epoch-second timestamps, strictly increasing, uniform.
    pub timestamps: Vec<i64>,
    /// Named numeric series, each as long as `timestamps`.
    pub columns: Vec<(String, Vec<f64>)>,
}

impl Dataset {
    /// Create a dataset, panicking on shape mismatches (generator bug).
    pub fn new(
        time_column: impl Into<String>,
        timestamps: Vec<i64>,
        columns: Vec<(String, Vec<f64>)>,
    ) -> Self {
        for (name, col) in &columns {
            assert_eq!(
                col.len(),
                timestamps.len(),
                "column '{name}' length mismatch"
            );
        }
        assert!(
            timestamps.windows(2).all(|w| w[1] > w[0]),
            "timestamps must be strictly increasing"
        );
        Dataset {
            time_column: time_column.into(),
            timestamps,
            columns,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    /// A named column.
    pub fn column(&self, name: &str) -> Option<&[f64]> {
        self.columns
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.as_slice())
    }

    /// Sample times in hours relative to the first timestamp.
    pub fn times_hours(&self) -> Vec<f64> {
        let t0 = self.timestamps[0];
        self.timestamps
            .iter()
            .map(|t| (t - t0) as f64 / 3600.0)
            .collect()
    }

    /// Slice the dataset to the half-open index range `[from, to)`.
    pub fn slice(&self, from: usize, to: usize) -> Dataset {
        Dataset {
            time_column: self.time_column.clone(),
            timestamps: self.timestamps[from..to].to_vec(),
            columns: self
                .columns
                .iter()
                .map(|(n, c)| (n.clone(), c[from..to].to_vec()))
                .collect(),
        }
    }

    /// Load the dataset into a (new) table of the given database.
    pub fn load_into(&self, db: &Database, table: &str) -> Result<(), pgfmu_sqlmini::SqlError> {
        let cols: Vec<String> = self
            .columns
            .iter()
            .map(|(n, _)| format!("{n} float"))
            .collect();
        db.execute(&format!(
            "CREATE TABLE {table} ({} timestamp, {})",
            self.time_column,
            cols.join(", ")
        ))?;
        let rows: Vec<Vec<Value>> = (0..self.len())
            .map(|i| {
                let mut row = Vec::with_capacity(1 + self.columns.len());
                row.push(Value::Timestamp(self.timestamps[i]));
                for (_, c) in &self.columns {
                    row.push(Value::Float(c[i]));
                }
                row
            })
            .collect();
        db.insert_rows(table, rows)?;
        Ok(())
    }
}

/// Hourly timestamp grid starting at a civil date, `n` samples,
/// `step_minutes` apart.
pub fn timestamp_grid(y: i64, mo: u32, d: u32, h: u32, n: usize, step_minutes: u32) -> Vec<i64> {
    let t0 =
        timestamp_from_parts(y, mo, d, h, 0, 0).expect("grid start within the timestamp range");
    (0..n)
        .map(|i| t0 + (i as i64) * (step_minutes as i64) * 60)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        Dataset::new(
            "ts",
            timestamp_grid(2015, 2, 1, 0, 3, 60),
            vec![("x".into(), vec![1.0, 2.0, 3.0])],
        )
    }

    #[test]
    fn times_hours_are_relative() {
        assert_eq!(tiny().times_hours(), vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn slicing() {
        let d = tiny().slice(1, 3);
        assert_eq!(d.len(), 2);
        assert_eq!(d.column("x").unwrap(), &[2.0, 3.0]);
    }

    #[test]
    fn load_into_database() {
        let db = Database::new();
        tiny().load_into(&db, "measurements").unwrap();
        let q = db
            .execute("SELECT count(*), avg(x) FROM measurements")
            .unwrap();
        assert_eq!(q.rows[0][0], Value::Int(3));
        assert_eq!(q.rows[0][1].as_f64().unwrap(), 2.0);
        let q = db
            .execute("SELECT ts FROM measurements ORDER BY ts LIMIT 1")
            .unwrap();
        assert_eq!(q.rows[0][0].to_string(), "2015-02-01 00:00:00");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn shape_mismatch_panics() {
        Dataset::new(
            "ts",
            timestamp_grid(2015, 2, 1, 0, 3, 60),
            vec![("x".into(), vec![1.0])],
        );
    }

    #[test]
    fn grid_step_minutes() {
        let g = timestamp_grid(2018, 4, 4, 8, 4, 30);
        assert_eq!(g[1] - g[0], 1800);
        assert_eq!(g.len(), 4);
    }
}
