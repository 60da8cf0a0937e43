//! `ingest_query`: live sensor ingest next to analytical reads, pure SQL.
//!
//! One operation (a tick) is one transaction that appends the next hour of
//! readings, one row per sensor, and deletes the hour that falls out of
//! the retention window; a vacuum follows every few ticks. Each tick then
//! runs point lookups, 24-hour per-sensor grouped ranges and 24-hour
//! top-10s. The table holds sensors × retention hours rows throughout.

use std::time::{Duration, Instant};

use pgfmu_sqlmini::{params, Database, Value};

use super::{check, OpCx, Workload};
use crate::config::Sizes;
use crate::stats::{Fingerprint, SplitMix};

const INSERT: &str = "INSERT INTO readings VALUES ($1, $2, $3)";
const RETENTION: &str = "DELETE FROM readings WHERE ts < $1";
const POINT: &str = "SELECT value FROM readings WHERE ts = $1 AND sensor = $2";
const RANGE: &str = "SELECT sensor, count(*), avg(value) FROM readings \
                     WHERE ts >= $1 AND ts < $2 GROUP BY sensor";
const TOPK: &str = "SELECT sensor, ts, value FROM readings \
                    WHERE ts >= $1 AND ts < $2 ORDER BY value DESC LIMIT 10";

/// 2015-02-01 00:00 UTC, the first hour in the table.
const T0: i64 = 1_422_748_800;

/// State of the `ingest_query` workload.
pub struct Ingest {
    db: Database,
    seed: u64,
    sensors: usize,
    hours: usize,
    reads_per_shape: usize,
    vacuum_every: usize,
    warmup: u64,
    rng: SplitMix,
    fingerprint: String,
}

fn ts(hour: usize) -> Value {
    Value::Timestamp(T0 + 3600 * hour as i64)
}

/// The reading of `sensor` at `hour`: a daily cycle plus noise.
fn reading(seed: u64, sensor: usize, hour: usize) -> f64 {
    let noise = SplitMix::new(seed ^ ((sensor as u64) << 40) ^ hour as u64).unit();
    let phase = std::f64::consts::TAU * hour as f64 / 24.0 + 0.1 * sensor as f64;
    20.0 + 5.0 * phase.sin() + noise - 0.5
}

impl Ingest {
    /// Load `hours` of history for every sensor and index it by time.
    pub fn setup(seed: u64, sizes: &Sizes) -> Result<Ingest, String> {
        let db = Database::new();
        let sql = |db: &Database, q: &str| db.execute(q).map(drop).map_err(|e| format!("{q}: {e}"));
        sql(
            &db,
            "CREATE TABLE readings (sensor int, ts timestamp, value float)",
        )?;
        let mut fp = Fingerprint::default();
        fp.str("ingest_query");
        let mut rows = Vec::with_capacity(sizes.ingest_hours * sizes.ingest_sensors);
        for h in 0..sizes.ingest_hours {
            for s in 0..sizes.ingest_sensors {
                let v = reading(seed, s, h);
                fp.u64(s as u64);
                fp.u64(h as u64);
                fp.f64(v);
                rows.push(vec![Value::Int(s as i64), ts(h), Value::Float(v)]);
            }
        }
        // The ticks' readings come from the same generator; fingerprint
        // the first day of them too.
        for h in sizes.ingest_hours..sizes.ingest_hours + 24 {
            for s in 0..sizes.ingest_sensors {
                fp.f64(reading(seed, s, h));
            }
        }
        db.insert_rows("readings", rows)
            .map_err(|e| e.to_string())?;
        sql(&db, "CREATE INDEX readings_ts ON readings (ts)")?;
        sql(&db, "ANALYZE readings")?;
        Ok(Ingest {
            db,
            seed,
            sensors: sizes.ingest_sensors,
            hours: sizes.ingest_hours,
            reads_per_shape: sizes.ingest_reads_per_shape,
            vacuum_every: sizes.ingest_vacuum_every,
            warmup: sizes.ingest_warmup as u64,
            rng: SplitMix::new(seed ^ 0x5EED_0F4E),
            fingerprint: fp.hex(),
        })
    }

    /// Append hour `h` and drop the hour that leaves the window, in one
    /// transaction.
    fn write(&self, h: usize, cx: &OpCx<'_>) -> Result<(), String> {
        let db = &self.db;
        let sql = |e: pgfmu_sqlmini::SqlError| e.to_string();
        cx.span("sqlmini.begin", || db.execute("BEGIN"))
            .map_err(sql)?;
        cx.span("sqlmini.insert_batch", || {
            (0..self.sensors).try_for_each(|s| {
                db.query(INSERT, params![s as i64, ts(h), reading(self.seed, s, h)])
                    .map(drop)
            })
        })
        .map_err(sql)?;
        let oldest = h + 1 - self.hours;
        let deleted = cx
            .span("sqlmini.retention_delete", || {
                db.query(RETENTION, &[ts(oldest)])
            })
            .map_err(sql)?;
        cx.span("sqlmini.commit", || db.execute("COMMIT"))
            .map_err(sql)?;
        let n = deleted
            .rows
            .first()
            .and_then(|r| r.first())
            .and_then(|v| v.as_i64().ok());
        check(n == Some(self.sensors as i64), || {
            format!("retention deleted {n:?} rows, expected {}", self.sensors)
        })
    }

    /// The reads of one tick, over the live hours `[lo, hi]`.
    fn reads(&mut self, lo: usize, hi: usize, cx: &mut OpCx<'_>) -> Result<(), String> {
        let db = &self.db;
        for _ in 0..self.reads_per_shape {
            let (h, s) = (
                lo + self.rng.below(hi - lo + 1),
                self.rng.below(self.sensors),
            );
            let q = cx
                .query("sqlmini.point", || {
                    db.query(POINT, params![ts(h), s as i64])
                })
                .map_err(|e| e.to_string())?;
            check(q.rows.len() == 1, || {
                format!("point lookup returned {} rows", q.rows.len())
            })?;
        }
        for _ in 0..self.reads_per_shape {
            let w = lo + self.rng.below(hi - lo - 22);
            let q = cx
                .query("sqlmini.range_agg", || {
                    db.query(RANGE, &[ts(w), ts(w + 24)])
                })
                .map_err(|e| e.to_string())?;
            check(q.rows.len() == self.sensors, || {
                format!("range returned {} groups", q.rows.len())
            })?;
        }
        for _ in 0..self.reads_per_shape {
            let w = lo + self.rng.below(hi - lo - 22);
            let q = cx
                .query("sqlmini.topk", || db.query(TOPK, &[ts(w), ts(w + 24)]))
                .map_err(|e| e.to_string())?;
            let values: Vec<f64> = q
                .rows
                .iter()
                .filter_map(|r| r.get(2)?.as_f64().ok())
                .collect();
            check(
                values.len() == 10 && values.windows(2).all(|p| p[0] >= p[1]),
                || format!("top-10 returned {values:?}"),
            )?;
        }
        Ok(())
    }
}

impl Workload for Ingest {
    fn warmup_ops(&self) -> u64 {
        self.warmup
    }

    fn op(&mut self, i: u64, cx: &mut OpCx<'_>) -> Result<Duration, String> {
        let h = self.hours + i as usize;
        let t0 = Instant::now();
        if let Err(e) = self.write(h, cx) {
            // Leave no transaction open for the next tick.
            let _ = self.db.execute("ROLLBACK");
            return Err(e);
        }
        let latency = t0.elapsed();
        if (i as usize + 1) % self.vacuum_every == 0 {
            cx.span("sqlmini.vacuum", || self.db.vacuum());
        }
        self.reads(h + 1 - self.hours, h, cx)?;
        Ok(latency)
    }

    fn finish(&mut self) -> Result<(), String> {
        let n: Vec<i64> = self
            .db
            .query_as("SELECT count(*) FROM readings", &[])
            .map_err(|e| e.to_string())?;
        let expected = (self.sensors * self.hours) as i64;
        check(n == [expected], || {
            format!("readings holds {n:?} rows, expected {expected}")
        })
    }

    fn fingerprint(&self) -> String {
        self.fingerprint.clone()
    }

    fn db(&self) -> &Database {
        &self.db
    }
}
