//! `sim_store`: simulation results stored back in the database.
//!
//! One operation is `INSERT INTO sim SELECT * FROM fmu_simulate($1, $2)`
//! for one HP1 instance over the whole input table. After every instance
//! has been simulated once (a round), one grouped rollup per instance and
//! day runs over the stored output, then the table is emptied and
//! vacuumed. No estimation runs here at all.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pgfmu::{params, PgFmu};
use pgfmu_datagen::{hp::hp1_dataset, Dataset};
use pgfmu_fmi::{builtin, Fmu, InputSeries, InputSet, Interpolation, SimulationOptions};
use pgfmu_sqlmini::Database;

use super::{check, replay_ns, session, LayerLog, OpCx, Workload};
use crate::config::{Sizes, REPLAYS};
use crate::stats::Fingerprint;

const INSERT: &str = "INSERT INTO sim SELECT * FROM fmu_simulate($1, $2)";
const INPUT_SQL: &str = "SELECT ts, u FROM hp_input";
const ROLLUP: &str =
    "SELECT instanceid, floor(extract_epoch(simulationtime) / 86400.0)::int AS day, \
                      count(*) AS n, avg(value) AS mean FROM sim GROUP BY 1, 2";

/// State of the `sim_store` workload.
pub struct SimStore {
    s: PgFmu,
    ids: Vec<String>,
    warmup: u64,
    /// Rows one simulation stores: HP1 reports x and y every hour.
    rows_per_op: usize,
    /// Rows expected in `sim` right now.
    stored: usize,
    days: usize,
    fmu: Arc<Fmu>,
    inputs: InputSet,
    opts: SimulationOptions,
    fingerprint: String,
    /// Instance of the last traced operation.
    pending: Option<usize>,
}

impl SimStore {
    /// Load the input table for `seed` and create the instances.
    pub fn setup(seed: u64, sizes: &Sizes, scratch: &Path) -> Result<SimStore, String> {
        let s = session(scratch, sizes)?;
        let hp = hp1_dataset(seed).slice(0, sizes.sim_hours);
        let u = hp.column("u").ok_or("no u column")?.to_vec();
        let input = Dataset::new("ts", hp.timestamps.clone(), vec![("u".into(), u.clone())]);
        input
            .load_into(s.db(), "hp_input")
            .map_err(|e| e.to_string())?;
        let mut fp = Fingerprint::default();
        fp.str("sim_store");
        fp.u64(sizes.sim_instances as u64);
        fp.dataset(&input);
        s.execute(
            "CREATE TABLE sim (simulationtime timestamp, instanceid text, varname text, value float)",
        )
        .map_err(|e| e.to_string())?;
        let create = s
            .prepare("SELECT fmu_create('HP1', $1)")
            .map_err(|e| e.to_string())?;
        let ids: Vec<String> = (0..sizes.sim_instances)
            .map(|k| format!("hp_{k}"))
            .collect();
        for id in &ids {
            create
                .query(params![id.as_str()])
                .map_err(|e| format!("fmu_create: {e}"))?;
        }
        let times = input.times_hours();
        let series = InputSeries::new("u", times.clone(), u, Interpolation::Hold)
            .map_err(|e| e.to_string())?;
        Ok(SimStore {
            s,
            ids,
            warmup: (sizes.sim_warmup_rounds * sizes.sim_instances) as u64,
            rows_per_op: 2 * sizes.sim_hours,
            stored: 0,
            days: sizes.sim_hours.div_ceil(24),
            fmu: Arc::new(builtin::hp1()),
            inputs: InputSet::bind(&["u"], vec![series]).map_err(|e| e.to_string())?,
            opts: SimulationOptions {
                start: Some(0.0),
                stop: times.last().copied(),
                output_step: Some(1.0),
                ..Default::default()
            },
            fingerprint: fp.hex(),
            pending: None,
        })
    }

    /// Roll the stored round up per instance and day, check it, then empty
    /// the table.
    fn end_round(&mut self, cx: &mut OpCx<'_>) -> Result<(), String> {
        let s = &self.s;
        let groups: Vec<(String, i64, i64, f64)> = cx
            .query("sqlmini.rollup", || s.query_as(ROLLUP, &[]))
            .map_err(|e| format!("rollup: {e}"))?;
        let expected = self.ids.len() * self.days;
        check(groups.len() == expected, || {
            format!(
                "rollup returned {} groups, expected {expected}",
                groups.len()
            )
        })?;
        let total: i64 = groups.iter().map(|g| g.2).sum();
        check(total as usize == self.stored, || {
            format!("rollup counted {total} rows, {} were stored", self.stored)
        })?;
        cx.span("sqlmini.delete", || s.execute("DELETE FROM sim"))
            .map_err(|e| format!("delete: {e}"))?;
        cx.span("sqlmini.vacuum", || s.db().vacuum());
        self.stored = 0;
        Ok(())
    }
}

impl Workload for SimStore {
    fn warmup_ops(&self) -> u64 {
        self.warmup
    }

    fn op(&mut self, i: u64, cx: &mut OpCx<'_>) -> Result<Duration, String> {
        let k = (i % self.ids.len() as u64) as usize;
        let s = &self.s;
        let t0 = Instant::now();
        let q = cx
            .span("sqlmini.insert_select", || {
                s.query(INSERT, params![self.ids[k].as_str(), INPUT_SQL])
            })
            .map_err(|e| format!("insert: {e}"))?;
        let latency = t0.elapsed();
        let n = q
            .rows
            .first()
            .and_then(|r| r.first())
            .and_then(|v| v.as_i64().ok())
            .unwrap_or(-1);
        check(n == self.rows_per_op as i64, || {
            format!("inserted {n} rows, expected {}", self.rows_per_op)
        })?;
        self.stored += self.rows_per_op;
        if cx.tracer.is_some() {
            self.pending = Some(k);
        }
        if k + 1 == self.ids.len() {
            self.end_round(cx)?;
        }
        Ok(latency)
    }

    fn after_traced(&mut self, _i: u64, log: &mut LayerLog) -> Result<(), String> {
        let Some(k) = self.pending.take() else {
            return Ok(());
        };
        let id = &self.ids[k];
        let s = &self.s;
        // The UDF's part of the insert: `fmu_simulate` drained on its own.
        // (It writes the final state back, as the insert did.)
        let udf_ns = replay_ns(1, || {
            let rows = s
                .fmu_simulate_rows(id, Some(INPUT_SQL), None, None)
                .map_err(|e| e.to_string())?;
            super::count_rows(Ok::<_, String>(rows)).map(drop)
        })?;
        let catalog_ns = replay_ns(REPLAYS, || {
            s.catalog()
                .instantiate(id)
                .map(drop)
                .map_err(|e| e.to_string())
        })?;
        let mut steps = 0;
        let traj_ns = replay_ns(REPLAYS, || {
            let inst = self.fmu.instantiate();
            steps = inst
                .simulate(&self.inputs, &self.opts)
                .map_err(|e| e.to_string())?
                .len();
            Ok(())
        })?;
        log.carve("sqlmini", "core", udf_ns);
        log.carve("core", "fmi", traj_ns);
        log.carve("core", "catalog", catalog_ns);
        log.fmi_steps += steps as u64;
        log.sample("core.fmu_simulate_us", udf_ns / 1e3);
        log.sample("core.emit_us", (udf_ns - traj_ns - catalog_ns) / 1e3);
        log.sample("catalog.instantiate_us", catalog_ns / 1e3);
        log.sample("fmi.traj_us", traj_ns / 1e3);
        log.sample("fmi.step_ns", traj_ns / steps.max(1) as f64);
        Ok(())
    }

    fn finish(&mut self) -> Result<(), String> {
        let n: Vec<i64> = self
            .s
            .query_as("SELECT count(*) FROM sim", &[])
            .map_err(|e| e.to_string())?;
        check(n == [self.stored as i64], || {
            format!("sim holds {n:?} rows, expected {}", self.stored)
        })
    }

    fn fingerprint(&self) -> String {
        self.fingerprint.clone()
    }

    fn db(&self) -> &Database {
        self.s.db()
    }
}
