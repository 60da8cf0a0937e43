//! `si_calibrate`: the paper's Table 8 single-instance workflow.
//!
//! One operation creates an HP1 instance, calibrates `Cp` and `R` on its
//! measurements, reads back the calibrated instance's simulation over the
//! same window (the operation's query) and deletes it. Operations rotate
//! over datasets scaled by fixed factors δ, so every run calibrates the
//! same mix.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pgfmu::{params, PgFmu};
use pgfmu_datagen::{hp::hp1_dataset, scale_dataset, Dataset};
use pgfmu_estimation::{MeasurementData, SimulationObjective};
use pgfmu_fmi::{builtin, Fmu, InputSeries, InputSet, Interpolation, SimulationOptions};
use pgfmu_sqlmini::Database;

use super::{check, count_rows, replay_ns, session, LayerLog, OpCx, Workload};
use crate::config::{Sizes, REPLAYS};
use crate::parest::{self, Fit};
use crate::stats::Fingerprint;

/// True HP1 parameters the datasets are generated with.
const TRUTH: f64 = 1.5;

struct SiData {
    parest_sql: String,
    sim_sql: String,
    default_rmse: f64,
    inputs: InputSet,
    opts: SimulationOptions,
    first_fit: Option<Fit>,
}

/// State of the `si_calibrate` workload.
pub struct Si {
    s: PgFmu,
    samples: usize,
    truth_tolerance: f64,
    warmup: u64,
    pars: Vec<String>,
    bounds: Vec<(f64, f64)>,
    fmu: Arc<Fmu>,
    data: Vec<SiData>,
    fingerprint: String,
    /// Dataset, fits and evaluation log of the last traced operation.
    pending: Option<(usize, Vec<Fit>, parest::EvalLog)>,
}

/// Measurement data exactly as `fmu_parest` decodes it from
/// `SELECT ts, x, u`.
fn measurement_data(d: &Dataset) -> Result<MeasurementData, String> {
    let col = |n: &str| {
        d.column(n)
            .map(<[f64]>::to_vec)
            .ok_or(format!("no column {n}"))
    };
    MeasurementData::new(
        d.times_hours(),
        vec![("x".into(), col("x")?), ("u".into(), col("u")?)],
    )
    .map_err(|e| e.to_string())
}

impl Si {
    /// Generate the datasets for `seed`, load them and compute each one's
    /// RMSE at the model's default parameters.
    pub fn setup(seed: u64, sizes: &Sizes, scratch: &Path) -> Result<Si, String> {
        let s = session(scratch, sizes)?;
        let fmu = Arc::new(builtin::hp1());
        let pars: Vec<String> = vec!["Cp".into(), "R".into()];
        let mut bounds = Vec::new();
        let mut defaults = Vec::new();
        for p in &pars {
            let v = fmu.description.variable(p).map_err(|e| e.to_string())?;
            bounds.push((v.min.unwrap_or(f64::MIN), v.max.unwrap_or(f64::MAX)));
            defaults.push(v.start.unwrap_or(0.0));
        }
        let base = hp1_dataset(seed).slice(0, sizes.si_samples);
        let mut fp = Fingerprint::default();
        fp.str("si_calibrate");
        fp.u64(sizes.si_samples as u64);
        let mut data = Vec::new();
        for (k, &delta) in sizes.si_deltas.iter().enumerate() {
            let d = scale_dataset(&base, delta);
            let table = format!("si_d{k}");
            d.load_into(s.db(), &table).map_err(|e| e.to_string())?;
            fp.f64(delta);
            fp.dataset(&d);
            let md = measurement_data(&d)?;
            let inst = fmu.instantiate();
            let default_rmse = SimulationObjective::new(
                Arc::clone(&fmu),
                inst.param_values(),
                inst.start_state(),
                &pars,
                &md,
            )
            .map_err(|e| e.to_string())?
            .rmse_at(&defaults);
            let u = md.column("u").ok_or("no u")?.to_vec();
            let series = InputSeries::new("u", md.times.clone(), u, Interpolation::Hold)
                .map_err(|e| e.to_string())?;
            data.push(SiData {
                parest_sql: format!("SELECT ts, x, u FROM {table}"),
                sim_sql: format!("SELECT ts, u FROM {table}"),
                default_rmse,
                inputs: InputSet::bind(&["u"], vec![series]).map_err(|e| e.to_string())?,
                opts: SimulationOptions {
                    start: Some(0.0),
                    stop: md.times.last().copied(),
                    output_step: Some(md.step()),
                    ..Default::default()
                },
                first_fit: None,
            });
        }
        Ok(Si {
            s,
            samples: sizes.si_samples,
            truth_tolerance: sizes.si_truth_tolerance,
            warmup: sizes.si_warmup as u64,
            pars,
            bounds,
            fmu,
            data,
            fingerprint: fp.hex(),
            pending: None,
        })
    }

    fn check_fit(&mut self, k: usize, fit: &Fit) -> Result<(), String> {
        for (p, (&v, &(lo, hi))) in self.pars.iter().zip(fit.params.iter().zip(&self.bounds)) {
            check((lo..=hi).contains(&v), || {
                format!("dataset {k}: {p} = {v} outside [{lo}, {hi}]")
            })?;
        }
        let d = &mut self.data[k];
        check(fit.rmse <= d.default_rmse, || {
            format!(
                "dataset {k}: calibrated RMSE {} above the default-parameter RMSE {}",
                fit.rmse, d.default_rmse
            )
        })?;
        if k == 0 {
            for (p, v) in self.pars.iter().zip(&fit.params) {
                check((v - TRUTH).abs() <= self.truth_tolerance * TRUTH, || {
                    format!("dataset 0 (δ = 1): {p} = {v}, truth {TRUTH}")
                })?;
            }
        }
        match &d.first_fit {
            None => d.first_fit = Some(fit.clone()),
            Some(first) => check(first.same_bits(fit), || {
                format!("dataset {k}: revisit gave {fit:?}, first visit {first:?}")
            })?,
        }
        Ok(())
    }
}

impl Workload for Si {
    fn warmup_ops(&self) -> u64 {
        self.warmup
    }

    fn trace_period(&self) -> u64 {
        self.data.len() as u64
    }

    fn op(&mut self, i: u64, cx: &mut OpCx<'_>) -> Result<Duration, String> {
        let k = (i % self.data.len() as u64) as usize;
        let id = format!("si_{i}");
        let (parest_sql, sim_sql) = (
            self.data[k].parest_sql.clone(),
            self.data[k].sim_sql.clone(),
        );
        let s = &self.s;
        let t0 = Instant::now();
        cx.span("core.fmu_create", || {
            s.query("SELECT fmu_create('HP1', $1)", params![id.as_str()])
        })
        .map_err(|e| format!("fmu_create: {e}"))?;
        let ids = [id.clone()];
        let sqls = [parest_sql];
        let fits = match cx.tracer {
            Some(tracer) => {
                let (fits, log) = parest::traced(s, &ids, &sqls, &self.pars, tracer)?;
                self.pending = Some((k, fits.clone(), log));
                fits
            }
            None => parest::untraced(s, &ids, &sqls, &self.pars)?,
        };
        let rows = cx.query("core.fmu_simulate", || {
            count_rows(s.query_rows(
                "SELECT * FROM fmu_simulate($1, $2)",
                params![id.as_str(), sim_sql.as_str()],
            ))
        })?;
        cx.span("core.fmu_delete_instance", || {
            s.query("SELECT fmu_delete_instance($1)", params![id.as_str()])
        })
        .map_err(|e| format!("fmu_delete_instance: {e}"))?;
        let latency = t0.elapsed();
        // HP1 reports its state x and its output y at every sample.
        check(rows == 2 * self.samples, || {
            format!(
                "fmu_simulate returned {rows} rows, expected {}",
                2 * self.samples
            )
        })?;
        let [fit] =
            <[Fit; 1]>::try_from(fits).map_err(|f| format!("{} fits for one instance", f.len()))?;
        self.check_fit(k, &fit)?;
        Ok(latency)
    }

    fn after_traced(&mut self, _i: u64, log: &mut LayerLog) -> Result<(), String> {
        let Some((k, fits, evals)) = self.pending.take() else {
            return Ok(());
        };
        let d = &self.data[k];
        let mut steps = 0;
        let traj_ns = replay_ns(REPLAYS, || {
            let inst = self.fmu.instantiate();
            steps = inst
                .simulate(&d.inputs, &d.opts)
                .map_err(|e| e.to_string())?
                .len();
            Ok(())
        })?;
        log.calibration(&fits, &evals, traj_ns, steps);
        // fmu_simulate runs the same trajectory once more.
        log.carve("core", "fmi", traj_ns);
        log.fmi_steps += steps as u64;
        Ok(())
    }

    fn finish(&mut self) -> Result<(), String> {
        let left: Vec<i64> = self
            .s
            .query_as("SELECT count(*) FROM modelinstance", &[])
            .map_err(|e| e.to_string())?;
        check(left == [0], || {
            format!("{left:?} instances left after the run")
        })
    }

    fn fingerprint(&self) -> String {
        self.fingerprint.clone()
    }

    fn db(&self) -> &Database {
        self.s.db()
    }
}
