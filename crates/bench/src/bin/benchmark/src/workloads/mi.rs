//! `mi_calibrate`: the paper's Fig 7 pgFMU+ batch.
//!
//! One operation copies a Classroom template instance once per dataset,
//! calibrates all of them in one `fmu_parest` call with the multi-instance
//! optimization on (G+LaG for the first instance, LO for every similar one
//! after it), reads back each calibrated instance's simulation (the
//! operation's queries) and deletes the copies. Every batch sees the same
//! data, so every batch must return the same estimates. The data itself is
//! pinned (see [`MI_DATA_SEED`]); the workload seed arranges it.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pgfmu::{params, PgFmu, Strategy};
use pgfmu_datagen::{classroom::classroom_dataset, scale_dataset};
use pgfmu_fmi::{builtin, Fmu, InputSeries, InputSet, Interpolation, SimulationOptions};
use pgfmu_sqlmini::Database;

use super::{check, count_rows, replay_ns, session, LayerLog, OpCx, Workload};
use crate::config::{Sizes, MI_DATA_SEED, REPLAYS};
use crate::parest::{self, Fit};
use crate::stats::{Fingerprint, SplitMix};

/// Model inputs, in the order the model declares them.
const INPUTS: [&str; 5] = ["solrad", "tout", "occ", "dpos", "vpos"];

/// State of the `mi_calibrate` workload.
pub struct Mi {
    s: PgFmu,
    warmup: u64,
    min_batches: u64,
    pars: Vec<String>,
    bounds: Vec<(f64, f64)>,
    parest_sqls: Vec<String>,
    sim_sqls: Vec<String>,
    /// Rows `fmu_simulate` returns per instance.
    sim_rows: usize,
    fmu: Arc<Fmu>,
    inputs: InputSet,
    opts: SimulationOptions,
    first_batch: Option<Vec<Fit>>,
    fingerprint: String,
    pending: Option<(Vec<Fit>, parest::EvalLog)>,
}

impl Mi {
    /// Generate the per-instance datasets for `seed`, load them and create
    /// the template instance.
    pub fn setup(seed: u64, sizes: &Sizes, scratch: &Path) -> Result<Mi, String> {
        let s = session(scratch, sizes)?;
        let fmu = Arc::new(builtin::classroom());
        let pars: Vec<String> = ["shgc", "tmass", "RExt", "occheff"]
            .map(String::from)
            .to_vec();
        let bounds = pars
            .iter()
            .map(|p| {
                let v = fmu.description.variable(p).map_err(|e| e.to_string())?;
                Ok((v.min.unwrap_or(f64::MIN), v.max.unwrap_or(f64::MAX)))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let base = classroom_dataset(MI_DATA_SEED).slice(0, sizes.mi_samples);
        // The anchor keeps δ = 1; the seed shuffles the tail.
        let mut deltas = sizes.mi_deltas.to_vec();
        let mut rng = SplitMix::new(seed);
        for k in (2..deltas.len()).rev() {
            deltas.swap(k, 1 + rng.below(k));
        }
        let mut fp = Fingerprint::default();
        fp.str("mi_calibrate");
        let (mut parest_sqls, mut sim_sqls) = (Vec::new(), Vec::new());
        for (k, &delta) in deltas.iter().enumerate() {
            let d = scale_dataset(&base, delta);
            let table = format!("mi_d{k}");
            d.load_into(s.db(), &table).map_err(|e| e.to_string())?;
            fp.f64(delta);
            fp.dataset(&d);
            parest_sqls.push(format!(
                "SELECT ts, t, solrad, tout, occ, dpos, vpos FROM {table}"
            ));
            sim_sqls.push(format!(
                "SELECT ts, solrad, tout, occ, dpos, vpos FROM {table}"
            ));
        }
        s.query("SELECT fmu_create('Classroom', 'mi_template')", &[])
            .map_err(|e| format!("fmu_create: {e}"))?;
        // The replay trajectory: the anchor dataset's window and inputs
        // (every dataset has the same length, so the same cost).
        let times = base.times_hours();
        let series = INPUTS
            .iter()
            .map(|&name| {
                let col = base
                    .column(name)
                    .ok_or(format!("no column {name}"))?
                    .to_vec();
                InputSeries::new(name, times.clone(), col, Interpolation::Hold)
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, String>>()?;
        let inputs = InputSet::bind(&INPUTS, series).map_err(|e| e.to_string())?;
        let opts = SimulationOptions {
            start: Some(0.0),
            stop: times.last().copied(),
            output_step: Some(times[1] - times[0]),
            ..Default::default()
        };
        let sim_rows = sizes.mi_samples * (fmu.state_names().len() + fmu.output_names().len());
        Ok(Mi {
            s,
            warmup: sizes.mi_warmup as u64,
            min_batches: sizes.mi_min_batches as u64,
            pars,
            bounds,
            parest_sqls,
            sim_sqls,
            sim_rows,
            fmu,
            inputs,
            opts,
            first_batch: None,
            fingerprint: fp.hex(),
            pending: None,
        })
    }

    fn check_batch(&mut self, fits: Vec<Fit>) -> Result<(), String> {
        check(fits.len() == self.parest_sqls.len(), || {
            format!(
                "{} fits for {} instances",
                fits.len(),
                self.parest_sqls.len()
            )
        })?;
        for (k, fit) in fits.iter().enumerate() {
            for (p, (&v, &(lo, hi))) in self.pars.iter().zip(fit.params.iter().zip(&self.bounds)) {
                check((lo..=hi).contains(&v), || {
                    format!("instance {k}: {p} = {v} outside [{lo}, {hi}]")
                })?;
            }
        }
        check(fits[0].strategy == Strategy::GlobalLocal, || {
            "the anchor instance was not estimated with G+LaG".into()
        })?;
        match &self.first_batch {
            None => self.first_batch = Some(fits),
            Some(first) => {
                let lo = |f: &[Fit]| {
                    f.iter()
                        .filter(|x| x.strategy == Strategy::LocalOnly)
                        .count()
                };
                check(lo(first) == lo(&fits), || {
                    format!("{} LO instances, first batch had {}", lo(&fits), lo(first))
                })?;
                for (k, (a, b)) in first.iter().zip(&fits).enumerate() {
                    check(a.same_bits(b), || {
                        format!("instance {k}: {b:?} differs from the first batch's {a:?}")
                    })?;
                }
            }
        }
        Ok(())
    }
}

impl Workload for Mi {
    fn warmup_ops(&self) -> u64 {
        self.warmup
    }

    fn min_timed_ops(&self) -> u64 {
        self.min_batches
    }

    fn op(&mut self, i: u64, cx: &mut OpCx<'_>) -> Result<Duration, String> {
        let ids: Vec<String> = (0..self.parest_sqls.len())
            .map(|k| format!("mi_{i}_{k}"))
            .collect();
        let s = &self.s;
        let t0 = Instant::now();
        for id in &ids {
            cx.span("core.fmu_copy", || {
                s.query("SELECT fmu_copy('mi_template', $1)", params![id.as_str()])
            })
            .map_err(|e| format!("fmu_copy: {e}"))?;
        }
        let fits = match cx.tracer {
            Some(tracer) => {
                let (fits, log) = parest::traced(s, &ids, &self.parest_sqls, &self.pars, tracer)?;
                self.pending = Some((fits.clone(), log));
                fits
            }
            None => parest::untraced(s, &ids, &self.parest_sqls, &self.pars)?,
        };
        for (id, sql) in ids.iter().zip(&self.sim_sqls) {
            let rows = cx.query("core.fmu_simulate", || {
                count_rows(s.query_rows(
                    "SELECT * FROM fmu_simulate($1, $2)",
                    params![id.as_str(), sql.as_str()],
                ))
            })?;
            check(rows == self.sim_rows, || {
                format!(
                    "fmu_simulate returned {rows} rows, expected {}",
                    self.sim_rows
                )
            })?;
        }
        for id in &ids {
            cx.span("core.fmu_delete_instance", || {
                s.query("SELECT fmu_delete_instance($1)", params![id.as_str()])
            })
            .map_err(|e| format!("fmu_delete_instance: {e}"))?;
        }
        let latency = t0.elapsed();
        self.check_batch(fits)?;
        Ok(latency)
    }

    fn after_traced(&mut self, _i: u64, log: &mut LayerLog) -> Result<(), String> {
        let Some((fits, evals)) = self.pending.take() else {
            return Ok(());
        };
        let mut steps = 0;
        let traj_ns = replay_ns(REPLAYS, || {
            let inst = self.fmu.instantiate();
            steps = inst
                .simulate(&self.inputs, &self.opts)
                .map_err(|e| e.to_string())?
                .len();
            Ok(())
        })?;
        log.calibration(&fits, &evals, traj_ns, steps);
        let n = fits.len() as f64;
        log.carve("core", "fmi", n * traj_ns);
        log.fmi_steps += fits.len() as u64 * steps as u64;
        let tail = fits.len().saturating_sub(1) as u64;
        let lo = fits
            .iter()
            .filter(|f| f.strategy == Strategy::LocalOnly)
            .count() as u64;
        log.lo_tail.0 += lo;
        log.lo_tail.1 += tail;
        let anchor = &fits[0];
        log.sample(
            "estimation.anchor_ms",
            (anchor.global_time + anchor.local_time).as_secs_f64() * 1e3,
        );
        Ok(())
    }

    fn finish(&mut self) -> Result<(), String> {
        let left: Vec<i64> = self
            .s
            .query_as("SELECT count(*) FROM modelinstance", &[])
            .map_err(|e| e.to_string())?;
        check(left == [1], || {
            format!("{left:?} instances left after the run, expected the template only")
        })
    }

    fn fingerprint(&self) -> String {
        self.fingerprint.clone()
    }

    fn db(&self) -> &Database {
        self.s.db()
    }
}
