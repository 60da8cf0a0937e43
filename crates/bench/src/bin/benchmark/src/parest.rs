//! `fmu_parest`, untraced and traced.
//!
//! The untraced path is the session's own `fmu_parest`. The traced path
//! makes the same public calls `fmu_parest` makes — input query, decode,
//! catalogue reads, objective construction, estimation, write-back — each
//! inside a span, with every objective evaluation timed by a wrapper
//! around the real `SimulationObjective`. The workloads check that both
//! paths return byte-identical parameters and RMSE on the same input, so
//! the trace measures the program the untraced run measures.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pgfmu::convert::decode_rows;
use pgfmu::PgFmu;
use pgfmu_estimation::{
    estimate_mi_in, estimate_si, MiProblem, Objective, ParamSpec, SimulationObjective, Strategy,
};

use crate::trace::Tracer;

/// What one instance's calibration returned.
#[derive(Debug, Clone, PartialEq)]
pub struct Fit {
    /// Estimated parameter values, in the order asked for.
    pub params: Vec<f64>,
    /// Estimation RMSE.
    pub rmse: f64,
    /// G+LaG or LO.
    pub strategy: Strategy,
    /// Objective evaluations of the global phase.
    pub global_evals: u64,
    /// Wall time of the global phase.
    pub global_time: Duration,
    /// Wall time of the local phase.
    pub local_time: Duration,
}

impl Fit {
    /// Same parameters and RMSE, bit for bit.
    pub fn same_bits(&self, other: &Fit) -> bool {
        self.rmse.to_bits() == other.rmse.to_bits()
            && self.params.len() == other.params.len()
            && self
                .params
                .iter()
                .zip(&other.params)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// Evaluation timings of one traced calibration.
#[derive(Debug, Clone, Default)]
pub struct EvalLog {
    /// Per instance, the wall time of each objective evaluation in order.
    pub per_instance: Vec<Vec<u64>>,
}

impl EvalLog {
    /// Evaluations of all instances.
    pub fn evals(&self) -> u64 {
        self.per_instance.iter().map(|v| v.len() as u64).sum()
    }

    /// Summed evaluation wall time.
    pub fn eval_ns(&self) -> u64 {
        self.per_instance.iter().flatten().sum()
    }
}

/// The real objective, each evaluation timed and recorded as a span.
struct TimedObjective {
    inner: SimulationObjective,
    tracer: Arc<Tracer>,
    evals: Mutex<Vec<u64>>,
}

impl Objective for TimedObjective {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn bounds(&self) -> &[ParamSpec] {
        self.inner.bounds()
    }

    fn eval(&self, params: &[f64]) -> f64 {
        let t0 = Instant::now();
        let cost = self
            .tracer
            .span("estimation.eval", || self.inner.eval(params));
        let ns = t0.elapsed().as_nanos() as u64;
        self.evals.lock().expect("evaluation log poisoned").push(ns);
        cost
    }

    fn eval_count(&self) -> u64 {
        self.inner.eval_count()
    }
}

/// Calibrate `ids` against `sqls` (one input query per instance) through
/// the session's `fmu_parest`.
pub fn untraced(
    s: &PgFmu,
    ids: &[String],
    sqls: &[String],
    pars: &[String],
) -> Result<Vec<Fit>, String> {
    let reports = s
        .fmu_parest(ids, sqls, Some(pars), None)
        .map_err(|e| format!("fmu_parest: {e}"))?;
    Ok(reports
        .into_iter()
        .map(|r| Fit {
            params: r.params,
            rmse: r.rmse,
            strategy: r.strategy,
            global_evals: r.global_evals,
            global_time: r.global_time,
            local_time: r.local_time,
        })
        .collect())
}

/// The same calibration as [`untraced`], made of the public calls
/// `fmu_parest` makes, each in a span.
pub fn traced(
    s: &PgFmu,
    ids: &[String],
    sqls: &[String],
    pars: &[String],
    tracer: &Arc<Tracer>,
) -> Result<(Vec<Fit>, EvalLog), String> {
    let cfg = s.estimation_config();
    let catalog = s.catalog();
    let t = tracer.as_ref();
    let mut problems = Vec::with_capacity(ids.len());
    let mut timed = Vec::with_capacity(ids.len());
    for (id, sql) in ids.iter().zip(sqls) {
        let (columns, rows) = t
            .span("sqlmini.input_read", || {
                let rows = s.db().query_rows(sql, &[])?;
                let columns = rows.columns().to_vec();
                rows.collect::<Result<Vec<_>, _>>()
                    .map(|rows| (columns, rows))
            })
            .map_err(|e| format!("input query: {e}"))?;
        let data = t
            .span("core.decode", || {
                decode_rows(&columns, rows.into_iter().map(Ok))?.to_measurement_data()
            })
            .map_err(|e| format!("decode: {e}"))?;
        let fmu = t
            .span("catalog.fmu_for_estimation", || {
                catalog.fmu_for_estimation(id)
            })
            .map_err(|e| format!("fmu_for_estimation: {e}"))?;
        let (_, inst) = t
            .span("catalog.instantiate", || catalog.instantiate(id))
            .map_err(|e| format!("instantiate: {e}"))?;
        let objective = t
            .span("estimation.objective_new", || {
                SimulationObjective::new(
                    Arc::clone(&fmu),
                    inst.param_values(),
                    inst.start_state(),
                    pars,
                    &data,
                )
            })
            .map_err(|e| format!("objective: {e}"))?;
        let model_key = t
            .span("catalog.instance_model", || catalog.instance_model(id))
            .map_err(|e| format!("instance_model: {e}"))?
            .to_string();
        let objective = Arc::new(TimedObjective {
            inner: objective,
            tracer: Arc::clone(tracer),
            evals: Mutex::new(Vec::new()),
        });
        timed.push(Arc::clone(&objective));
        problems.push(MiProblem {
            instance_id: id.clone(),
            model_key,
            objective,
            similarity_series: data.series_for_similarity(),
        });
    }

    let mi = s.mi_enabled() && problems.len() > 1;
    let outcomes = t.span("estimation.estimate", || {
        if mi {
            estimate_mi_in(&problems, &cfg, None)
        } else {
            problems
                .iter()
                .map(|p| estimate_si(p.objective.as_ref(), &cfg))
                .collect()
        }
    });

    let mut fits = Vec::with_capacity(outcomes.len());
    for (outcome, id) in outcomes.into_iter().zip(ids) {
        let updates: Vec<(String, f64)> = pars
            .iter()
            .cloned()
            .zip(outcome.params.iter().copied())
            .collect();
        t.span("catalog.update_values", || {
            catalog.update_values(id, &updates)
        })
        .map_err(|e| format!("update_values: {e}"))?;
        fits.push(Fit {
            params: outcome.params,
            rmse: outcome.rmse,
            strategy: outcome.strategy,
            global_evals: outcome.global_evals,
            global_time: outcome.global_time,
            local_time: outcome.local_time,
        });
    }
    let log = EvalLog {
        per_instance: timed
            .iter()
            .map(|o| o.evals.lock().expect("evaluation log poisoned").clone())
            .collect(),
    };
    Ok((fits, log))
}

/// Time spent in the GA and in local search outside the objective
/// evaluations, in ns: each phase's wall time minus its evaluations (the
/// first `global_evals` evaluations of an instance are the GA's).
pub fn phase_self_ns(fits: &[Fit], log: &EvalLog) -> (u64, u64) {
    let mut ga = 0u64;
    let mut local = 0u64;
    for (fit, evals) in fits.iter().zip(&log.per_instance) {
        let split = (fit.global_evals as usize).min(evals.len());
        let ga_evals: u64 = evals[..split].iter().sum();
        let local_evals: u64 = evals[split..].iter().sum();
        ga += (fit.global_time.as_nanos() as u64).saturating_sub(ga_evals);
        local += (fit.local_time.as_nanos() as u64).saturating_sub(local_evals);
    }
    (ga, local)
}
