//! Registration of the pgFMU UDFs into the SQL engine — the paper's
//! Challenge 1 ("how to integrate and expose FMUs in database queries").
//!
//! Scalar UDFs: `fmu_create`, `fmu_copy`, `fmu_set_initial`,
//! `fmu_set_minimum`, `fmu_set_maximum`, `fmu_reset`,
//! `fmu_delete_instance`, `fmu_delete_model`, `fmu_parest`,
//! `fmu_mi_optimization`.
//!
//! Set-returning UDFs (usable in `FROM`, including laterally):
//! `fmu_variables`, `fmu_get`, `fmu_simulate`, `fmu_parest_report`,
//! `fmu_simulate_fleet`, `fmu_parest_fleet`, `fmu_control`.
//!
//! Every UDF is declared through the typed builder
//! ([`Database::udf`]) with its argument signature, so argument coercion
//! and arity/type errors are produced centrally (PostgreSQL-style
//! messages) instead of per-UDF parsing code, and call counts surface in
//! `pgfmu_stats()`.

use std::sync::{Arc, Weak};

use pgfmu_sqlmini::{ArgKind, Args, Database, Row, SqlError, Value};

use crate::arrays::{format_float_array, parse_ident_array, parse_sql_array};
use crate::parest::ParestReport;
use crate::session::Session;
use crate::simulate::{TimeSpec, SIM_COLUMNS};

type SqlResult<T> = std::result::Result<T, SqlError>;

fn session(weak: &Weak<Session>) -> SqlResult<Arc<Session>> {
    weak.upgrade()
        .ok_or_else(|| SqlError::Execution("pgFMU session has been closed".into()))
}

fn opt_f64(v: Option<f64>) -> Value {
    match v {
        Some(x) => Value::Float(x),
        None => Value::Null,
    }
}

/// Decode the shared `(instanceIds, input_sqls, [pars], [threshold])`
/// argument block of `fmu_parest` / `fmu_parest_report`.
type ParestArgs = (Vec<String>, Vec<String>, Option<Vec<String>>, Option<f64>);

fn parest_args(args: &Args) -> ParestArgs {
    let ids = parse_ident_array(args.text(0));
    let sqls = parse_sql_array(args.text(1));
    let pars = args
        .opt_text(2)
        .map(parse_ident_array)
        .filter(|p| !p.is_empty());
    let threshold = args.opt_f64(3);
    (ids, sqls, pars, threshold)
}

/// The columns of `fmu_parest_report` and `fmu_parest_fleet`.
const PAREST_COLUMNS: &[&str] = &[
    "instanceid",
    "estimationerror",
    "strategy",
    "globalevals",
    "localevals",
];

/// One [`PAREST_COLUMNS`] row per estimation report.
fn parest_rows(reports: Vec<ParestReport>) -> Vec<Row> {
    reports
        .into_iter()
        .map(|r| {
            let strategy = match r.strategy {
                pgfmu_estimation::Strategy::GlobalLocal => "G+LaG",
                pgfmu_estimation::Strategy::LocalOnly => "LO",
            };
            vec![
                Value::Text(r.instance_id),
                Value::Float(r.rmse),
                Value::Text(strategy.into()),
                Value::Int(r.global_evals as i64),
                Value::Int(r.local_evals as i64),
            ]
        })
        .collect()
}

/// Register every pgFMU UDF on the database.
pub(crate) fn register_all(db: &Database, weak: Weak<Session>) {
    // ---- fmu_create ---------------------------------------------------------
    let w = weak.clone();
    db.udf("fmu_create")
        .arg("modelref", ArgKind::Text)
        .opt_arg("instanceid", ArgKind::Text)
        .scalar(move |_db, args| {
            let s = session(&w)?;
            let a = args.text(0).to_string();
            let instance = args.opt_text(1).map(str::to_string);
            // The paper's examples pass (modelRef, instanceId) and
            // (instanceId, modelRef) interchangeably; detect which is which.
            let (model_ref, instance_id) = match &instance {
                Some(b) if !s.looks_like_model_ref(&a) && s.looks_like_model_ref(b) => {
                    (b.clone(), Some(a))
                }
                _ => (a, instance),
            };
            let id = s.fmu_create(&model_ref, instance_id.as_deref())?;
            Ok(Value::Text(id))
        });

    // ---- fmu_copy ------------------------------------------------------------
    let w = weak.clone();
    db.udf("fmu_copy")
        .arg("instanceid", ArgKind::Text)
        .opt_arg("instanceid2", ArgKind::Text)
        .scalar(move |_db, args| {
            let s = session(&w)?;
            let id = s.catalog.copy_instance(args.text(0), args.opt_text(1))?;
            Ok(Value::Text(id))
        });

    // ---- setters / reset / deletes --------------------------------------------
    let w = weak.clone();
    db.udf("fmu_set_initial")
        .arg("instanceid", ArgKind::Text)
        .arg("varname", ArgKind::Text)
        .arg("value", ArgKind::Float)
        .scalar(move |_db, args| {
            let s = session(&w)?;
            s.catalog
                .set_value(args.text(0), args.text(1), args.f64(2))?;
            Ok(Value::Text(args.text(0).to_string()))
        });
    let w = weak.clone();
    db.udf("fmu_set_minimum")
        .arg("instanceid", ArgKind::Text)
        .arg("varname", ArgKind::Text)
        .arg("value", ArgKind::Float)
        .scalar(move |_db, args| {
            let s = session(&w)?;
            s.catalog.set_bound(
                args.text(0),
                args.text(1),
                pgfmu_catalog::Bound::Min,
                args.f64(2),
            )?;
            Ok(Value::Text(args.text(0).to_string()))
        });
    let w = weak.clone();
    db.udf("fmu_set_maximum")
        .arg("instanceid", ArgKind::Text)
        .arg("varname", ArgKind::Text)
        .arg("value", ArgKind::Float)
        .scalar(move |_db, args| {
            let s = session(&w)?;
            s.catalog.set_bound(
                args.text(0),
                args.text(1),
                pgfmu_catalog::Bound::Max,
                args.f64(2),
            )?;
            Ok(Value::Text(args.text(0).to_string()))
        });
    let w = weak.clone();
    db.udf("fmu_reset")
        .arg("instanceid", ArgKind::Text)
        .scalar(move |_db, args| {
            let s = session(&w)?;
            s.catalog.reset_instance(args.text(0))?;
            Ok(Value::Text(args.text(0).to_string()))
        });
    let w = weak.clone();
    db.udf("fmu_delete_instance")
        .arg("instanceid", ArgKind::Text)
        .scalar(move |_db, args| {
            let s = session(&w)?;
            s.catalog.delete_instance(args.text(0))?;
            Ok(Value::Text(args.text(0).to_string()))
        });
    let w = weak.clone();
    db.udf("fmu_delete_model")
        .arg("modelref", ArgKind::Text)
        .scalar(move |_db, args| {
            let s = session(&w)?;
            s.fmu_delete_model(args.text(0))?;
            Ok(Value::Text(args.text(0).to_string()))
        });

    // ---- MI switch (pgFMU+ / pgFMU−) -------------------------------------------
    let w = weak.clone();
    db.udf("fmu_mi_optimization")
        .arg("enabled", ArgKind::Bool)
        .scalar(move |_db, args| {
            let s = session(&w)?;
            let enabled = args.boolean(0);
            s.mi_enabled
                .store(enabled, std::sync::atomic::Ordering::Relaxed);
            Ok(Value::Bool(enabled))
        });

    // ---- fmu_variables ----------------------------------------------------------
    let w = weak.clone();
    db.udf("fmu_variables")
        .arg("instanceid", ArgKind::Text)
        .table(
            &[
                "instanceid",
                "varname",
                "vartype",
                "initialvalue",
                "minvalue",
                "maxvalue",
            ],
            move |_db, args| {
                let s = session(&w)?;
                let rows = s.catalog.variables(args.text(0))?;
                Ok(rows
                    .into_iter()
                    .map(|r| {
                        vec![
                            Value::Text(r.instance_id),
                            Value::Text(r.var_name),
                            Value::Text(r.var_type),
                            opt_f64(r.value),
                            opt_f64(r.min_value),
                            opt_f64(r.max_value),
                        ]
                    })
                    .collect())
            },
        );

    // ---- fmu_get -------------------------------------------------------------------
    let w = weak.clone();
    db.udf("fmu_get")
        .arg("instanceid", ArgKind::Text)
        .arg("varname", ArgKind::Text)
        .table(
            &["initialvalue", "minvalue", "maxvalue"],
            move |_db, args| {
                let s = session(&w)?;
                let (value, min, max) = s.catalog.get_value(args.text(0), args.text(1))?;
                Ok(vec![vec![opt_f64(value), opt_f64(min), opt_f64(max)]])
            },
        );

    // ---- fmu_parest (scalar, the paper's surface) -----------------------------------
    let w = weak.clone();
    db.udf("fmu_parest")
        .arg("instanceids", ArgKind::Text)
        .arg("input_sqls", ArgKind::Text)
        .opt_arg("pars", ArgKind::Text)
        .opt_arg("threshold", ArgKind::Float)
        .scalar(move |_db, args| {
            let s = session(&w)?;
            let (ids, sqls, pars, threshold) = parest_args(args);
            let reports = crate::parest::run_parest(&s, &ids, &sqls, pars.as_deref(), threshold)?;
            if reports.len() == 1 {
                Ok(Value::Float(reports[0].rmse))
            } else {
                Ok(Value::Text(format_float_array(
                    &reports.iter().map(|r| r.rmse).collect::<Vec<_>>(),
                )))
            }
        });

    // ---- fmu_parest_report (table form with strategy details) -------------------------
    let w = weak.clone();
    db.udf("fmu_parest_report")
        .arg("instanceids", ArgKind::Text)
        .arg("input_sqls", ArgKind::Text)
        .opt_arg("pars", ArgKind::Text)
        .opt_arg("threshold", ArgKind::Float)
        .table(PAREST_COLUMNS, move |_db, args| {
            let s = session(&w)?;
            let (ids, sqls, pars, threshold) = parest_args(args);
            let reports = crate::parest::run_parest(&s, &ids, &sqls, pars.as_deref(), threshold)?;
            Ok(parest_rows(reports))
        });

    // ---- fmu_simulate -------------------------------------------------------------------
    let w = weak.clone();
    db.udf("fmu_simulate")
        .arg("instanceid", ArgKind::Text)
        .opt_arg("input_sql", ArgKind::Text)
        .opt_arg("time_from", ArgKind::Any)
        .opt_arg("time_to", ArgKind::Any)
        .table(SIM_COLUMNS, move |_db, args| {
            let s = session(&w)?;
            let time_from = match args.value(2) {
                Value::Null => None,
                v => Some(TimeSpec::from_value(v)?),
            };
            let time_to = match args.value(3) {
                Value::Null => None,
                v => Some(TimeSpec::from_value(v)?),
            };
            Ok(crate::simulate::run_simulate(
                &s,
                args.text(0),
                args.opt_text(1),
                time_from,
                time_to,
            )?
            .rows)
        });

    // ---- fmu_simulate_fleet (cross-instance fan-out) ----------------------------------------
    let w = weak.clone();
    db.udf("fmu_simulate_fleet")
        .arg("instanceids", ArgKind::Text)
        .opt_arg("input_sql", ArgKind::Text)
        .opt_arg("time_from", ArgKind::Any)
        .opt_arg("time_to", ArgKind::Any)
        .opt_arg("workers", ArgKind::Int)
        .table(SIM_COLUMNS, move |_db, args| {
            let s = session(&w)?;
            let ids = parse_ident_array(args.text(0));
            let time_from = match args.value(2) {
                Value::Null => None,
                v => Some(TimeSpec::from_value(v)?),
            };
            let time_to = match args.value(3) {
                Value::Null => None,
                v => Some(TimeSpec::from_value(v)?),
            };
            let workers = args.opt_i64(4).map(|n| n.max(0) as usize);
            Ok(crate::fleet::run_simulate_fleet(
                &s,
                &ids,
                args.opt_text(1),
                time_from,
                time_to,
                workers,
            )?
            .rows)
        });

    // ---- fmu_parest_fleet (pooled estimation) -----------------------------------------------
    let w = weak.clone();
    db.udf("fmu_parest_fleet")
        .arg("instanceids", ArgKind::Text)
        .arg("input_sqls", ArgKind::Text)
        .opt_arg("pars", ArgKind::Text)
        .opt_arg("threshold", ArgKind::Float)
        .opt_arg("workers", ArgKind::Int)
        .table(PAREST_COLUMNS, move |_db, args| {
            let s = session(&w)?;
            let (ids, sqls, pars, threshold) = parest_args(args);
            let workers = args.opt_i64(4).map(|n| n.max(0) as usize);
            let reports = crate::fleet::run_parest_fleet(
                &s,
                &ids,
                &sqls,
                pars.as_deref(),
                threshold,
                workers,
            )?;
            Ok(parest_rows(reports))
        });

    // ---- fmu_control (future-work MPC) -----------------------------------------------------
    let w = weak;
    db.udf("fmu_control")
        .arg("instanceid", ArgKind::Text)
        .arg("input_name", ArgKind::Text)
        .arg("horizon_hours", ArgKind::Float)
        .arg("intervals", ArgKind::Int)
        .arg("setpoint", ArgKind::Float)
        .opt_arg("effort_weight", ArgKind::Float)
        .table(&["hours", "value"], move |_db, args| {
            let s = session(&w)?;
            let plan = crate::control::run_control(
                &s,
                args.text(0),
                args.text(1),
                args.f64(2),
                args.i64(3) as usize,
                args.f64(4),
                args.opt_f64(5).unwrap_or(0.01),
            )?;
            Ok(plan
                .into_iter()
                .map(|(t, u)| vec![Value::Float(t), Value::Float(u)])
                .collect())
        });
}
