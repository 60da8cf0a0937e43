//! SQL UDF surface of the analytics crate (MADlib-style calls).
//!
//! Models are persisted *in the database*: `arima_train` and
//! `logregr_train` write their fitted state into an output table, and the
//! prediction functions reconstruct the model from that table — keeping
//! the whole workflow inside the DBMS, as the paper's combined experiment
//! requires.

use pgfmu_sqlmini::{ArgKind, Database, SqlError, Value};

use crate::arima::{Arima, ArimaSpec};
use crate::logistic::LogisticRegression;

type SqlResult<T> = std::result::Result<T, SqlError>;

fn ident_ok(s: &str) -> SqlResult<()> {
    if s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') && !s.is_empty() {
        Ok(())
    } else {
        Err(SqlError::Type(format!("invalid identifier '{s}'")))
    }
}

/// Register `arima_train`, `arima_forecast`, `logregr_train` and
/// `logregr_prob` on a database. All four are declared through the typed
/// UDF builder, so argument coercion and arity errors are centralized.
pub fn register_udfs(db: &Database) {
    db.udf("arima_train")
        .arg("source_table", ArgKind::Text)
        .arg("output_table", ArgKind::Text)
        .arg("time_col", ArgKind::Text)
        .arg("value_col", ArgKind::Text)
        .opt_arg("orders", ArgKind::Text)
        .scalar(|db, args| {
            let source = args.text(0).to_string();
            let output = args.text(1).to_string();
            let time_col = args.text(2).to_string();
            let value_col = args.text(3).to_string();
            for ident in [&source, &output, &time_col, &value_col] {
                ident_ok(ident)?;
            }
            let spec = if let Some(raw) = args.opt_text(4) {
                ArimaSpec::parse(raw).ok_or_else(|| {
                    SqlError::Type(format!(
                        "arima_train: bad orders '{raw}' (expected 'p,d,q' or 'p,d,q,D,season')"
                    ))
                })?
            } else {
                ArimaSpec::default()
            };

            // Stream the training series row by row, decoding columns by
            // name — the intermediate result set is never materialized.
            let data = db
                .query_rows(
                    &format!("SELECT {time_col}, {value_col} FROM {source} ORDER BY {time_col}"),
                    &[],
                )?
                .into_named();
            let mut epochs: Vec<i64> = Vec::new();
            let mut values: Vec<f64> = Vec::new();
            for row in data {
                let row = row?;
                epochs.push(match row.raw(&time_col)? {
                    Value::Timestamp(t) => *t,
                    Value::Text(s) => pgfmu_sqlmini::parse_timestamp(s)?,
                    other => {
                        return Err(SqlError::Type(format!(
                            "column \"{time_col}\": {other} is not a timestamp"
                        )))
                    }
                });
                values.push(row.get::<f64>(&value_col)?);
            }
            if epochs.len() < 2 {
                return Err(SqlError::Execution(
                    "arima_train: need at least two samples".into(),
                ));
            }
            let step = epochs[1] - epochs[0];
            let model = Arima::fit(&values, spec).ok_or_else(|| {
                SqlError::Execution(
                    "arima_train: series too short or degenerate for the requested orders".into(),
                )
            })?;

            db.execute(&format!("DROP TABLE IF EXISTS {output}"))?;
            db.execute(&format!(
                "CREATE TABLE {output} (kind text, idx int, value float)"
            ))?;
            let mut rows: Vec<Vec<Value>> = Vec::new();
            let mut push = |kind: &str, idx: i64, value: f64| {
                rows.push(vec![
                    Value::Text(kind.into()),
                    Value::Int(idx),
                    Value::Float(value),
                ]);
            };
            for (k, v) in model.phi.iter().enumerate() {
                push("phi", k as i64, *v);
            }
            for (k, v) in model.theta.iter().enumerate() {
                push("theta", k as i64, *v);
            }
            for (k, v) in [
                spec.p as f64,
                spec.d as f64,
                spec.q as f64,
                spec.seasonal_d as f64,
                spec.season as f64,
                model.mean,
                model.sigma,
                *epochs.last().unwrap() as f64,
                step as f64,
            ]
            .iter()
            .enumerate()
            {
                push("meta", k as i64, *v);
            }
            for (k, v) in model.series.iter().enumerate() {
                push("series", k as i64, *v);
            }
            for (k, v) in model.residuals.iter().enumerate() {
                push("residual", k as i64, *v);
            }
            db.insert_rows(&output, rows)?;
            Ok(Value::Text(output))
        });

    db.udf("arima_forecast")
        .arg("output_table", ArgKind::Text)
        .arg("steps", ArgKind::Int)
        .table(&["time", "value"], |db, args| {
            let table = args.text(0).to_string();
            ident_ok(&table)?;
            let steps = args.i64(1);
            if steps <= 0 || steps > 1_000_000 {
                return Err(SqlError::Type("arima_forecast: steps out of range".into()));
            }
            let model_rows = db.execute(&format!(
                "SELECT kind, idx, value FROM {table} ORDER BY kind, idx"
            ))?;
            let mut phi = Vec::new();
            let mut theta = Vec::new();
            let mut meta = Vec::new();
            let mut series = Vec::new();
            let mut residuals = Vec::new();
            for row in &model_rows.rows {
                let kind = row[0].as_str()?;
                let value = row[2].as_f64()?;
                match kind {
                    "phi" => phi.push(value),
                    "theta" => theta.push(value),
                    "meta" => meta.push(value),
                    "series" => series.push(value),
                    "residual" => residuals.push(value),
                    other => {
                        return Err(SqlError::Execution(format!(
                            "arima_forecast: unknown model row kind '{other}'"
                        )))
                    }
                }
            }
            if meta.len() < 9 {
                return Err(SqlError::Execution(format!(
                    "arima_forecast: '{table}' is not an arima_train output table"
                )));
            }
            let spec = ArimaSpec {
                p: meta[0] as usize,
                d: meta[1] as usize,
                q: meta[2] as usize,
                seasonal_d: meta[3] as usize,
                season: meta[4] as usize,
            };
            let model = Arima {
                spec,
                phi,
                theta,
                mean: meta[5],
                sigma: meta[6],
                series,
                residuals,
            };
            let last_epoch = meta[7] as i64;
            let step = meta[8] as i64;
            let forecast = model.forecast(steps as usize);
            Ok(forecast
                .into_iter()
                .enumerate()
                .map(|(i, v)| {
                    vec![
                        Value::Timestamp(last_epoch + (i as i64 + 1) * step),
                        Value::Float(v),
                    ]
                })
                .collect())
        });

    db.udf("logregr_train")
        .arg("source_table", ArgKind::Text)
        .arg("output_table", ArgKind::Text)
        .arg("dep_col", ArgKind::Text)
        .arg("indep_cols", ArgKind::Text)
        .scalar(|db, args| {
            let source = args.text(0).to_string();
            let output = args.text(1).to_string();
            let dep = args.text(2).to_string();
            let indep_raw = args.text(3).to_string();
            ident_ok(&source)?;
            ident_ok(&output)?;
            ident_ok(&dep)?;
            let indep: Vec<String> = indep_raw
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            if indep.is_empty() {
                return Err(SqlError::Type(
                    "logregr_train: no independent columns given".into(),
                ));
            }
            for c in &indep {
                ident_ok(c)?;
            }
            // Stream the design matrix row by row, reading the dependent
            // and independent columns by name.
            let data = db
                .query_rows(
                    &format!("SELECT {dep}, {} FROM {source}", indep.join(", ")),
                    &[],
                )?
                .into_named();
            let mut labels: Vec<f64> = Vec::new();
            let mut x: Vec<Vec<f64>> = Vec::new();
            for row in data {
                let row = row?;
                labels.push(f64::from(row.get::<f64>(&dep)? > 0.5));
                let features: Vec<f64> = indep
                    .iter()
                    .map(|c| row.get::<f64>(c))
                    .collect::<SqlResult<_>>()?;
                x.push(features);
            }
            let model = LogisticRegression::fit(&x, &labels).ok_or_else(|| {
                SqlError::Execution("logregr_train: fitting failed (degenerate data)".into())
            })?;
            db.execute(&format!("DROP TABLE IF EXISTS {output}"))?;
            db.execute(&format!("CREATE TABLE {output} (idx int, coef float)"))?;
            let rows: Vec<Vec<Value>> = model
                .coefficients
                .iter()
                .enumerate()
                .map(|(i, c)| vec![Value::Int(i as i64), Value::Float(*c)])
                .collect();
            db.insert_rows(&output, rows)?;
            Ok(Value::Text(output))
        });

    db.udf("logregr_prob")
        .arg("output_table", ArgKind::Text)
        .variadic(ArgKind::Float)
        .scalar(|db, args| {
            let table = args.text(0).to_string();
            ident_ok(&table)?;
            let coefficients: Vec<f64> =
                db.query_as(&format!("SELECT coef FROM {table} ORDER BY idx"), &[])?;
            let features: Vec<f64> = args
                .rest(1)
                .iter()
                .map(|v| v.as_f64())
                .collect::<SqlResult<_>>()?;
            if coefficients.is_empty() {
                return Err(SqlError::Type(format!(
                    "logregr_prob: model '{table}' has no coefficients"
                )));
            }
            if coefficients.len() != features.len() + 1 {
                return Err(SqlError::Type(format!(
                    "logregr_prob: model '{table}' expects {} features, got {}",
                    coefficients.len() - 1,
                    features.len()
                )));
            }
            let model = LogisticRegression {
                coefficients,
                iterations: 0,
            };
            Ok(Value::Float(model.predict_prob(&features)))
        });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_series() -> Database {
        let db = Database::new();
        register_udfs(&db);
        db.execute("CREATE TABLE occupants (time timestamp, value float)")
            .unwrap();
        // Period-4 "daily" schedule over 40 days, 1 hour sampling.
        let day = [0.0, 22.0, 25.0, 3.0];
        let mut rows = String::new();
        for i in 0..160 {
            if i > 0 {
                rows.push_str(", ");
            }
            let epoch_h = i;
            rows.push_str(&format!(
                "('2018-04-04 00:00'::timestamp + interval '{epoch_h} hours', {})",
                day[i % 4]
            ));
        }
        db.execute(&format!("INSERT INTO occupants VALUES {rows}"))
            .unwrap();
        db
    }

    #[test]
    fn arima_train_and_forecast_via_sql() {
        let db = db_with_series();
        let out = db
            .execute(
                "SELECT arima_train('occupants', 'occupants_output', 'time', 'value', \
                 '1,0,0,1,4')",
            )
            .unwrap();
        assert_eq!(out.rows[0][0], Value::Text("occupants_output".into()));
        // The output table is inspectable SQL state.
        let n = db.execute("SELECT count(*) FROM occupants_output").unwrap();
        assert!(n.rows[0][0].as_i64().unwrap() > 100);
        let f = db
            .execute("SELECT * FROM arima_forecast('occupants_output', 8)")
            .unwrap();
        assert_eq!(f.len(), 8);
        let day = [0.0, 22.0, 25.0, 3.0];
        for (i, row) in f.rows.iter().enumerate() {
            let v = row[1].as_f64().unwrap();
            let want = day[(160 + i) % 4];
            assert!((v - want).abs() < 1.5, "step {i}: {v} vs {want}");
        }
        // Forecast timestamps continue the hourly grid.
        let t0 = &f.rows[0][0];
        assert_eq!(
            t0.to_string(),
            "2018-04-10 16:00:00",
            "forecast must start one step after the last training sample"
        );
    }

    #[test]
    fn arima_error_paths() {
        let db = db_with_series();
        assert!(db
            .execute("SELECT arima_train('occupants', 'o2', 'time', 'value', 'bad')")
            .is_err());
        assert!(db
            .execute("SELECT arima_train('missing', 'o2', 'time', 'value')")
            .is_err());
        assert!(db
            .execute("SELECT * FROM arima_forecast('occupants', 5)")
            .is_err());
        db.execute("SELECT arima_train('occupants', 'om', 'time', 'value', '1,0,0,1,4')")
            .unwrap();
        assert!(db.execute("SELECT * FROM arima_forecast('om', 0)").is_err());
    }

    #[test]
    fn logistic_train_and_prob_via_sql() {
        let db = Database::new();
        register_udfs(&db);
        db.execute("CREATE TABLE d (label float, a float, b float)")
            .unwrap();
        let mut rows = String::new();
        let mut state = 0.37f64;
        for i in 0..300 {
            state = (state * 997.0 + 0.123).fract();
            let a = state * 4.0;
            state = (state * 997.0 + 0.123).fract();
            let b = state * 4.0;
            let label = f64::from(a + b > 4.0);
            if i > 0 {
                rows.push_str(", ");
            }
            rows.push_str(&format!("({label}, {a}, {b})"));
        }
        db.execute(&format!("INSERT INTO d VALUES {rows}")).unwrap();
        db.execute("SELECT logregr_train('d', 'd_model', 'label', 'a,b')")
            .unwrap();
        let hi = db
            .execute("SELECT logregr_prob('d_model', 3.5, 3.5)")
            .unwrap();
        let lo = db
            .execute("SELECT logregr_prob('d_model', 0.2, 0.2)")
            .unwrap();
        assert!(hi.rows[0][0].as_f64().unwrap() > 0.9);
        assert!(lo.rows[0][0].as_f64().unwrap() < 0.1);
        // In-SQL scoring of a whole table.
        let scored = db
            .execute(
                "SELECT count(*) FROM d WHERE \
                 (logregr_prob('d_model', a, b) >= 0.5) = (label = 1.0)",
            )
            .unwrap();
        let correct = scored.rows[0][0].as_i64().unwrap();
        assert!(correct > 290, "accuracy too low: {correct}/300");
    }

    #[test]
    fn logregr_error_paths() {
        let db = Database::new();
        register_udfs(&db);
        db.execute("CREATE TABLE d (label float, a float)").unwrap();
        db.execute("INSERT INTO d VALUES (1.0, 2.0)").unwrap();
        assert!(db
            .execute("SELECT logregr_train('d', 'm', 'label', '')")
            .is_err());
        assert!(db
            .execute("SELECT logregr_train('d; DROP TABLE d', 'm', 'label', 'a')")
            .is_err());
    }
}
