//! `fmu_simulate` — model simulation with automatic input binding
//! (paper §7, Algorithm 4).

use pgfmu_fmi::{
    InputSeries, InputSet, Interpolation, SimulationOptions, SimulationResult, Variability,
};
use pgfmu_sqlmini::{QueryResult, Row, Rows, Value};

use crate::convert::decode_rows;
use crate::error::{PgFmuError, Result};
use crate::session::Session;

/// A point in time as accepted by `fmu_simulate`'s optional window
/// arguments: an absolute timestamp or relative hours.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimeSpec {
    /// Absolute epoch seconds (timestamp literals).
    Epoch(i64),
    /// Hours on the model's simulation axis.
    Hours(f64),
}

impl TimeSpec {
    /// Decode from a SQL value.
    pub fn from_value(v: &Value) -> Result<TimeSpec> {
        match v {
            Value::Timestamp(t) => Ok(TimeSpec::Epoch(*t)),
            Value::Text(s) => Ok(TimeSpec::Epoch(
                pgfmu_sqlmini::parse_timestamp(s).map_err(PgFmuError::Sql)?,
            )),
            Value::Int(i) => Ok(TimeSpec::Hours(*i as f64)),
            Value::Float(f) => Ok(TimeSpec::Hours(*f)),
            other => Err(PgFmuError::Usage(format!(
                "cannot interpret {other} as a simulation time"
            ))),
        }
    }
}

/// Streaming long-format output of one simulation: yields the
/// `(simulationtime, instanceid, varname, value)` rows of paper Table 4
/// one at a time, in time-major order, straight from the solver's
/// trajectories — no intermediate `Vec<Row>` is built.
pub struct SimRows {
    result: SimulationResult,
    instance_id: String,
    anchor_epoch: i64,
    /// Next grid point.
    k: usize,
    /// Next variable at that grid point.
    v: usize,
}

impl Iterator for SimRows {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        if self.k >= self.result.len() || self.result.names().is_empty() {
            return None;
        }
        let t = self.result.times()[self.k];
        let name = &self.result.names()[self.v];
        let value = self.result.series_at(self.v)[self.k];
        let row = vec![
            Value::Timestamp(self.anchor_epoch + (t * 3600.0).round() as i64),
            Value::Text(self.instance_id.clone()),
            Value::Text(name.clone()),
            Value::Float(value),
        ];
        self.v += 1;
        if self.v >= self.result.names().len() {
            self.v = 0;
            self.k += 1;
        }
        Some(row)
    }
}

/// The output columns of `fmu_simulate` (paper Table 4).
pub(crate) const SIM_COLUMNS: &[&str] = &["simulationtime", "instanceid", "varname", "value"];

/// Execute `fmu_simulate` and return the long output table
/// `(simulationtime, instanceid, varname, value)` of paper Table 4.
pub fn run_simulate(
    session: &Session,
    instance_id: &str,
    input_sql: Option<&str>,
    time_from: Option<TimeSpec>,
    time_to: Option<TimeSpec>,
) -> Result<QueryResult> {
    let rows = run_simulate_rows(session, instance_id, input_sql, time_from, time_to)?;
    rows.into_result().map_err(PgFmuError::Sql)
}

/// Execute `fmu_simulate`, streaming the long output table through a
/// row-producing cursor: the solver result is rendered to SQL rows only
/// as the consumer iterates.
pub fn run_simulate_rows(
    session: &Session,
    instance_id: &str,
    input_sql: Option<&str>,
    time_from: Option<TimeSpec>,
    time_to: Option<TimeSpec>,
) -> Result<Rows<'static>> {
    let (fmu, inst) = session.catalog.instantiate(instance_id)?;
    let de = fmu.description.default_experiment;

    // Stage 1 (Algorithm 4): build the input object from the input SQL,
    // mapping columns to input variables via meta-data. The input result
    // set streams through the lazy cursor into the one-pass decoder.
    let (inputs, anchor_epoch, data_window, data_step) = match input_sql {
        Some(sql) => {
            let result_rows = session.db.query_rows(sql, &[])?;
            let cols = result_rows.columns().to_vec();
            let decoded = decode_rows(&cols, result_rows)?;
            let mut series = Vec::new();
            for input in fmu.input_names() {
                let col = decoded
                    .columns
                    .iter()
                    .find(|(n, _)| n == input)
                    .map(|(_, c)| c.clone())
                    .ok_or_else(|| {
                        PgFmuError::Fmi(pgfmu_fmi::FmiError::Simulation(format!(
                            "insufficient model input time series: input query \
                             has no column for input '{input}'"
                        )))
                    })?;
                let var = fmu.description.variable(input)?;
                let interp = match var.variability {
                    Variability::Discrete => Interpolation::Hold,
                    _ => Interpolation::Linear,
                };
                series.push(InputSeries::new(
                    input.clone(),
                    decoded.times_hours.clone(),
                    col,
                    interp,
                )?);
            }
            let names: Vec<&str> = fmu.input_names().iter().map(|s| s.as_str()).collect();
            let set = InputSet::bind(&names, series)?;
            let window = (decoded.times_hours[0], *decoded.times_hours.last().unwrap());
            let step = if decoded.times_hours.len() > 1 {
                decoded.times_hours[1] - decoded.times_hours[0]
            } else {
                de.step_size
            };
            (set, decoded.anchor_epoch, Some(window), step)
        }
        None => {
            if !fmu.input_names().is_empty() {
                return Err(PgFmuError::Fmi(pgfmu_fmi::FmiError::Simulation(format!(
                    "insufficient model input time series: model '{}' has \
                     inputs but no input query was provided",
                    fmu.name()
                ))));
            }
            // Anchor on the requested start when it is an absolute time.
            let anchor = match time_from {
                Some(TimeSpec::Epoch(t)) => t,
                _ => 0,
            };
            (InputSet::empty(), anchor, None, de.step_size)
        }
    };

    let to_hours = |spec: TimeSpec| match spec {
        TimeSpec::Epoch(t) => (t - anchor_epoch) as f64 / 3600.0,
        TimeSpec::Hours(h) => h,
    };
    // Window resolution (§7): user window, else the data window, else the
    // model's default experiment.
    let start = time_from
        .map(to_hours)
        .unwrap_or_else(|| data_window.map(|(s, _)| s).unwrap_or(de.start_time));
    let stop = time_to
        .map(to_hours)
        .unwrap_or_else(|| data_window.map(|(_, e)| e).unwrap_or(de.stop_time));

    // Stage 2: simulate.
    let result = inst.simulate(
        &inputs,
        &SimulationOptions {
            start: Some(start),
            stop: Some(stop),
            output_step: Some(data_step),
            ..Default::default()
        },
    )?;

    // Persist the final simulated state back into the catalogue (the
    // paper's italic `ModelInstanceValues` update after fmu_simulate).
    // States are the first `n_states` reported series, so no by-name
    // series search is needed.
    for (i, name) in fmu.state_names().iter().enumerate() {
        if let Some(last) = result.series_at(i).last() {
            session.catalog.set_value(instance_id, name, *last)?;
        }
    }

    Ok(Rows::streamed(
        SIM_COLUMNS.iter().map(|c| c.to_string()).collect(),
        SimRows {
            result,
            instance_id: instance_id.to_string(),
            anchor_epoch,
            k: 0,
            v: 0,
        }
        .map(Ok),
    ))
}
