//! End-to-end tests of the pgFMU SQL surface, mirroring the paper's
//! example queries (§5–§7).

use pgfmu::{EstimationConfig, PgFmu, Value};
use pgfmu_datagen::hp::hp1_dataset;

/// A session with a fast estimation configuration and the HP1 measurement
/// table loaded (72 hourly samples — enough for parameter recovery while
/// keeping tests quick).
fn session_with_measurements() -> PgFmu {
    let s = PgFmu::new().unwrap();
    s.set_estimation_config(EstimationConfig::fast());
    let data = hp1_dataset(1).slice(0, 72);
    data.load_into(s.db(), "measurements").unwrap();
    s
}

#[test]
fn fmu_create_from_builtin_name() {
    let s = PgFmu::new().unwrap();
    let q = s
        .execute("SELECT fmu_create('HP1', 'HP1Instance1')")
        .unwrap();
    assert_eq!(q.rows[0][0], Value::Text("HP1Instance1".into()));
    // Catalogue rows materialized (Figure 4).
    let models = s.execute("SELECT count(*) FROM model").unwrap();
    assert_eq!(models.rows[0][0], Value::Int(1));
    let vars = s.execute("SELECT count(*) FROM modelvariable").unwrap();
    assert_eq!(vars.rows[0][0], Value::Int(8));
    let vals = s
        .execute("SELECT count(*) FROM modelinstancevalues")
        .unwrap();
    assert_eq!(vals.rows[0][0], Value::Int(6)); // 5 params + 1 state
}

#[test]
fn fmu_create_from_inline_modelica() {
    let s = PgFmu::new().unwrap();
    let q = s
        .execute(
            "SELECT fmu_create('model heatpump \
               parameter Real A(min=-10, max=10) = 0; \
               parameter Real B(min=-20, max=20) = 0; \
               parameter Real E(min=-20, max=20) = 0; \
               parameter Real C = 0; parameter Real D = 7.8; \
               input Real u(min=0, max=1); output Real y; \
               Real x(start = 20.75); \
             equation der(x) = A*x + B*u + E; y = C*x + D*u; end heatpump;', \
             'HP0Instance1')",
        )
        .unwrap();
    assert_eq!(q.rows[0][0], Value::Text("HP0Instance1".into()));
}

#[test]
fn fmu_create_tolerates_swapped_argument_order() {
    // The paper's §5 second example passes (instanceId, modelRef).
    let s = PgFmu::new().unwrap();
    let q = s.execute("SELECT fmu_create('MyInstance', 'HP0')").unwrap();
    assert_eq!(q.rows[0][0], Value::Text("MyInstance".into()));
}

#[test]
fn fmu_copy_shares_the_parent_model() {
    let s = PgFmu::new().unwrap();
    s.execute("SELECT fmu_create('HP1', 'HP1Instance1')")
        .unwrap();
    let q = s
        .execute("SELECT fmu_copy('HP1Instance1', 'HP1Instance2')")
        .unwrap();
    assert_eq!(q.rows[0][0], Value::Text("HP1Instance2".into()));
    // Still exactly one model in the catalogue and in FMU storage.
    let models = s.execute("SELECT count(*) FROM model").unwrap();
    assert_eq!(models.rows[0][0], Value::Int(1));
    let instances = s.execute("SELECT count(*) FROM modelinstance").unwrap();
    assert_eq!(instances.rows[0][0], Value::Int(2));
}

#[test]
fn fmu_variables_filtered_to_parameters_matches_table3() {
    let s = PgFmu::new().unwrap();
    s.execute("SELECT fmu_create('heatpump', 'HP1Instance1')")
        .unwrap();
    let q = s
        .execute(
            "SELECT * FROM fmu_variables('HP1Instance1') AS f \
             WHERE f.varType = 'parameter' ORDER BY f.varName",
        )
        .unwrap();
    assert_eq!(
        q.columns,
        vec![
            "instanceid",
            "varname",
            "vartype",
            "initialvalue",
            "minvalue",
            "maxvalue"
        ]
    );
    let names: Vec<String> = q.rows.iter().map(|r| r[1].to_string()).collect();
    assert_eq!(names, ["A", "B", "C", "D", "E"]);
    // Paper Table 3: A has bounds [-10, 10] and initial value 0.
    let a = &q.rows[0];
    assert_eq!(a[3], Value::Float(0.0));
    assert_eq!(a[4], Value::Float(-10.0));
    assert_eq!(a[5], Value::Float(10.0));
}

#[test]
fn set_initial_min_max_get_and_reset() {
    let s = PgFmu::new().unwrap();
    s.execute("SELECT fmu_create('heatpump', 'HP1Instance1')")
        .unwrap();
    // Paper §5 example queries.
    s.execute("SELECT fmu_set_initial('HP1Instance1', 'A', 0)")
        .unwrap();
    s.execute("SELECT fmu_set_minimum('HP1Instance1', 'A', -10)")
        .unwrap();
    s.execute("SELECT fmu_set_maximum('HP1Instance1', 'A', 10)")
        .unwrap();
    s.execute("SELECT fmu_set_initial('HP1Instance1', 'A', 3.5)")
        .unwrap();
    let q = s
        .execute("SELECT * FROM fmu_get('HP1Instance1', 'A')")
        .unwrap();
    assert_eq!(q.columns, vec!["initialvalue", "minvalue", "maxvalue"]);
    assert_eq!(q.rows[0][0], Value::Float(3.5));
    s.execute("SELECT fmu_reset('HP1Instance1')").unwrap();
    let q = s
        .execute("SELECT * FROM fmu_get('HP1Instance1', 'A')")
        .unwrap();
    assert_eq!(q.rows[0][0], Value::Float(0.0));
}

#[test]
fn non_finite_values_round_trip_through_the_catalogue() {
    // The catalogue binds its values: NaN and ±infinity must never be
    // spelled into SQL text, where they would lex as column names.
    let s = PgFmu::new().unwrap();
    s.execute("SELECT fmu_create('HP1', 'i')").unwrap();
    for text in ["NaN", "Infinity", "-Infinity"] {
        for udf in ["fmu_set_initial", "fmu_set_minimum", "fmu_set_maximum"] {
            s.execute(&format!("SELECT {udf}('i', 'Cp', '{text}'::float)"))
                .unwrap();
        }
        let want: f64 = text.parse().unwrap();
        let same = |v: &Value| {
            let got = v.as_f64().unwrap();
            got == want || (got.is_nan() && want.is_nan())
        };
        let get = s.execute("SELECT * FROM fmu_get('i', 'Cp')").unwrap();
        let listed = s
            .execute(
                "SELECT initialvalue, minvalue, maxvalue FROM fmu_variables('i') AS f \
                 WHERE f.varname = 'Cp'",
            )
            .unwrap();
        for row in [&get.rows[0], &listed.rows[0]] {
            assert!(row.iter().all(same), "{text}: {row:?}");
        }
    }
}

#[test]
fn fmu_variables_keep_declaration_order_after_updates() {
    let s = PgFmu::new().unwrap();
    s.execute("SELECT fmu_create('HP1', 'i')").unwrap();
    let names = || -> Vec<String> {
        let q = s.execute("SELECT varname FROM fmu_variables('i')").unwrap();
        q.rows.iter().map(|r| r[0].to_string()).collect()
    };
    let declared = ["Cp", "R", "P", "eta", "theta_a", "x", "u", "y"];
    assert_eq!(names(), declared);
    // An updated catalogue row moves to the end of an unordered scan;
    // the listing must not follow it.
    s.execute("BEGIN").unwrap();
    s.execute("SELECT fmu_set_minimum('i', 'R', 0.5)").unwrap();
    s.execute("COMMIT").unwrap();
    assert_eq!(names(), declared);
    s.execute("SELECT fmu_set_maximum('i', 'Cp', 9.0)").unwrap();
    s.execute("SELECT fmu_set_initial('i', 'P', 2.0)").unwrap();
    assert_eq!(names(), declared);
}

#[test]
fn delete_instance_and_model() {
    let s = PgFmu::new().unwrap();
    s.execute("SELECT fmu_create('HP1', 'a')").unwrap();
    s.execute("SELECT fmu_copy('a', 'b')").unwrap();
    s.execute("SELECT fmu_delete_instance('a')").unwrap();
    assert!(s.execute("SELECT * FROM fmu_variables('a')").is_err());
    // Deleting the model by name cascades to 'b'.
    s.execute("SELECT fmu_delete_model('HP1')").unwrap();
    assert!(s.execute("SELECT * FROM fmu_variables('b')").is_err());
    let q = s.execute("SELECT count(*) FROM modelinstance").unwrap();
    assert_eq!(q.rows[0][0], Value::Int(0));
}

#[test]
fn fmu_simulate_long_output_matches_table4_shape() {
    let s = session_with_measurements();
    s.execute("SELECT fmu_create('HP1', 'HP1Instance1')")
        .unwrap();
    let q = s
        .execute(
            "SELECT simulationTime, instanceId, varName, value \
             FROM fmu_simulate('HP1Instance1', 'SELECT * FROM measurements') \
             WHERE varName IN ('y', 'x')",
        )
        .unwrap();
    // 72 grid points x 2 variables.
    assert_eq!(q.len(), 144);
    assert_eq!(q.rows[0][1], Value::Text("HP1Instance1".into()));
    assert_eq!(q.rows[0][2], Value::Text("x".into()));
    // Simulation times are real timestamps from the measurement grid.
    assert_eq!(q.rows[0][0].to_string(), "2015-02-01 00:00:00");
    // fmu_simulate persists the final state back into the catalogue
    // (the paper's italic ModelInstanceValues update).
    let x = s
        .execute(
            "SELECT value FROM modelinstancevalues \
             WHERE instanceid = 'HP1Instance1' AND varname = 'x'",
        )
        .unwrap();
    assert_ne!(x.rows[0][0], Value::Float(20.75));
}

#[test]
fn fmu_simulate_multi_instance_lateral_join() {
    let s = session_with_measurements();
    s.execute("SELECT fmu_create('HP1', 'HP1Instance1')")
        .unwrap();
    s.execute("SELECT fmu_copy('HP1Instance1', 'HP1Instance2')")
        .unwrap();
    s.execute("SELECT fmu_copy('HP1Instance1', 'HP1Instance3')")
        .unwrap();
    // The paper's §7 multi-instance pattern.
    let q = s
        .execute(
            "SELECT * FROM generate_series(1, 3) AS id, \
             LATERAL fmu_simulate('HP1Instance' || id::text, \
                                  'SELECT * FROM measurements') AS f \
             WHERE f.varName = 'x'",
        )
        .unwrap();
    assert_eq!(q.len(), 3 * 72);
}

#[test]
fn fmu_simulate_time_window() {
    let s = session_with_measurements();
    s.execute("SELECT fmu_create('HP1', 'i')").unwrap();
    let q = s
        .execute(
            "SELECT * FROM fmu_simulate('i', 'SELECT * FROM measurements', \
             timestamp '2015-02-01 10:00', timestamp '2015-02-01 20:00') \
             WHERE varname = 'x'",
        )
        .unwrap();
    assert_eq!(q.len(), 11);
    assert_eq!(q.rows[0][0].to_string(), "2015-02-01 10:00:00");
    assert_eq!(q.rows[10][0].to_string(), "2015-02-01 20:00:00");
}

#[test]
fn fmu_simulate_without_inputs_uses_default_experiment() {
    let s = PgFmu::new().unwrap();
    s.execute("SELECT fmu_create('HP0', 'h')").unwrap();
    let q = s
        .execute("SELECT * FROM fmu_simulate('h') WHERE varname = 'x'")
        .unwrap();
    // HP0's default experiment: 0..24h at 1h steps.
    assert_eq!(q.len(), 25);
}

#[test]
fn fmu_simulate_error_paths() {
    let s = session_with_measurements();
    s.execute("SELECT fmu_create('HP1', 'i')").unwrap();
    // Model has inputs but no input query.
    let err = s.execute("SELECT * FROM fmu_simulate('i')").unwrap_err();
    assert!(err.to_string().contains("insufficient"), "{err}");
    // Window outside the provided series.
    let err = s
        .execute(
            "SELECT * FROM fmu_simulate('i', 'SELECT * FROM measurements', \
             timestamp '2015-03-01 00:00', timestamp '2015-03-02 00:00')",
        )
        .unwrap_err();
    assert!(err.to_string().contains("insufficient"), "{err}");
    // Reversed window.
    let err = s
        .execute(
            "SELECT * FROM fmu_simulate('i', 'SELECT * FROM measurements', \
             timestamp '2015-02-01 10:00', timestamp '2015-02-01 10:00')",
        )
        .unwrap_err();
    assert!(err.to_string().contains("incomplete"), "{err}");
    // Unknown instance.
    assert!(s.execute("SELECT * FROM fmu_simulate('ghost')").is_err());
}

#[test]
fn fmu_parest_single_instance_recovers_parameters() {
    let s = session_with_measurements();
    s.execute("SELECT fmu_create('HP1', 'HP1Instance1')")
        .unwrap();
    // Paper §6 example (estimating a subset of parameters by name).
    let q = s
        .execute(
            "SELECT fmu_parest('{HP1Instance1}', \
             '{SELECT * FROM measurements}', '{Cp, R}')",
        )
        .unwrap();
    let rmse = q.rows[0][0].as_f64().unwrap();
    assert!(rmse < 1.0, "estimation rmse too large: {rmse}");
    // The catalogue now holds the estimated values (italic rows in the
    // paper's Figure 4): near the ground truth Cp = R = 1.5.
    let cp = s
        .execute(
            "SELECT value FROM modelinstancevalues \
             WHERE instanceid = 'HP1Instance1' AND varname = 'Cp'",
        )
        .unwrap();
    let cp = cp.rows[0][0].as_f64().unwrap();
    assert!((cp - 1.5).abs() < 0.4, "Cp estimate {cp}");
}

#[test]
fn fmu_parest_defaults_to_all_tunable_parameters() {
    let s = session_with_measurements();
    s.execute("SELECT fmu_create('HP1', 'i')").unwrap();
    let q = s
        .execute("SELECT fmu_parest('i', 'SELECT * FROM measurements')")
        .unwrap();
    assert!(q.rows[0][0].as_f64().unwrap() < 1.5);
}

#[test]
fn fmu_parest_multi_instance_uses_lo_for_similar_datasets() {
    let s = session_with_measurements();
    s.execute("SELECT fmu_create('HP1', 'HP1Instance1')")
        .unwrap();
    s.execute("SELECT fmu_copy('HP1Instance1', 'HP1Instance2')")
        .unwrap();
    // A 5%-scaled second dataset (similar under the 20% threshold).
    let scaled = pgfmu_datagen::scale_dataset(&hp1_dataset(1).slice(0, 72), 1.05);
    scaled.load_into(s.db(), "measurements2").unwrap();

    let q = s
        .execute(
            "SELECT * FROM fmu_parest_report('{HP1Instance1, HP1Instance2}', \
             '{SELECT * FROM measurements, SELECT * FROM measurements2}', '{Cp, R}')",
        )
        .unwrap();
    assert_eq!(q.len(), 2);
    assert_eq!(q.rows[0][2], Value::Text("G+LaG".into()));
    assert_eq!(q.rows[1][2], Value::Text("LO".into()));
    // LO spends far fewer objective evaluations.
    let full = q.rows[0][3].as_i64().unwrap() + q.rows[0][4].as_i64().unwrap();
    let lo = q.rows[1][3].as_i64().unwrap() + q.rows[1][4].as_i64().unwrap();
    assert!(lo * 2 < full, "LO {lo} vs full {full}");
}

#[test]
fn fmu_parest_mi_disabled_runs_full_pipeline_everywhere() {
    let s = session_with_measurements();
    s.execute("SELECT fmu_create('HP1', 'a')").unwrap();
    s.execute("SELECT fmu_copy('a', 'b')").unwrap();
    s.set_mi_enabled(false); // pgFMU− configuration
    let q = s
        .execute(
            "SELECT * FROM fmu_parest_report('{a, b}', \
             '{SELECT * FROM measurements, SELECT * FROM measurements}', '{Cp, R}')",
        )
        .unwrap();
    assert_eq!(q.rows[0][2], Value::Text("G+LaG".into()));
    assert_eq!(q.rows[1][2], Value::Text("G+LaG".into()));
    // The SQL switch flips it back on.
    s.execute("SELECT fmu_mi_optimization('on')").unwrap();
    assert!(s.mi_enabled());
}

#[test]
fn fmu_parest_dissimilar_dataset_falls_back_to_global() {
    let s = session_with_measurements();
    s.execute("SELECT fmu_create('HP1', 'a')").unwrap();
    s.execute("SELECT fmu_copy('a', 'b')").unwrap();
    let scaled = pgfmu_datagen::scale_dataset(&hp1_dataset(1).slice(0, 72), 1.6);
    scaled.load_into(s.db(), "m_far").unwrap();
    let q = s
        .execute(
            "SELECT * FROM fmu_parest_report('{a, b}', \
             '{SELECT * FROM measurements, SELECT * FROM m_far}', '{Cp, R}')",
        )
        .unwrap();
    assert_eq!(q.rows[1][2], Value::Text("G+LaG".into()));
}

#[test]
fn fmu_parest_error_paths() {
    let s = session_with_measurements();
    s.execute("SELECT fmu_create('HP1', 'i')").unwrap();
    // Mismatched arrays.
    let err = s
        .execute(
            "SELECT fmu_parest('{i}', \
             '{SELECT * FROM measurements, SELECT * FROM measurements, \
               SELECT * FROM measurements}')",
        )
        .unwrap_err();
    assert!(err.to_string().contains("input queries"), "{err}");
    // Unknown instance.
    assert!(s
        .execute("SELECT fmu_parest('ghost', 'SELECT * FROM measurements')")
        .is_err());
    // Unknown parameter.
    assert!(s
        .execute("SELECT fmu_parest('i', 'SELECT * FROM measurements', '{Zp}')")
        .is_err());
    // Input query with no matching columns.
    s.execute("CREATE TABLE junk (ts timestamp, foo float)")
        .unwrap();
    s.execute("INSERT INTO junk VALUES ('2015-02-01 00:00', 1.0), ('2015-02-01 01:00', 2.0)")
        .unwrap();
    assert!(s
        .execute("SELECT fmu_parest('i', 'SELECT * FROM junk', '{Cp}')")
        .is_err());
}

#[test]
fn fmu_control_heats_toward_setpoint() {
    let s = PgFmu::new().unwrap();
    s.execute("SELECT fmu_create('HP1', 'i')").unwrap();
    // Start cold; ask the controller to reach 18 degrees over 12 hours.
    s.execute("SELECT fmu_set_initial('i', 'x', 5.0)").unwrap();
    let q = s
        .execute("SELECT * FROM fmu_control('i', 'u', 12.0, 6, 18.0, 0.001)")
        .unwrap();
    assert_eq!(q.len(), 6);
    let us: Vec<f64> = q.rows.iter().map(|r| r[1].as_f64().unwrap()).collect();
    assert!(us.iter().all(|u| (0.0..=1.0).contains(u)));
    // Heating must be substantial to climb from 5 toward 18 degrees.
    let mean_u = us.iter().sum::<f64>() / us.len() as f64;
    assert!(mean_u > 0.5, "controller barely heats: {us:?}");
}

#[test]
fn export_predictions_back_into_a_table() {
    // Figure 1 step 6 as a single INSERT..SELECT — no external tool.
    let s = session_with_measurements();
    s.execute("SELECT fmu_create('HP1', 'i')").unwrap();
    s.execute(
        "CREATE TABLE predictions (ts timestamp, instanceid text, varname text, value float)",
    )
    .unwrap();
    s.execute(
        "INSERT INTO predictions \
         SELECT * FROM fmu_simulate('i', 'SELECT * FROM measurements') \
         WHERE varname = 'x'",
    )
    .unwrap();
    let q = s.execute("SELECT count(*) FROM predictions").unwrap();
    assert_eq!(q.rows[0][0], Value::Int(72));
    // Further analysis in plain SQL (Figure 1 step 7).
    let q = s
        .execute("SELECT avg(value), min(value), max(value) FROM predictions")
        .unwrap();
    let avg = q.rows[0][0].as_f64().unwrap();
    assert!((0.0..25.0).contains(&avg), "implausible mean temp {avg}");
}

#[test]
fn prepared_binds_drive_udf_reentrant_estimation() {
    // The full extended-protocol path from the session surface: a prepared
    // statement whose binds include the input_sql that fmu_parest executes
    // re-entrantly — no literal quoting anywhere.
    let s = session_with_measurements();
    s.query(
        "SELECT fmu_create($1, $2)",
        pgfmu::params!["HP1", "HP1Instance1"],
    )
    .unwrap();
    let parest = s.prepare("SELECT fmu_parest($1, $2, $3)").unwrap();
    assert_eq!(parest.n_params(), 3);
    let q = parest
        .query(pgfmu::params![
            "HP1Instance1",
            "SELECT * FROM measurements",
            "{Cp, R}"
        ])
        .unwrap();
    assert!(q.rows[0][0].as_f64().unwrap() < 1.0);

    // Re-executing the same handle re-enters without re-parsing, and the
    // statement cache hit is observable through pgfmu_stats().
    let hits_before: Vec<i64> = s
        .query_as(
            "SELECT value FROM pgfmu_stats() WHERE stat = $1",
            pgfmu::params!["cache_hits"],
        )
        .unwrap();
    parest
        .query(pgfmu::params![
            "HP1Instance1",
            "SELECT * FROM measurements WHERE x IS NOT NULL",
            "{Cp, R}"
        ])
        .unwrap();
    let hits_after: Vec<i64> = s
        .query_as(
            "SELECT value FROM pgfmu_stats() WHERE stat = $1",
            pgfmu::params!["cache_hits"],
        )
        .unwrap();
    // The re-entrant input_sql and the stats query itself both hit the
    // cache on their second run.
    assert!(hits_after[0] > hits_before[0]);

    // Typed decoding of a catalogue join, through the same bound surface.
    let rows: Vec<(String, f64)> = s
        .query_as(
            "SELECT varname, value FROM modelinstancevalues \
             WHERE instanceid = $1 AND varname = $2",
            pgfmu::params!["HP1Instance1", "Cp"],
        )
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].0, "Cp");
    assert!((rows[0].1 - 1.5).abs() < 0.4, "Cp estimate {}", rows[0].1);
}

#[test]
fn every_set_returning_function_reports_its_declared_columns() {
    let s = session_with_measurements();
    s.execute("SELECT fmu_create('HP1', 'i')").unwrap();
    // A short periodic series for arima_forecast's model table.
    s.execute("CREATE TABLE occ (time timestamp, value float)")
        .unwrap();
    let rows: Vec<String> = (0..40)
        .map(|h| format!("(timestamp '2018-04-04' + interval '{h} hours', {})", h % 4))
        .collect();
    s.execute(&format!("INSERT INTO occ VALUES {}", rows.join(", ")))
        .unwrap();
    s.execute("SELECT arima_train('occ', 'occ_model', 'time', 'value', '1,0,0')")
        .unwrap();
    s.execute("CREATE TABLE nothing (id text)").unwrap();
    let sim: &[&str] = &["simulationtime", "instanceid", "varname", "value"];
    let parest: &[&str] = &[
        "instanceid",
        "estimationerror",
        "strategy",
        "globalevals",
        "localevals",
    ];
    let input = "'SELECT * FROM measurements'";
    let cases: [(&str, String, &[&str]); 8] = [
        (
            "fmu_variables",
            "'i'".into(),
            &[
                "instanceid",
                "varname",
                "vartype",
                "initialvalue",
                "minvalue",
                "maxvalue",
            ],
        ),
        (
            "fmu_get",
            "'i', 'Cp'".into(),
            &["initialvalue", "minvalue", "maxvalue"],
        ),
        ("fmu_simulate", format!("'i', {input}"), sim),
        ("fmu_simulate_fleet", format!("'{{i}}', {input}"), sim),
        ("fmu_parest_report", format!("'{{i}}', {input}"), parest),
        ("fmu_parest_fleet", format!("'{{i}}', {input}"), parest),
        (
            "fmu_control",
            "'i', 'u', 12.0, 6, 18.0".into(),
            &["hours", "value"],
        ),
        (
            "arima_forecast",
            "'occ_model', 3".into(),
            &["time", "value"],
        ),
    ];
    for (name, args, columns) in cases {
        let q = s.execute(&format!("SELECT * FROM {name}({args})")).unwrap();
        assert_eq!(q.columns, columns, "{name}");
        assert!(!q.rows.is_empty(), "{name}");
        // Laterally over an empty table the function never runs.
        let q = s
            .execute(&format!("SELECT {name}.* FROM nothing, {name}({args})"))
            .unwrap();
        assert_eq!(q.columns, columns, "{name} without rows");
        assert!(q.rows.is_empty(), "{name}");
    }
}
