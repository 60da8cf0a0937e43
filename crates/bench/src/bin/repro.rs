//! `repro` — regenerate every table and figure of the pgFMU paper.
//!
//! ```text
//! repro [EXPERIMENT…] [--full] [--instances N]
//!
//! EXPERIMENT: table1 table2 table3 table4 table7 table8 fig6 fig7 fig8
//!             madlib grouped  (default: all)
//! --full        paper-scale workloads (100 instances, full datasets)
//! --instances N override the MI instance count
//! ```
//!
//! An unknown experiment name or flag, or a flag missing its value,
//! prints the usage and exits with status 2.

use std::io::Write;

use pgfmu_bench::report::{fmt_secs, median_ns, render, timed};
use pgfmu_bench::setup::{bench_session, ModelKind, ALL_MODELS};
use pgfmu_bench::{fig6, fig7, fig8, grouped, madlib, table1, table2, table7, table8, Profile};

/// Every experiment name `repro` accepts, in run order.
const EXPERIMENTS: &[&str] = &[
    "table1", "table2", "table3", "table4", "table7", "table8", "fig6", "fig7", "fig8", "madlib",
    "grouped",
];

/// Report a bad command line with the usage and exit with status 2.
fn usage_error(problem: &str) -> ! {
    eprintln!(
        "repro: {problem}\nusage: repro [EXPERIMENT…] [--full] [--instances N]\n\
         EXPERIMENT: {}",
        EXPERIMENTS.join(" ")
    );
    std::process::exit(2);
}

/// Write one line of the report to standard output. When the reader has
/// gone (`repro … | head`), end the run quietly with status 0; any other
/// write error ends it with status 1 and one line on stderr.
fn emit(line: std::fmt::Arguments<'_>) {
    if let Err(e) = writeln!(std::io::stdout(), "{line}") {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("repro: cannot write to standard output: {e}");
        std::process::exit(1);
    }
}

/// `println!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut profile = if args.iter().any(|a| a == "--full") {
        Profile::full()
    } else {
        Profile::quick()
    };
    let mut wanted: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => {}
            "--instances" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => profile.mi_instances = n,
                None => usage_error("--instances needs a count"),
            },
            name if EXPERIMENTS.contains(&name) => wanted.push(name),
            other => usage_error(&format!("unknown experiment or flag '{other}'")),
        }
    }
    let run_all = wanted.is_empty();
    let want = |name: &str| run_all || wanted.contains(&name);

    out!(
        "pgFMU-rs experiment reproduction — profile: {} instances, {} HP samples, {} classroom samples\n",
        profile.mi_instances, profile.hp_samples, profile.classroom_samples
    );

    if want("table1") {
        run_table1();
    }
    if want("table2") {
        run_table2();
    }
    if want("table3") {
        run_table3();
    }
    if want("table4") {
        run_table4();
    }
    if want("table7") {
        run_table7(&profile);
    }
    if want("table8") {
        run_table8(&profile);
    }
    if want("fig6") {
        run_fig6(&profile);
    }
    if want("fig7") {
        run_fig7(&profile);
    }
    if want("fig8") {
        run_fig8(&profile);
    }
    if want("madlib") {
        run_madlib(&profile);
    }
    if want("grouped") {
        run_grouped(&profile);
    }
}

/// Per-day energy rollup over simulated HP1 output, grouped in SQL vs the
/// client-side fold it replaces.
fn run_grouped(profile: &Profile) {
    out!("== Grouped rollup: per-day HP1 output energy (GROUP BY / HAVING) ==");
    let session = grouped::simulated_session(profile);
    let days = grouped::per_day_energy(&session, 0.0);
    let rows: Vec<Vec<String>> = days
        .iter()
        .map(|d| {
            vec![
                d.day.to_string(),
                format!("{:.2}", d.energy_kwh),
                d.samples.to_string(),
            ]
        })
        .collect();
    out!("{}", render(&["day", "energy kWh", "samples"], &rows));
    let sql_ns = median_ns(20, || {
        timed(|| {
            grouped::per_day_energy(&session, 0.0);
        })
    });
    let client_ns = median_ns(20, || {
        timed(|| {
            grouped::per_day_energy_client_side(&session, 0.0);
        })
    });
    out!(
        "one grouped statement: {} | client-side fold: {} ({:.1}x)\n",
        fmt_secs(sql_ns / 1e9),
        fmt_secs(client_ns / 1e9),
        client_ns / sql_ns
    );
}

fn run_table1() {
    out!("== Table 1: workflow operations, lines of code ==");
    let c = table1::run();
    let mut rows: Vec<Vec<String>> = c
        .rows
        .iter()
        .map(|r| {
            vec![
                r.operation.to_string(),
                r.python_lines.to_string(),
                if r.pgfmu_lines == 0 {
                    "-".into()
                } else {
                    r.pgfmu_lines.to_string()
                },
            ]
        })
        .collect();
    rows.push(vec![
        "Total".into(),
        c.python_total().to_string(),
        c.pgfmu_total().to_string(),
    ]);
    out!("{}", render(&["Operation", "Traditional", "pgFMU"], &rows));
    out!(
        "reduction: {:.1}x fewer lines (paper: ~22x)\n",
        c.reduction()
    );
}

fn run_table2() {
    out!("== Table 2: in-DBMS analytics tool comparison (probed live) ==");
    let rows: Vec<Vec<String>> = table2::run()
        .into_iter()
        .map(|r| {
            vec![
                r.feature.to_string(),
                r.madlib.to_string(),
                r.mssql.to_string(),
                r.pgfmu,
            ]
        })
        .collect();
    out!(
        "{}",
        render(&["Feature", "MADlib", "MS SQL ML", "pgFMU-rs"], &rows)
    );
    out!("(the paper marks pgFMU's in-DBMS ML as absent; this reproduction bundles it)\n");
}

fn run_table3() {
    out!("== Table 3: fmu_variables output (parameters of HP1Instance1) ==");
    let bench = bench_session(ModelKind::Hp1, &Profile::test());
    let q = bench
        .session
        .execute(
            "SELECT * FROM fmu_variables('HP1Instance1') AS f \
             WHERE f.varType = 'parameter' ORDER BY f.varName",
        )
        .unwrap();
    out!("{}", q.to_ascii());
}

fn run_table4() {
    out!("== Table 4: fmu_simulate output (first rows) ==");
    let bench = bench_session(ModelKind::Hp1, &Profile::test());
    let q = bench
        .session
        .execute(
            "SELECT simulationTime, instanceId, varName, value \
             FROM fmu_simulate('HP1Instance1', 'SELECT ts, u FROM measurements') \
             WHERE varName IN ('y', 'x') ORDER BY simulationTime LIMIT 6",
        )
        .unwrap();
    out!("{}", q.to_ascii());
}

fn run_table7(profile: &Profile) {
    out!("== Table 7: SI scenario, model calibration comparison ==");
    let rows = table7::run(profile);
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let params = r
                .params
                .iter()
                .map(|(n, v)| format!("{n}: {v:.3}"))
                .collect::<Vec<_>>()
                .join(", ");
            vec![
                r.model.to_string(),
                r.config.to_string(),
                params,
                format!("{:.4}", r.rmse),
            ]
        })
        .collect();
    out!(
        "{}",
        render(&["Model", "Config", "Param. values", "RMSE"], &rendered)
    );
    out!(
        "configs agree on parameters: {} (paper: rel. diff <= 0.02%)",
        table7::configs_agree(&rows, 0.01)
    );
    out!("paper RMSE reference: HP0 0.7701, HP1 0.5445, Classroom 1.6445\n");
}

fn run_table8(profile: &Profile) {
    out!("== Table 8: SI scenario, per-operation execution time ==");
    let rows = table8::run(profile);
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|t| {
            let opt = |d: Option<std::time::Duration>| {
                d.map(|d| fmt_secs(d.as_secs_f64())).unwrap_or("-".into())
            };
            vec![
                t.model.to_string(),
                t.config.to_string(),
                fmt_secs(t.load.as_secs_f64()),
                fmt_secs(t.read.as_secs_f64()),
                fmt_secs(t.calibrate.as_secs_f64()),
                opt(t.validate),
                fmt_secs(t.simulate.as_secs_f64()),
                opt(t.export),
                fmt_secs(t.total().as_secs_f64()),
                format!(
                    "{:.1}%",
                    100.0 * t.calibrate.as_secs_f64() / t.total().as_secs_f64()
                ),
            ]
        })
        .collect();
    out!(
        "{}",
        render(
            &[
                "Model",
                "Config",
                "Load",
                "Read",
                "Calibrate",
                "Validate",
                "Simulate",
                "Export",
                "Total",
                "Calib%"
            ],
            &rendered
        )
    );
    out!("(paper: calibration > 99% of the workflow; Python ≈ pgFMU± in SI)\n");
}

fn run_fig6(profile: &Profile) {
    out!("== Figure 6: RMSE & time of LO vs G+LaG across dataset dissimilarity ==");
    let points = fig6::run(profile);
    let rendered: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}%", p.dissimilarity * 100.0),
                format!("{:.4}", p.rmse_full),
                format!("{:.4}", p.rmse_lo),
                fmt_secs(p.time_full.as_secs_f64()),
                fmt_secs(p.time_lo.as_secs_f64()),
                format!(
                    "{:.1}x",
                    p.time_full.as_secs_f64() / p.time_lo.as_secs_f64().max(1e-12)
                ),
            ]
        })
        .collect();
    out!(
        "{}",
        render(
            &[
                "Dissim.",
                "RMSE G+LaG",
                "RMSE LO",
                "t G+LaG",
                "t LO",
                "speedup"
            ],
            &rendered
        )
    );
    match fig6::crossover(&points, 0.10) {
        Some(d) => out!(
            "LO degrades (>10% RMSE gap) from ~{:.0}% dissimilarity (paper: ~30%)\n",
            d * 100.0
        ),
        None => out!("LO matched G+LaG across the whole sweep\n"),
    }
}

fn run_fig7(profile: &Profile) {
    out!(
        "== Figure 7: MI workflow execution time, {} instances ==",
        profile.mi_instances
    );
    for model in ALL_MODELS {
        let r = fig7::run_model(model, profile);
        let n = r.instances;
        let checkpoints: Vec<usize> = [1, n / 4, n / 2, 3 * n / 4, n]
            .into_iter()
            .filter(|&k| k >= 1)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let rendered: Vec<Vec<String>> = checkpoints
            .iter()
            .map(|&k| {
                vec![
                    k.to_string(),
                    fmt_secs(fig7::MiScaling::cumulative(&r.python, k).as_secs_f64()),
                    fmt_secs(fig7::MiScaling::cumulative(&r.pgfmu_minus, k).as_secs_f64()),
                    fmt_secs(fig7::MiScaling::cumulative(&r.pgfmu_plus, k).as_secs_f64()),
                ]
            })
            .collect();
        out!("-- {} --", r.model);
        out!(
            "{}",
            render(&["#instances", "Python", "pgFMU-", "pgFMU+"], &rendered)
        );
        out!("pgFMU+ speedup at n={}: {:.2}x\n", n, r.speedup());
    }
    out!("(paper at 100 instances: HP0 5.31x, HP1 5.51x, Classroom 8.43x)\n");
}

fn run_fig8(profile: &Profile) {
    out!("== Figure 8: usability study (SIMULATED user model — see DESIGN.md) ==");
    let u = fig8::run(profile.seed, 30);
    let rendered: Vec<Vec<String>> = u
        .participants
        .iter()
        .map(|p| {
            vec![
                p.id.to_string(),
                format!("{:.1}", p.pgfmu_minutes),
                if p.python_finished {
                    format!("{:.1}", p.python_minutes)
                } else {
                    format!("DNF (>{:.0})", fig8::SESSION_LIMIT_MIN)
                },
            ]
        })
        .collect();
    out!(
        "{}",
        render(&["Participant", "pgFMU (min)", "Python (min)"], &rendered)
    );
    let dnf = u.participants.iter().filter(|p| !p.python_finished).count();
    out!(
        "mean: pgFMU {:.1} min, Python {:.1} min; speedup {:.2}x (paper: 11.74x); \
         {dnf} participant(s) did not finish (paper: 1)\n",
        u.pgfmu_mean,
        u.python_mean,
        u.speedup
    );
}

fn run_madlib(profile: &Profile) {
    out!("== Combined experiments: pgFMU + MADlib-like analytics ==");
    let a = madlib::run_arima(profile.seed, profile.classroom_samples.max(480));
    out!(
        "ARIMA occupancy -> fmu_simulate: RMSE {:.3} (no occupancy) vs {:.3} (ARIMA) \
         = {:.1}% improvement (paper: up to 21.1%)",
        a.rmse_without_occ,
        a.rmse_with_arima,
        a.improvement_pct()
    );
    let l = madlib::run_logistic(profile.seed, profile.classroom_samples.max(480));
    out!(
        "logistic damper classifier: {:.1}% -> {:.1}% accuracy with the pgFMU \
         temperature feature = +{:.1} points (paper: +5.9%)\n",
        l.accuracy_base * 100.0,
        l.accuracy_with_temp * 100.0,
        l.gain_points()
    );
}
