//! `repro` — regenerate every table and figure of the pgFMU paper.
//!
//! ```text
//! repro [EXPERIMENT…] [--full] [--instances N] [--out PATH]
//!
//! EXPERIMENT: table1 table2 table3 table4 table7 table8 fig6 fig7 fig8
//!             madlib grouped bench  (default: all)
//! --full        paper-scale workloads (100 instances, full datasets)
//! --instances N override the MI instance count
//! --out PATH    where `bench` writes its JSON
//!               (default: target/repro-bench.json)
//! ```
//!
//! `bench` times the SQL hot paths (parse, cached plan execution, `$n`
//! binds, the zero-copy scan paths — streamed vs materialized, ordered,
//! UPDATE/DELETE under the write guard — the grouped rollup vs. its
//! client-side fold,
//! a concurrent read-while-ingest workload that the pre-MVCC engine
//! rejected outright, the access-path subsystem — indexed point/range
//! lookups vs sequential scans on a 100 k-row table and the hash join
//! vs its nested-loop baseline — a full 672 h FMU simulation, and the
//! headline fleet workload: `fmu_simulate` over 100 catalogue instances,
//! serial loop vs `fmu_simulate_fleet` at 4 workers, with the parallel
//! output asserted byte-identical to the serial loop — and the
//! vectorized top-K: `ORDER BY … LIMIT` over an indexed range of fixed
//! width at 10 k and 100 k total rows, which must cost the same at both
//! scales — plus the concurrent-ingest ladder: the same fixed row batch
//! split over 1/2/4 writer threads, auto-commit and explicit
//! BEGIN…COMMIT variants, which rides the sharded version storage) and
//! writes per-bench robust medians
//! (`{"median_ns": …, "mad_ns": …}`, see `criterion::stats`) to the
//! `--out` path. The default lies in the ignored build directory, so a
//! run leaves the tracked tree unchanged; the committed `BENCH_PR*.json`
//! files are earlier runs kept as a record.
//!
//! An unknown experiment name or flag, or a flag missing its value,
//! prints the usage and exits with status 2.

use pgfmu_bench::report::{fmt_secs, render};
use pgfmu_bench::setup::{bench_session, ModelKind, ALL_MODELS};
use pgfmu_bench::{fig6, fig7, fig8, grouped, madlib, table1, table2, table7, table8, Profile};

/// Every experiment name `repro` accepts, in run order.
const EXPERIMENTS: &[&str] = &[
    "table1", "table2", "table3", "table4", "table7", "table8", "fig6", "fig7", "fig8", "madlib",
    "grouped", "bench",
];

/// Report a bad command line with the usage and exit with status 2.
fn usage_error(problem: &str) -> ! {
    eprintln!(
        "repro: {problem}\nusage: repro [EXPERIMENT…] [--full] [--instances N] [--out PATH]\n\
         EXPERIMENT: {}",
        EXPERIMENTS.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut profile = if args.iter().any(|a| a == "--full") {
        Profile::full()
    } else {
        Profile::quick()
    };
    let mut out = "target/repro-bench.json";
    let mut wanted: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => {}
            "--instances" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => profile.mi_instances = n,
                None => usage_error("--instances needs a count"),
            },
            "--out" => match it.next() {
                Some(path) => out = path,
                None => usage_error("--out needs a path"),
            },
            name if EXPERIMENTS.contains(&name) => wanted.push(name),
            other => usage_error(&format!("unknown experiment or flag '{other}'")),
        }
    }
    let run_all = wanted.is_empty();
    let want = |name: &str| run_all || wanted.contains(&name);

    println!(
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
    if want("bench") {
        run_bench_json(out);
    }
}

/// Per-day energy rollup over simulated HP1 output, grouped in SQL vs the
/// client-side fold it replaces.
fn run_grouped(profile: &Profile) {
    println!("== Grouped rollup: per-day HP1 output energy (GROUP BY / HAVING) ==");
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
    println!("{}", render(&["day", "energy kWh", "samples"], &rows));
    let sql_ns = median_ns(20, || {
        grouped::per_day_energy(&session, 0.0);
    });
    let client_ns = median_ns(20, || {
        grouped::per_day_energy_client_side(&session, 0.0);
    });
    println!(
        "one grouped statement: {} | client-side fold: {} ({:.1}x)\n",
        fmt_secs(sql_ns as f64 / 1e9),
        fmt_secs(client_ns as f64 / 1e9),
        client_ns as f64 / sql_ns as f64
    );
}

/// N timed runs of one closure (after one untimed warm-up), in ns.
fn sample_ns(runs: usize, mut f: impl FnMut()) -> Vec<f64> {
    f(); // warm-up: fill caches, fault pages
    (0..runs)
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect()
}

/// Median-of-N wall time of one closure, in nanoseconds.
fn median_ns(runs: usize, f: impl FnMut()) -> u128 {
    criterion::stats::summarize(&sample_ns(runs, f)).median as u128
}

/// Time the SQL hot paths and write per-bench robust medians
/// (`{"name": {"median_ns": …, "mad_ns": …}}`) plus every `pgfmu_stats()`
/// registry statistic as JSON.
fn run_bench_json(path: &str) {
    use criterion::stats::{summarize, Summary};
    use pgfmu_sqlmini::{format_timestamp, params, Database, Stat, Value};
    use std::hint::black_box;

    println!("== Hot-path microbenchmarks -> {path} ==");
    let data = pgfmu_datagen::hp::hp1_dataset(7).slice(0, 168);
    let db = Database::new();
    data.load_into(&db, "m").unwrap();
    let ts = &data.timestamps;
    let xs = data.column("x").unwrap();
    let us = data.column("u").unwrap();
    let n_rows = ts.len();

    let select = "SELECT count(*), avg(x), avg(u) FROM m WHERE x > 20.0";
    // Timed runs per SELECT bench; sample_ns adds one warm-up execution.
    const SELECT_RUNS: usize = 120;
    let mut results: Vec<(&str, Summary)> = Vec::new();
    let mut push = |name: &'static str, samples: Vec<f64>| {
        results.push((name, summarize(&samples)));
    };

    push(
        "sql_select_uncached_parse",
        sample_ns(SELECT_RUNS, || {
            db.execute_uncached(select).unwrap();
        }),
    );
    push(
        "sql_select_interpolated_cached",
        sample_ns(SELECT_RUNS, || {
            db.execute(select).unwrap();
        }),
    );
    // The bound/streaming pair runs the *same* statement both ways: the
    // inversion check is purely "does the streaming cursor cost more
    // than materializing a QueryResult and reading it back". Both take
    // the zero-copy scan (asserted below).
    let zero_before = db.stat(Stat::ScansZeroCopy);
    let pair = db.prepare("SELECT ts, x, u FROM m WHERE x > $1").unwrap();
    push(
        "sql_select_bound",
        sample_ns(SELECT_RUNS, || {
            let q = pair.query(params![20.0]).unwrap();
            for r in q.rows {
                black_box(r);
            }
        }),
    );
    push(
        "sql_select_bound_streaming",
        sample_ns(SELECT_RUNS, || {
            pair.query_rows(params![20.0]).unwrap().for_each(|r| {
                black_box(r.unwrap());
            });
        }),
    );
    // The aggregate shape the PR-4 file called `sql_select_bound`
    // (zero-copy grouped accumulation, one output row).
    let agg = db
        .prepare("SELECT count(*), avg(x), avg(u) FROM m WHERE x > $1")
        .unwrap();
    push(
        "sql_select_agg_bound",
        sample_ns(SELECT_RUNS, || {
            agg.query(params![20.0]).unwrap();
        }),
    );
    // Ordered + LIMIT: the zero-copy path sorts pruned projections of
    // the surviving rows, never full-row clones.
    let topk = db
        .prepare("SELECT ts, x FROM m WHERE u >= $1 ORDER BY x DESC LIMIT 24")
        .unwrap();
    push(
        "sql_select_ordered_limit",
        sample_ns(SELECT_RUNS, || {
            topk.query(params![0.0]).unwrap();
        }),
    );
    // The scan-side statements above must all have run zero-copy.
    let zero_copy_sql = db
        .query(
            "SELECT value FROM pgfmu_stats() WHERE stat = $1",
            params!["scans_zero_copy"],
        )
        .unwrap()
        .rows[0][0]
        .as_i64()
        .unwrap();
    assert!(
        zero_copy_sql as u64 >= zero_before + 4 * (SELECT_RUNS as u64 + 1),
        "bench SELECTs must take the zero-copy scan path \
         (pgfmu_stats reports {zero_copy_sql}, started at {zero_before})"
    );

    db.execute("CREATE TABLE scratch (ts timestamp, x float, u float)")
        .unwrap();
    // Interpolated inserts build a distinct text per row; cap the cache
    // below the row count so the measurement reflects the steady-state
    // re-parse regime of unbounded distinct texts (fleet scale), not a
    // warm cache that a real workload would overflow.
    db.set_stmt_cache_capacity(32);
    let per_row = |samples: Vec<f64>| {
        samples
            .into_iter()
            .map(|ns| ns / (n_rows as f64 + 1.0))
            .collect::<Vec<f64>>()
    };
    push(
        "sql_insert_interpolated_per_row",
        per_row(sample_ns(20, || {
            for i in 0..n_rows {
                db.execute(&format!(
                    "INSERT INTO scratch VALUES ('{}', {}, {})",
                    format_timestamp(ts[i]),
                    xs[i],
                    us[i]
                ))
                .unwrap();
            }
            db.execute("DELETE FROM scratch").unwrap();
        })),
    );
    let insert = db
        .prepare("INSERT INTO scratch VALUES ($1, $2, $3)")
        .unwrap();
    push(
        "sql_insert_bound_per_row",
        per_row(sample_ns(20, || {
            for i in 0..n_rows {
                insert
                    .query(params![Value::Timestamp(ts[i]), xs[i], us[i]])
                    .unwrap();
            }
            db.execute("DELETE FROM scratch").unwrap();
        })),
    );
    // INSERT … SELECT drains its source in one zero-copy, column-pruned
    // pass, then appends the batch.
    let copy_in = db
        .prepare("INSERT INTO scratch SELECT ts, x, u FROM m")
        .unwrap();
    push(
        "sql_insert_select_streamed",
        sample_ns(20, || {
            copy_in.query(params![]).unwrap();
            db.execute("DELETE FROM scratch").unwrap();
        }),
    );
    // DML under the write guard: the predicate (and SET expressions)
    // evaluate over borrowed rows, then each match is ended and, for the
    // UPDATE, its successor appended; the write path's GC reclaims the
    // dead versions. The UPDATE is idempotent and the DELETE predicate
    // never matches, so every sample sees the same rows.
    db.execute("INSERT INTO scratch SELECT ts, x, u FROM m")
        .unwrap();
    let upd = db
        .prepare("UPDATE scratch SET x = x * $1 WHERE u > $2")
        .unwrap();
    push(
        "sql_update_in_place",
        sample_ns(SELECT_RUNS, || {
            upd.query(params![1.0, 0.5]).unwrap();
        }),
    );
    let del = db.prepare("DELETE FROM scratch WHERE x < $1").unwrap();
    push(
        "sql_delete_scan_in_place",
        sample_ns(SELECT_RUNS, || {
            del.query(params![-1e12]).unwrap();
        }),
    );
    // Concurrent read-while-ingest: a writer thread appends the HP1
    // rows through the bound INSERT while this thread keeps a streaming
    // cursor churning over the growing table. Before MVCC this workload
    // was impossible by construction — any open cursor made writes to
    // the table error out — so the sample is the wall time for the full
    // ingest with a reader continuously streaming against it.
    push(
        "sql_concurrent_read_while_ingest",
        sample_ns(20, || {
            std::thread::scope(|s| {
                let writer = s.spawn(|| {
                    let ins = db
                        .prepare("INSERT INTO scratch VALUES ($1, $2, $3)")
                        .unwrap();
                    for i in 0..n_rows {
                        ins.query(params![Value::Timestamp(ts[i]), xs[i], us[i]])
                            .unwrap();
                    }
                });
                let scan = db.prepare("SELECT x FROM scratch").unwrap();
                while !writer.is_finished() {
                    scan.query_rows(params![]).unwrap().for_each(|r| {
                        black_box(r.unwrap());
                    });
                }
                writer.join().unwrap();
            });
            db.execute("DELETE FROM scratch").unwrap();
        }),
    );
    // Concurrent ingest scaling — the PR-10 headline: N writer threads
    // split the same fixed batch of disjoint rows over one table through
    // bound INSERTs. Sharded version storage routes each thread to its
    // own append arena, so wall time for the same total row count should
    // drop as writers are added (on machines with the cores to run
    // them). Cleanup (DELETE + vacuum) runs untimed between samples so
    // the figure is pure ingest.
    {
        const INGEST_ROWS: usize = 4096;
        const INGEST_RUNS: usize = 10;
        db.execute("CREATE TABLE ingest (k int, v float)").unwrap();
        let bench_ingest = |writers: usize, txn: bool| -> Vec<f64> {
            let mut out = Vec::with_capacity(INGEST_RUNS);
            for run in 0..=INGEST_RUNS {
                let t0 = std::time::Instant::now();
                std::thread::scope(|s| {
                    for w in 0..writers {
                        let db = &db;
                        s.spawn(move || {
                            let ins = db.prepare("INSERT INTO ingest VALUES ($1, $2)").unwrap();
                            let chunk = INGEST_ROWS / writers;
                            if txn {
                                db.execute("BEGIN").unwrap();
                            }
                            for i in 0..chunk as i64 {
                                let k = (w * chunk) as i64 + i;
                                ins.query(params![k, k as f64]).unwrap();
                            }
                            if txn {
                                db.execute("COMMIT").unwrap();
                            }
                        });
                    }
                });
                if run > 0 {
                    // run 0 is the warm-up
                    out.push(t0.elapsed().as_nanos() as f64);
                }
                // Transactional cleanup: a transaction never compacts
                // in-line, so the DELETE leaves its dead versions for
                // the vacuum below — the footer's versions_gc figure
                // comes from here.
                db.execute("BEGIN").unwrap();
                db.execute("DELETE FROM ingest").unwrap();
                db.execute("COMMIT").unwrap();
                db.vacuum();
            }
            out
        };
        push("sql_concurrent_ingest_1writers", bench_ingest(1, false));
        push("sql_concurrent_ingest_2writers", bench_ingest(2, false));
        push("sql_concurrent_ingest_4writers", bench_ingest(4, false));
        // Explicit transactional writers: BEGIN … COMMIT around each
        // thread's batch, so the footer's txns_committed counter
        // reflects real transactional ingest. (The PR-9 file
        // recorded txns_committed = 0 because every bench write
        // auto-committed — this variant is the fix.)
        push("sql_concurrent_ingest_txn_4writers", bench_ingest(4, true));
    }

    // Access paths: a 100 k-row table probed by key, with the planner's
    // index choice toggled off for the sequential baseline. The per-PR
    // acceptance number is the indexed/seq ratio; the pgfmu_stats()
    // assertion below proves the fast runs actually took the index path.
    {
        db.execute("CREATE TABLE big (k int, v float)").unwrap();
        let ins = db.prepare("INSERT INTO big VALUES ($1, $2)").unwrap();
        for i in 0..100_000i64 {
            ins.query(params![i, (i % 97) as f64]).unwrap();
        }
        db.execute("CREATE UNIQUE INDEX big_k ON big (k)").unwrap();
        db.execute("ANALYZE big").unwrap();
        let point = db.prepare("SELECT v FROM big WHERE k = $1").unwrap();
        let ix_before = db.stat(Stat::IndexScans);
        push(
            "sql_point_lookup_indexed",
            sample_ns(SELECT_RUNS, || {
                black_box(point.query(params![77_777i64]).unwrap());
            }),
        );
        let ix_after = db.stat(Stat::IndexScans);
        assert!(
            ix_after > ix_before + SELECT_RUNS as u64,
            "point lookups must take the index path \
             (pgfmu_stats reports {ix_after} index scans, started at {ix_before})"
        );
        let range = db
            .prepare("SELECT count(*), avg(v) FROM big WHERE k >= $1 AND k < $2")
            .unwrap();
        push(
            "sql_range_scan_indexed",
            sample_ns(SELECT_RUNS, || {
                black_box(range.query(params![50_000i64, 50_256i64]).unwrap());
            }),
        );
        db.set_index_access_enabled(false);
        push(
            "sql_point_lookup_seq",
            sample_ns(30, || {
                black_box(point.query(params![77_777i64]).unwrap());
            }),
        );
        db.set_index_access_enabled(true);
    }
    // Vectorized top-K: ORDER BY … LIMIT over an indexed range of fixed
    // absolute width (256 candidate rows) at 10 k and at 100 k total
    // rows. The index narrows both scans to the same candidate set, so
    // the batch fill + bounded heap must cost the same at both scales —
    // the per-PR acceptance gate is 100 k within 2x of 10 k.
    {
        db.execute("CREATE TABLE topk_small (k int, v float)")
            .unwrap();
        let ins = db
            .prepare("INSERT INTO topk_small VALUES ($1, $2)")
            .unwrap();
        for i in 0..10_000i64 {
            ins.query(params![i, ((i * 37) % 1009) as f64]).unwrap();
        }
        db.execute("CREATE UNIQUE INDEX topk_small_k ON topk_small (k)")
            .unwrap();
        db.execute("ANALYZE topk_small").unwrap();
        let filled_before = db.stat(Stat::BatchesFilled);
        let ops_before = db.stat(Stat::VectorizedOps);
        let q10 = db
            .prepare(
                "SELECT k, v FROM topk_small WHERE k >= $1 AND k < $2 \
                 ORDER BY v DESC LIMIT 24",
            )
            .unwrap();
        push(
            "sql_select_ordered_limit_topk_10k",
            sample_ns(SELECT_RUNS, || {
                black_box(q10.query(params![4_000i64, 4_256i64]).unwrap());
            }),
        );
        let q100 = db
            .prepare(
                "SELECT k, v FROM big WHERE k >= $1 AND k < $2 \
                 ORDER BY v DESC LIMIT 24",
            )
            .unwrap();
        push(
            "sql_select_ordered_limit_topk_100k",
            sample_ns(SELECT_RUNS, || {
                black_box(q100.query(params![40_000i64, 40_256i64]).unwrap());
            }),
        );
        let filled_after = db.stat(Stat::BatchesFilled);
        let ops_after = db.stat(Stat::VectorizedOps);
        assert!(
            filled_after > filled_before && ops_after > ops_before,
            "the top-K benches must take the vectorized batch path \
             (pgfmu_stats reports {filled_after} batches / {ops_after} ops, \
              started at {filled_before} / {ops_before})"
        );
    }

    // Hash join vs the nested loop it replaces, on an equi-join whose
    // cross product (2000 x 400) the cost model refuses to nested-loop.
    {
        db.execute("CREATE TABLE jl (k int, v float)").unwrap();
        db.execute("CREATE TABLE jr (k int, w float)").unwrap();
        let ins = db.prepare("INSERT INTO jl VALUES ($1, $2)").unwrap();
        for i in 0..2000i64 {
            ins.query(params![i, i as f64]).unwrap();
        }
        let ins = db.prepare("INSERT INTO jr VALUES ($1, $2)").unwrap();
        for i in 0..400i64 {
            ins.query(params![i * 5, i as f64]).unwrap();
        }
        let join = db
            .prepare("SELECT count(*), avg(jl.v + jr.w) FROM jl JOIN jr ON jl.k = jr.k")
            .unwrap();
        let hj_before = db.stat(Stat::HashJoins);
        push(
            "sql_hash_join_vs_nested",
            sample_ns(30, || {
                black_box(join.query(params![]).unwrap());
            }),
        );
        let hj_after = db.stat(Stat::HashJoins);
        assert!(
            hj_after >= hj_before + 31,
            "the equi-join must build a hash table \
             (pgfmu_stats reports {hj_after} hash joins, started at {hj_before})"
        );
        db.set_hash_join_enabled(false);
        push(
            "sql_nested_loop_join",
            sample_ns(30, || {
                black_box(join.query(params![]).unwrap());
            }),
        );
        db.set_hash_join_enabled(true);
    }

    // The per-day energy rollup over simulated output: grouped SQL
    // statement (index-bucketed grouping, memoized aggregates) vs. the
    // client-side fold it replaced — the plan-pipeline acceptance number.
    let bench = pgfmu_bench::grouped::simulated_session(&pgfmu_bench::Profile::quick());
    push(
        "grouped_rollup_sql",
        sample_ns(20, || {
            pgfmu_bench::grouped::per_day_energy(&bench, 0.0);
        }),
    );
    push(
        "grouped_rollup_client_fold",
        sample_ns(20, || {
            pgfmu_bench::grouped::per_day_energy_client_side(&bench, 0.0);
        }),
    );

    // One month of hourly HP1 simulation, RK4 — the FMU hot loop
    // (allocation-free solver scratch, hoisted input buffer).
    {
        use pgfmu_fmi::{builtin, InputSeries, InputSet, Interpolation, SimulationOptions};
        let fmu = std::sync::Arc::new(builtin::hp1());
        let inst = fmu.instantiate();
        let times: Vec<f64> = (0..672).map(|i| i as f64).collect();
        let u: Vec<f64> = times.iter().map(|t| (t * 0.3).sin().abs()).collect();
        let series = InputSeries::new("u", times, u, Interpolation::Hold).unwrap();
        let inputs = InputSet::bind(&["u"], vec![series]).unwrap();
        let opts = SimulationOptions {
            start: Some(0.0),
            stop: Some(671.0),
            output_step: Some(1.0),
            ..Default::default()
        };
        push(
            "fmu_simulate_672h",
            sample_ns(15, || {
                black_box(inst.simulate(&inputs, &opts).unwrap().len());
            }),
        );
    }

    // Fleet-scale simulation — the PR-8 headline: 100 HP1 instances
    // driven over a shared 672 h input table, serial loop vs
    // `fmu_simulate_fleet` at 4 workers. Correctness is asserted
    // unconditionally (parallel output byte-identical to the serial
    // loop); the ≥3x speedup is asserted only on machines with ≥4 cores
    // (a single-core runner cannot manifest parallel speedup).
    let fleet = {
        use pgfmu::PgFmu;
        const FLEET_WORKERS: usize = 4;
        const FLEET_RUNS: usize = 3;
        let n_instances: usize = std::env::var("PGFMU_FLEET_INSTANCES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(100);
        let s = PgFmu::new().unwrap();
        pgfmu_datagen::hp::hp1_dataset(7)
            .slice(0, 672)
            .load_into(s.db(), "fleet_m")
            .unwrap();
        let ids: Vec<String> = (0..n_instances).map(|i| format!("f{i}")).collect();
        s.fmu_create("HP1", Some(&ids[0])).unwrap();
        for id in &ids[1..] {
            s.fmu_copy(&ids[0], Some(id)).unwrap();
        }
        let input = "SELECT * FROM fleet_m";
        // fmu_simulate persists final states, so every run rewinds the
        // fleet to its declared initial values first.
        let reset_all = || {
            for id in &ids {
                s.fmu_reset(id).unwrap();
            }
        };
        // Correctness gate: the 4-worker output is byte-identical to the
        // serial loop's.
        let mut serial_out = s.fmu_simulate(&ids[0], Some(input), None, None).unwrap();
        for id in &ids[1..] {
            serial_out
                .rows
                .extend(s.fmu_simulate(id, Some(input), None, None).unwrap().rows);
        }
        reset_all();
        let fleet_out = s
            .fmu_simulate_fleet(&ids, Some(input), None, None, Some(FLEET_WORKERS))
            .unwrap();
        assert_eq!(
            serial_out, fleet_out,
            "fleet output must be byte-identical to the serial loop"
        );
        drop((serial_out, fleet_out));
        push(
            "fleet_simulate_672h_serial",
            sample_ns(FLEET_RUNS, || {
                reset_all();
                for id in &ids {
                    black_box(s.fmu_simulate(id, Some(input), None, None).unwrap().len());
                }
            }),
        );
        push(
            "fleet_simulate_672h_x4workers",
            sample_ns(FLEET_RUNS, || {
                reset_all();
                black_box(
                    s.fmu_simulate_fleet(&ids, Some(input), None, None, Some(FLEET_WORKERS))
                        .unwrap()
                        .len(),
                );
            }),
        );
        // The observability counters double as the proof that the fleet
        // path actually ran: 1 equivalence batch + 1 warm-up + the timed
        // samples, each fanning one task per instance at 4 workers.
        let [fleet_tasks, fleet_workers, fleet_task_ns] =
            [Stat::FleetTasks, Stat::FleetWorkers, Stat::FleetTaskNs].map(|st| s.db().stat(st));
        assert_eq!(
            fleet_tasks,
            ((FLEET_RUNS + 2) * n_instances) as u64,
            "every fleet batch must be accounted in pgfmu_stats()"
        );
        assert_eq!(fleet_workers, FLEET_WORKERS as u64);
        assert!(fleet_task_ns > 0, "per-task wall time not recorded");
        (n_instances, fleet_tasks, fleet_workers, fleet_task_ns)
    };

    // Every registry statistic, in `pgfmu_stats()` row order.
    let stats: Vec<(&str, u64)> = Stat::ALL
        .iter()
        .map(|&st| (st.name(), db.stat(st)))
        .collect();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // The transactional ingest variant must have left real commit and GC
    // traffic behind — the PR-9 footer recorded 0 for both.
    assert!(
        db.stat(Stat::TxnsCommitted) > 0,
        "the transactional ingest bench must commit explicit transactions"
    );
    assert!(
        db.stat(Stat::VersionsGc) > 0,
        "the ingest benches vacuum between samples; GC must have reclaimed versions"
    );
    let mut json = String::from("{\n");
    for (name, s) in &results {
        json.push_str(&format!(
            "  \"{name}\": {{\"median_ns\": {}, \"mad_ns\": {}}},\n",
            s.median as u128, s.mad as u128
        ));
    }
    json.push_str(&format!(
        "  \"fleet\": {{\"instances\": {}, \"fleet_tasks\": {}, \
         \"fleet_workers\": {}, \"fleet_task_ns\": {}, \"cores\": {cores}}},\n",
        fleet.0, fleet.1, fleet.2, fleet.3
    ));
    let stats_json: Vec<String> = stats.iter().map(|(n, v)| format!("\"{n}\": {v}")).collect();
    json.push_str(&format!(
        "  \"pgfmu_stats\": {{{}}}\n",
        stats_json.join(", ")
    ));
    json.push_str("}\n");
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).expect("create the --out directory");
    }
    std::fs::write(path, &json).unwrap();
    for (name, s) in &results {
        println!(
            "{name:34} {:>12} ns (median, ±{} MAD)",
            s.median as u128, s.mad as u128
        );
    }
    let median_of = |name: &str| -> f64 {
        results
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s.median)
            .unwrap_or(f64::NAN)
    };
    println!(
        "access paths: indexed point lookup {:.1}x over seq scan (100k rows), \
         hash join {:.1}x over nested loop",
        median_of("sql_point_lookup_seq") / median_of("sql_point_lookup_indexed"),
        median_of("sql_nested_loop_join") / median_of("sql_hash_join_vs_nested")
    );
    println!(
        "top-K: 256-row indexed candidate set sorts in {} at 10k rows vs {} at \
         100k rows ({:.2}x — fixed-width top-K must not scale with the table)",
        fmt_secs(median_of("sql_select_ordered_limit_topk_10k") / 1e9),
        fmt_secs(median_of("sql_select_ordered_limit_topk_100k") / 1e9),
        median_of("sql_select_ordered_limit_topk_100k")
            / median_of("sql_select_ordered_limit_topk_10k")
    );
    let fleet_speedup =
        median_of("fleet_simulate_672h_serial") / median_of("fleet_simulate_672h_x4workers");
    println!(
        "fleet: {} instances simulated, {:.2}x speedup at 4 workers over the \
         serial loop ({cores} core(s) available), parallel output byte-identical",
        fleet.0, fleet_speedup
    );
    if cores >= 4 {
        assert!(
            fleet_speedup >= 3.0,
            "fleet simulation at 4 workers must be >= 3x over serial on a \
             >= 4-core machine (measured {fleet_speedup:.2}x)"
        );
    } else {
        println!(
            "note: SKIPPED the >=3x fleet speedup assertion — only {cores} core(s) \
             available and the 4-worker fleet needs at least 4 to manifest a \
             parallel speedup; correctness (byte-identical output) was still asserted"
        );
    }
    let ingest_speedup =
        median_of("sql_concurrent_ingest_1writers") / median_of("sql_concurrent_ingest_4writers");
    println!(
        "concurrent ingest: 4 writers {ingest_speedup:.2}x over 1 writer for the \
         same total row count ({} table shard(s), {cores} core(s) available)",
        db.stat(Stat::ShardCount)
    );
    if cores >= 4 {
        assert!(
            ingest_speedup >= 2.0,
            "4-writer ingest must be >= 2x over 1 writer on a >= 4-core machine \
             (measured {ingest_speedup:.2}x)"
        );
    } else {
        println!(
            "note: SKIPPED the >=2x concurrent-ingest scaling assertion — only \
             {cores} core(s) available and sharded writers need at least 4 to \
             manifest parallel ingest; write correctness across shard counts is \
             still covered by the S=1-vs-S=8 equivalence tests"
        );
    }
    let stats_line: Vec<String> = stats.iter().map(|(n, v)| format!("{n}={v}")).collect();
    println!("pgfmu_stats: {}", stats_line.join(", "));
    println!("wrote {path}\n");
}

fn run_table1() {
    println!("== Table 1: workflow operations, lines of code ==");
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
    println!("{}", render(&["Operation", "Traditional", "pgFMU"], &rows));
    println!(
        "reduction: {:.1}x fewer lines (paper: ~22x)\n",
        c.reduction()
    );
}

fn run_table2() {
    println!("== Table 2: in-DBMS analytics tool comparison (probed live) ==");
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
    println!(
        "{}",
        render(&["Feature", "MADlib", "MS SQL ML", "pgFMU-rs"], &rows)
    );
    println!("(the paper marks pgFMU's in-DBMS ML as absent; this reproduction bundles it)\n");
}

fn run_table3() {
    println!("== Table 3: fmu_variables output (parameters of HP1Instance1) ==");
    let bench = bench_session(ModelKind::Hp1, &Profile::test());
    let q = bench
        .session
        .execute(
            "SELECT * FROM fmu_variables('HP1Instance1') AS f \
             WHERE f.varType = 'parameter' ORDER BY f.varName",
        )
        .unwrap();
    println!("{}", q.to_ascii());
}

fn run_table4() {
    println!("== Table 4: fmu_simulate output (first rows) ==");
    let bench = bench_session(ModelKind::Hp1, &Profile::test());
    let q = bench
        .session
        .execute(
            "SELECT simulationTime, instanceId, varName, value \
             FROM fmu_simulate('HP1Instance1', 'SELECT ts, u FROM measurements') \
             WHERE varName IN ('y', 'x') ORDER BY simulationTime LIMIT 6",
        )
        .unwrap();
    println!("{}", q.to_ascii());
}

fn run_table7(profile: &Profile) {
    println!("== Table 7: SI scenario, model calibration comparison ==");
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
    println!(
        "{}",
        render(&["Model", "Config", "Param. values", "RMSE"], &rendered)
    );
    println!(
        "configs agree on parameters: {} (paper: rel. diff <= 0.02%)",
        table7::configs_agree(&rows, 0.01)
    );
    println!("paper RMSE reference: HP0 0.7701, HP1 0.5445, Classroom 1.6445\n");
}

fn run_table8(profile: &Profile) {
    println!("== Table 8: SI scenario, per-operation execution time ==");
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
    println!(
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
    println!("(paper: calibration > 99% of the workflow; Python ≈ pgFMU± in SI)\n");
}

fn run_fig6(profile: &Profile) {
    println!("== Figure 6: RMSE & time of LO vs G+LaG across dataset dissimilarity ==");
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
    println!(
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
        Some(d) => println!(
            "LO degrades (>10% RMSE gap) from ~{:.0}% dissimilarity (paper: ~30%)\n",
            d * 100.0
        ),
        None => println!("LO matched G+LaG across the whole sweep\n"),
    }
}

fn run_fig7(profile: &Profile) {
    println!(
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
        println!("-- {} --", r.model);
        println!(
            "{}",
            render(&["#instances", "Python", "pgFMU-", "pgFMU+"], &rendered)
        );
        println!("pgFMU+ speedup at n={}: {:.2}x\n", n, r.speedup());
    }
    println!("(paper at 100 instances: HP0 5.31x, HP1 5.51x, Classroom 8.43x)\n");
}

fn run_fig8(profile: &Profile) {
    println!("== Figure 8: usability study (SIMULATED user model — see DESIGN.md) ==");
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
    println!(
        "{}",
        render(&["Participant", "pgFMU (min)", "Python (min)"], &rendered)
    );
    let dnf = u.participants.iter().filter(|p| !p.python_finished).count();
    println!(
        "mean: pgFMU {:.1} min, Python {:.1} min; speedup {:.2}x (paper: 11.74x); \
         {dnf} participant(s) did not finish (paper: 1)\n",
        u.pgfmu_mean, u.python_mean, u.speedup
    );
}

fn run_madlib(profile: &Profile) {
    println!("== Combined experiments: pgFMU + MADlib-like analytics ==");
    let a = madlib::run_arima(profile.seed, profile.classroom_samples.max(480));
    println!(
        "ARIMA occupancy -> fmu_simulate: RMSE {:.3} (no occupancy) vs {:.3} (ARIMA) \
         = {:.1}% improvement (paper: up to 21.1%)",
        a.rmse_without_occ,
        a.rmse_with_arima,
        a.improvement_pct()
    );
    let l = madlib::run_logistic(profile.seed, profile.classroom_samples.max(480));
    println!(
        "logistic damper classifier: {:.1}% -> {:.1}% accuracy with the pgFMU \
         temperature feature = +{:.1} points (paper: +5.9%)\n",
        l.accuracy_base * 100.0,
        l.accuracy_with_temp * 100.0,
        l.gain_points()
    );
}
