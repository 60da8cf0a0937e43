//! Multi-core scaling gates for the engine's two parallel paths: the
//! fleet simulation pool and concurrent ingest into sharded version
//! storage.
//!
//! Each test times its serial and its 4-way form and asserts the
//! speedup only on a machine with at least 4 cores. With fewer cores
//! it prints a `note: SKIPPED …` line instead. The fleet test asserts
//! byte identity with the serial loop at any core count. Timings of a
//! debug build say nothing, so both tests are ignored there:
//!
//! ```text
//! cargo test --release -p pgfmu-bench --test scaling
//! ```

use std::hint::black_box;
use std::io::Write;
use std::sync::Mutex;

use pgfmu::PgFmu;
use pgfmu_bench::report::{median_ns, timed};
use pgfmu_sqlmini::{params, Database, Stat};

/// Held by each test while it runs. The tests of one binary run in
/// parallel, and a 4-worker fleet must not share the cores with 4
/// ingest writers. It guards no data, so a test that panicked holding
/// it leaves nothing to repair.
static CORES: Mutex<()> = Mutex::new(());

fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Print past the test harness's output capture, so that the measured
/// speedup and a skipped gate show in every run's log.
fn note(line: &str) {
    let _ = writeln!(std::io::stderr(), "{line}");
}

/// 100 HP1 instances driven over one shared 672 h input table: the
/// serial `fmu_simulate` loop against `fmu_simulate_fleet` at 4 workers.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: run with --release")]
fn fleet_of_100_is_byte_identical_and_3x_faster_at_4_workers() {
    const INSTANCES: usize = 100;
    const WORKERS: usize = 4;
    const RUNS: usize = 3;
    let _cores = CORES.lock().unwrap_or_else(|e| e.into_inner());
    let s = PgFmu::new().unwrap();
    pgfmu_datagen::hp::hp1_dataset(7)
        .slice(0, 672)
        .load_into(s.db(), "fleet_m")
        .unwrap();
    let ids: Vec<String> = (0..INSTANCES).map(|i| format!("f{i}")).collect();
    s.fmu_create("HP1", Some(&ids[0])).unwrap();
    for id in &ids[1..] {
        s.fmu_copy(&ids[0], Some(id)).unwrap();
    }
    let input = Some("SELECT * FROM fleet_m");
    // fmu_simulate persists final states, so every run rewinds the
    // fleet to its declared initial values first.
    let reset_all = || {
        for id in &ids {
            s.fmu_reset(id).unwrap();
        }
    };

    let mut serial = s.fmu_simulate(&ids[0], input, None, None).unwrap();
    for id in &ids[1..] {
        serial
            .rows
            .extend(s.fmu_simulate(id, input, None, None).unwrap().rows);
    }
    reset_all();
    let fleet = s
        .fmu_simulate_fleet(&ids, input, None, None, Some(WORKERS))
        .unwrap();
    assert_eq!(
        serial, fleet,
        "fleet output must be byte-identical to the serial loop"
    );
    drop((serial, fleet));

    let serial_ns = median_ns(RUNS, || {
        timed(|| {
            reset_all();
            for id in &ids {
                black_box(s.fmu_simulate(id, input, None, None).unwrap().len());
            }
        })
    });
    let fleet_ns = median_ns(RUNS, || {
        timed(|| {
            reset_all();
            black_box(
                s.fmu_simulate_fleet(&ids, input, None, None, Some(WORKERS))
                    .unwrap()
                    .len(),
            );
        })
    });
    let speedup = serial_ns / fleet_ns;
    let cores = cores();
    note(&format!(
        "fleet: {INSTANCES} instances simulated, {speedup:.2}x speedup at {WORKERS} workers \
         over the serial loop ({cores} core(s) available), parallel output byte-identical"
    ));
    if cores >= 4 {
        assert!(
            speedup >= 3.0,
            "fleet simulation at 4 workers must be >= 3x over serial on a \
             >= 4-core machine (measured {speedup:.2}x)"
        );
    } else {
        note(&format!(
            "note: SKIPPED the >=3x fleet speedup assertion — only {cores} core(s) \
             available and the 4-worker fleet needs at least 4 to manifest a \
             parallel speedup; correctness (byte-identical output) was still asserted"
        ));
    }
}

/// The same 4,096 disjoint rows inserted through bound INSERTs by one
/// writer thread and split over four.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: run with --release")]
fn ingest_with_4_writers_is_2x_faster_than_1() {
    const ROWS: usize = 4096;
    const RUNS: usize = 10;
    let _cores = CORES.lock().unwrap_or_else(|e| e.into_inner());
    let db = Database::new();
    db.execute("CREATE TABLE ingest (k int, v float)").unwrap();
    let ingest = |writers: usize| {
        std::thread::scope(|s| {
            for w in 0..writers {
                let db = &db;
                s.spawn(move || {
                    let ins = db.prepare("INSERT INTO ingest VALUES ($1, $2)").unwrap();
                    let chunk = ROWS / writers;
                    for i in 0..chunk as i64 {
                        let k = (w * chunk) as i64 + i;
                        ins.query(params![k, k as f64]).unwrap();
                    }
                });
            }
        });
    };
    // Untimed between runs. A transaction never compacts in line, so
    // the DELETE leaves its dead versions for the vacuum.
    let clear = || {
        db.execute("BEGIN").unwrap();
        db.execute("DELETE FROM ingest").unwrap();
        db.execute("COMMIT").unwrap();
        db.vacuum();
    };
    let run = |writers: usize| {
        median_ns(RUNS, || {
            let t = timed(|| ingest(writers));
            clear();
            t
        })
    };
    let one_ns = run(1);
    let four_ns = run(4);
    let speedup = one_ns / four_ns;
    let cores = cores();
    note(&format!(
        "concurrent ingest: 4 writers {speedup:.2}x over 1 writer for the same total \
         row count ({} table shard(s), {cores} core(s) available)",
        db.stat(Stat::ShardCount)
    ));
    if cores >= 4 {
        assert!(
            speedup >= 2.0,
            "4-writer ingest must be >= 2x over 1 writer on a >= 4-core machine \
             (measured {speedup:.2}x)"
        );
    } else {
        note(&format!(
            "note: SKIPPED the >=2x concurrent-ingest scaling assertion — only \
             {cores} core(s) available and sharded writers need at least 4 to \
             manifest parallel ingest; write correctness across shard counts is \
             still covered by the S=1-vs-S=8 equivalence tests"
        ));
    }
}
