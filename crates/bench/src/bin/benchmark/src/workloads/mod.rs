//! The four workloads, each a closed loop of one client on one thread.
//!
//! | workload | one operation |
//! |---|---|
//! | `si_calibrate` | the Table 8 workflow on one HP1 dataset |
//! | `mi_calibrate` | the Fig 7 pgFMU+ batch over ten Classroom instances |
//! | `sim_store` | `INSERT INTO sim SELECT * FROM fmu_simulate(…)` |
//! | `ingest_query` | one transaction of sensor writes, then twelve reads |

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pgfmu::PgFmu;
use pgfmu_catalog::FmuStorage;
use pgfmu_sqlmini::{Database, Rows};

use crate::config::Sizes;
use crate::trace::Tracer;

pub mod ingest;
pub mod mi;
pub mod si;
pub mod sim_store;

/// Workload names, in the order the benchmark runs them.
pub const NAMES: [&str; 4] = ["si_calibrate", "mi_calibrate", "sim_store", "ingest_query"];

/// Per-operation context handed in by the runner.
pub struct OpCx<'a> {
    /// The recorder, when this operation is traced.
    pub tracer: Option<&'a Arc<Tracer>>,
    /// Query latencies of this run, in µs.
    pub queries: &'a mut Vec<f64>,
}

impl OpCx<'_> {
    /// Run `f` in a span when this operation is traced.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        crate::trace::span(self.tracer.map(Arc::as_ref), name, f)
    }

    /// Run a query, recording its latency.
    pub fn query<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = self.span(name, f);
        self.queries.push(t0.elapsed().as_nanos() as f64 / 1e3);
        out
    }
}

/// What the traced operations did in each layer beyond what their spans
/// show, accumulated over a run.
///
/// Spans are recorded only around calls the benchmark makes, so solver
/// time inside an objective evaluation or inside `fmu_simulate` is not a
/// span of its own. After each traced operation the workload replays the
/// operation's trajectories on a bare `FmuInstance` and *carves* that time
/// out of the enclosing layer.
#[derive(Debug, Default)]
pub struct LayerLog {
    /// `(from, to, ns)`: time measured inside `from`'s spans that belongs
    /// to layer `to`.
    pub carves: Vec<(&'static str, &'static str, f64)>,
    /// Solver output steps computed.
    pub fmi_steps: u64,
    /// Objective evaluations.
    pub evals: u64,
    /// Summed objective-evaluation wall time.
    pub eval_ns: f64,
    /// The solver's part of that time, from the replays.
    pub eval_solver_ns: f64,
    /// MI tail instances estimated with LO, and all MI tail instances.
    pub lo_tail: (u64, u64),
    /// Named per-operation samples for the detail file.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl LayerLog {
    /// Move `ns` from layer `from` to layer `to`.
    pub fn carve(&mut self, from: &'static str, to: &'static str, ns: f64) {
        self.carves.push((from, to, ns));
    }

    /// Record one sample of a named detail.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Account for a traced calibration: its evaluations, their solver
    /// share (`traj_ns` per evaluation, `steps` output steps each) and the
    /// GA / local-search time outside the evaluations.
    pub fn calibration(
        &mut self,
        fits: &[crate::parest::Fit],
        log: &crate::parest::EvalLog,
        traj_ns: f64,
        steps: usize,
    ) {
        let evals = log.evals();
        self.evals += evals;
        self.eval_ns += log.eval_ns() as f64;
        self.eval_solver_ns += evals as f64 * traj_ns;
        self.fmi_steps += evals * steps as u64;
        self.carve("estimation", "fmi", evals as f64 * traj_ns);
        let (ga, local) = crate::parest::phase_self_ns(fits, log);
        self.sample("estimation.evals_per_op", evals as f64);
        self.sample("estimation.ga_self_ms", ga as f64 / 1e6);
        self.sample("estimation.local_self_ms", local as f64 / 1e6);
        let mut per_eval: Vec<f64> = log
            .per_instance
            .iter()
            .flatten()
            .map(|&n| n as f64 / 1e3)
            .collect();
        per_eval.sort_by(f64::total_cmp);
        if let Some(p50) = crate::stats::nearest_rank(&per_eval, 50.0) {
            self.sample("estimation.eval_us", p50);
            self.sample("estimation.glue_us", p50 - traj_ns / 1e3);
        }
        self.sample("fmi.traj_us", traj_ns / 1e3);
        self.sample("fmi.step_ns", traj_ns / steps as f64);
    }
}

/// One workload's state between operations.
pub trait Workload {
    /// Operations run untimed before each run's timed phase.
    fn warmup_ops(&self) -> u64;

    /// Operations a timed phase runs at least, however short its seconds.
    fn min_timed_ops(&self) -> u64 {
        1
    }

    /// Traced and untraced operations alternate in runs of this length, so
    /// that every dataset a workload rotates over sees both.
    fn trace_period(&self) -> u64 {
        1
    }

    /// Run operation `i`, check its outputs, and return its latency.
    fn op(&mut self, i: u64, cx: &mut OpCx<'_>) -> Result<Duration, String>;

    /// After a traced operation, outside its span: replay its
    /// trajectories and account for them.
    fn after_traced(&mut self, _i: u64, _log: &mut LayerLog) -> Result<(), String> {
        Ok(())
    }

    /// Checks on the final state, run once after the timed phase.
    fn finish(&mut self) -> Result<(), String>;

    /// Hash of every generated input.
    fn fingerprint(&self) -> String;

    /// The database, for its `pgfmu_stats()` counters.
    fn db(&self) -> &Database;
}

/// Build workload `name` for `seed` at `sizes`. FMU storage (pgFMU keeps
/// one archive file per model) goes under `scratch`.
pub fn setup(
    name: &str,
    seed: u64,
    sizes: &Sizes,
    scratch: &Path,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "si_calibrate" => Box::new(si::Si::setup(seed, sizes, scratch)?),
        "mi_calibrate" => Box::new(mi::Mi::setup(seed, sizes, scratch)?),
        "sim_store" => Box::new(sim_store::SimStore::setup(seed, sizes, scratch)?),
        "ingest_query" => Box::new(ingest::Ingest::setup(seed, sizes)?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// A pgFMU session whose FMU storage lives in `dir`.
pub fn session(dir: &Path, sizes: &Sizes) -> Result<PgFmu, String> {
    let storage = FmuStorage::open(dir).map_err(|e| format!("FMU storage: {e}"))?;
    let s = PgFmu::with_storage(storage).map_err(|e| format!("session: {e}"))?;
    s.set_estimation_config(sizes.estimation);
    s.set_mi_enabled(true);
    Ok(s)
}

/// Drain a cursor, returning how many rows it produced.
pub fn count_rows(rows: Result<Rows<'_>, impl std::fmt::Display>) -> Result<usize, String> {
    let mut n = 0;
    for row in rows.map_err(|e| e.to_string())? {
        row.map_err(|e| e.to_string())?;
        n += 1;
    }
    Ok(n)
}

/// Median wall time of `reps` runs of `f`, in ns, after one untimed run
/// that warms caches the way the operation's own repeated calls did.
pub fn replay_ns(reps: usize, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    f()?;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f()?;
        times.push(t0.elapsed().as_nanos() as f64);
    }
    crate::stats::median(&times).ok_or_else(|| "no replays".to_string())
}

/// Fail with `msg` unless `cond` holds.
pub fn check(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}
