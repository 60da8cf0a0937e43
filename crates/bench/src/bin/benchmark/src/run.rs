//! One run of one workload: set-up, warm-up, the timed phase (rerun when
//! the host steals too much CPU), final checks, metrics.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::config::{Sizes, MAX_ATTEMPTS, MAX_STEAL, SETUP_REPEATS};
use crate::json::Json;
use crate::metrics::{self, Counters};
use crate::stats::{cores, engine_env, peak_rss_mib, CpuTimes, Fingerprint};
use crate::trace::{self, Span, Tracer};
use crate::workloads::{self, LayerLog, OpCx, Workload};

/// What to run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// A timed phase lasts at least this many seconds, and at least
    /// [`Workload::min_timed_ops`] operations.
    pub seconds: f64,
    /// Raises the phase's least operation count (the tests run fixed
    /// counts by setting `seconds` to 0).
    pub min_ops: u64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Workload sizes.
    pub sizes: Sizes,
    /// Where result files go.
    pub out_dir: PathBuf,
}

/// One timed phase.
#[derive(Debug, Default)]
pub struct Attempt {
    /// Operations run.
    pub ops: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Wall time of the phase.
    pub elapsed_s: f64,
    /// Share of host CPU time stolen during the phase.
    pub steal: f64,
    /// Completion time of every operation since the phase began, s.
    pub op_end_s: Vec<f64>,
    /// Latency of every successful operation, ms.
    pub op_ms: Vec<f64>,
    /// Latency of every query, µs.
    pub query_us: Vec<f64>,
    /// Traced runs: latencies of the traced and the untraced operations.
    pub traced_op_ms: Vec<f64>,
    /// See `traced_op_ms`.
    pub untraced_op_ms: Vec<f64>,
    /// Operation ids of the phase.
    pub first_op: u64,
    /// See `first_op`; exclusive.
    pub end_op: u64,
    /// Traced runs: replay accounting.
    pub layers: LayerLog,
    /// Traced runs: engine counters around the phase.
    pub counters_before: Counters,
    /// See `counters_before`.
    pub counters_after: Counters,
}

/// A finished run.
#[derive(Debug, Default)]
pub struct Run {
    /// Wall time of each set-up, s.
    pub setup_s: Vec<f64>,
    /// Timed phases, in order.
    pub attempts: Vec<Attempt>,
    /// Index of the attempt the metrics come from (lowest steal).
    pub chosen: usize,
    /// Operations attempted (warm-up, every timed phase, final check).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Input fingerprint: the workload's generated tables, the sizes and
    /// the engine's environment switches.
    pub fingerprint: String,
    /// Reported metrics.
    pub metrics: Vec<metrics::Value>,
    /// Traced runs: per-call detail.
    pub detail: Option<Json>,
    /// Traced runs: every span.
    pub spans: Vec<Span>,
}

impl Run {
    fn fail(&mut self, err: String) {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(err);
        }
    }
}

fn counters(db: &pgfmu_sqlmini::Database) -> Counters {
    db.query_as::<(String, i64)>("SELECT stat, value FROM pgfmu_stats()", &[])
        .map(|rows| rows.into_iter().collect())
        .unwrap_or_default()
}

/// Run `opts.workload` once.
pub fn run(opts: &Opts) -> Run {
    let mut run = Run::default();
    let scratch = opts
        .out_dir
        .join(format!("tmp-{}-{}", opts.workload, std::process::id()));
    let w = setups(opts, &scratch, &mut run);
    if let Some(mut w) = w {
        run.fingerprint = fingerprint(&w.fingerprint(), &opts.sizes);
        timed(opts, w.as_mut(), &mut run);
        run.attempted += 1;
        if let Err(e) = w.finish() {
            run.fail(format!("final check: {e}"));
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if let Some(a) = run.attempts.get(run.chosen) {
        run.metrics = if opts.trace {
            let spans = trace::select(&run.spans, a.first_op..a.end_op);
            run.detail = Some(metrics::trace_detail(a, &spans));
            metrics::per_layer(a, &spans)
        } else {
            metrics::end_to_end(&run, a, peak_rss_mib())
        };
    }
    run
}

/// Hash of everything that decides what a run measures: the workload's
/// generated tables, every size and estimation setting, and the engine's
/// environment switches.
fn fingerprint(tables: &str, sizes: &Sizes) -> String {
    let mut fp = Fingerprint::default();
    fp.str(tables);
    fp.str(&format!("{sizes:?}"));
    for (k, v) in engine_env() {
        fp.str(&k);
        fp.str(&v);
    }
    fp.hex()
}

/// Set the workload up [`SETUP_REPEATS`] times, keeping the last.
fn setups(opts: &Opts, scratch: &Path, run: &mut Run) -> Option<Box<dyn Workload>> {
    let mut kept = None;
    for r in 0..SETUP_REPEATS {
        // Drop the previous copy first, so only one is ever resident.
        drop(kept.take());
        let t0 = Instant::now();
        let w = workloads::setup(
            &opts.workload,
            opts.seed,
            &opts.sizes,
            &scratch.join(format!("s{r}")),
        );
        run.setup_s.push(t0.elapsed().as_secs_f64());
        match w {
            Ok(w) => kept = Some(w),
            Err(e) => {
                run.attempted += 1;
                run.fail(format!("setup: {e}"));
                return None;
            }
        }
    }
    kept
}

/// Warm up, then run timed phases until one is quiet enough.
fn timed(opts: &Opts, w: &mut dyn Workload, run: &mut Run) {
    let tracer = opts.trace.then(Tracer::new);
    let period = w.trace_period().max(1);
    let min_ops = opts.min_ops.max(w.min_timed_ops());
    let mut i = 0u64;
    let mut scratch = Attempt::default();
    for _ in 0..w.warmup_ops() {
        one_op(w, i, None, &mut scratch, run);
        i += 1;
    }
    for _ in 0..MAX_ATTEMPTS {
        let mut a = Attempt {
            first_op: i,
            ..Attempt::default()
        };
        if opts.trace {
            a.counters_before = counters(w.db());
        }
        let cpu0 = CpuTimes::now();
        let t0 = Instant::now();
        while a.ops < min_ops || t0.elapsed().as_secs_f64() < opts.seconds {
            let traced = (i / period) % 2 == 1;
            one_op(w, i, tracer.as_ref().filter(|_| traced), &mut a, run);
            a.op_end_s.push(t0.elapsed().as_secs_f64());
            i += 1;
        }
        a.elapsed_s = t0.elapsed().as_secs_f64();
        a.steal = cpu0.steal_ratio(CpuTimes::now());
        a.end_op = i;
        if opts.trace {
            a.counters_after = counters(w.db());
        }
        let quiet = a.steal <= MAX_STEAL;
        run.attempts.push(a);
        if quiet {
            break;
        }
    }
    run.chosen = (0..run.attempts.len())
        .min_by(|&x, &y| run.attempts[x].steal.total_cmp(&run.attempts[y].steal))
        .unwrap_or(0);
    if let Some(t) = tracer {
        run.spans = t.spans();
    }
}

fn one_op(
    w: &mut dyn Workload,
    i: u64,
    tracer: Option<&Arc<Tracer>>,
    a: &mut Attempt,
    run: &mut Run,
) {
    let mut queries = Vec::new();
    let mut cx = OpCx {
        tracer,
        queries: &mut queries,
    };
    let result = match tracer {
        Some(t) => {
            t.begin_op(i);
            let r = t.span("bench.op", || w.op(i, &mut cx));
            t.end_op();
            r.and_then(|latency| w.after_traced(i, &mut a.layers).map(|()| latency))
        }
        None => w.op(i, &mut cx),
    };
    a.ops += 1;
    run.attempted += 1;
    match result {
        Ok(latency) => {
            let ms = latency.as_secs_f64() * 1e3;
            a.op_ms.push(ms);
            if tracer.is_some() {
                a.traced_op_ms.push(ms);
            } else {
                a.untraced_op_ms.push(ms);
            }
            a.query_us.extend(queries);
        }
        Err(e) => {
            a.failed += 1;
            run.fail(format!("op {i}: {e}"));
        }
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(run: &Run) -> Json {
    Json::obj([
        (
            "correct",
            Json::from(run.failed == 0 && !run.metrics.is_empty()),
        ),
        ("attempted", Json::from(run.attempted.max(1))),
        ("failed", Json::from(run.failed)),
        (
            "metrics",
            Json::obj(run.metrics.iter().map(|m| {
                (
                    m.def.name,
                    Json::obj([
                        ("value", Json::from(m.value)),
                        ("unit", Json::str(m.def.unit)),
                    ]),
                )
            })),
        ),
    ])
}

/// Everything about a run, for the result file.
pub fn result_file(opts: &Opts, run: &Run) -> Json {
    let attempts = run.attempts.iter().map(|a| {
        Json::obj([
            ("ops", Json::from(a.ops)),
            ("failed", Json::from(a.failed)),
            ("elapsed_s", Json::from(a.elapsed_s)),
            ("steal_ratio", Json::from(a.steal)),
            ("op_samples", Json::from(a.op_ms.len())),
            ("query_samples", Json::from(a.query_us.len())),
        ])
    });
    let metrics = run.metrics.iter().map(|m| {
        let mut fields = vec![
            ("value", Json::from(m.value)),
            ("unit", Json::str(m.def.unit)),
        ];
        if let Some(n) = m.samples {
            fields.push(("samples", Json::from(n)));
        }
        (m.def.name, Json::obj(fields))
    });
    Json::obj([
        ("workload", Json::str(&opts.workload)),
        ("seed", Json::from(opts.seed)),
        ("seconds", Json::from(opts.seconds)),
        ("trace", Json::from(opts.trace)),
        ("cores", Json::from(cores())),
        ("fingerprint", Json::str(&run.fingerprint)),
        (
            "env",
            Json::obj(engine_env().into_iter().map(|(k, v)| (k, Json::str(v)))),
        ),
        (
            "setup_s",
            Json::Arr(run.setup_s.iter().map(|&s| Json::from(s)).collect()),
        ),
        ("attempts", Json::Arr(attempts.collect())),
        ("chosen_attempt", Json::from(run.chosen)),
        ("attempted", Json::from(run.attempted)),
        ("failed", Json::from(run.failed)),
        (
            "failed_ratio",
            Json::from(run.failed as f64 / run.attempted.max(1) as f64),
        ),
        (
            "errors",
            Json::Arr(run.errors.iter().map(Json::str).collect()),
        ),
        ("metrics", Json::obj(metrics)),
        (
            "latency",
            run.attempts
                .get(run.chosen)
                .map_or(Json::Null, metrics::tails),
        ),
        ("trace_detail", run.detail.clone().unwrap_or(Json::Null)),
    ])
}

/// Where the result file of one run goes.
pub fn result_path(out_dir: &Path, workload: &str, seed: u64, trace: bool) -> PathBuf {
    let kind = if trace { "trace" } else { "run" };
    out_dir.join(format!("{kind}-{workload}-seed{seed}.json"))
}

/// Write the result file (and, for a traced run, the spans) under
/// `opts.out_dir`; returns the result file's path.
pub fn write_files(opts: &Opts, run: &Run) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let path = result_path(&opts.out_dir, &opts.workload, opts.seed, opts.trace);
    std::fs::write(&path, format!("{}\n", result_file(opts, run)))?;
    if opts.trace {
        trace::write_jsonl(
            &opts.out_dir.join(format!("trace-{}.jsonl", opts.workload)),
            &run.spans,
        )?;
    }
    Ok(path)
}

/// Human-readable lines: every metric with its unit (and sample count),
/// the steal of each attempt and the failures.
pub fn print_human(opts: &Opts, run: &Run) {
    println!(
        "# {} seed={} trace={} cores={} fingerprint={}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        cores(),
        run.fingerprint
    );
    for (k, a) in run.attempts.iter().enumerate() {
        let mark = if k == run.chosen { " (reported)" } else { "" };
        println!(
            "#   attempt {}: {} ops in {:.2} s, steal {:.4}{mark}",
            k + 1,
            a.ops,
            a.elapsed_s,
            a.steal
        );
    }
    for m in &run.metrics {
        match m.samples {
            Some(n) => println!("{} = {} {} (n={n})", m.def.name, m.value, m.def.unit),
            None => println!("{} = {} {}", m.def.name, m.value, m.def.unit),
        }
    }
    if let (false, Some(a)) = (opts.trace, run.attempts.get(run.chosen)) {
        println!("#   latency (not gated) = {}", metrics::tails(a));
    }
    if let Some(Json::Obj(detail)) = &run.detail {
        for (key, v) in detail {
            match v {
                Json::Obj(items) => {
                    for (name, item) in items {
                        println!("#   {key}.{name} = {item}");
                    }
                }
                other => println!("#   {key} = {other}"),
            }
        }
    }
    println!(
        "# attempted {} failed {} failed_ratio {}",
        run.attempted,
        run.failed,
        run.failed as f64 / run.attempted.max(1) as f64
    );
    for e in &run.errors {
        println!("# error: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TINY;
    use crate::metrics::{END_TO_END, PER_LAYER};

    /// Run `workload` at the tiny sizes for `ops` timed operations; every
    /// check must pass and every metric of the run's kind be reported.
    fn smoke(workload: &str, ops: u64, trace: bool) -> Run {
        let opts = Opts {
            workload: workload.into(),
            seed: 3,
            seconds: 0.0,
            min_ops: ops,
            trace,
            sizes: TINY,
            out_dir: std::env::temp_dir()
                .join(format!("pgfmu-benchmark-smoke-{}", std::process::id())),
        };
        let r = run(&opts);
        assert_eq!(r.failed, 0, "{workload}: {:?}", r.errors);
        let expected = if trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        let names: Vec<&str> = r.metrics.iter().map(|m| m.def.name).collect();
        let wanted: Vec<&str> = expected.iter().map(|d| d.name).collect();
        assert_eq!(names, wanted);
        assert!(r
            .metrics
            .iter()
            .all(|m| m.value.is_finite() && m.value >= 0.0));
        let line = result_line(&r);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        r
    }

    fn metric(r: &Run, name: &str) -> f64 {
        r.metrics.iter().find(|m| m.def.name == name).unwrap().value
    }

    #[test]
    fn si_calibrate_smoke() {
        let r = smoke("si_calibrate", 4, false);
        assert!(metric(&r, "op_p50_ms") > 0.0 && metric(&r, "query_p50_us") > 0.0);
        let r = smoke("si_calibrate", 4, true);
        assert!(metric(&r, "fmi.share") > 0.0 && metric(&r, "estimation.evals_per_op") > 0.0);
        assert!(!r.spans.is_empty());
    }

    #[test]
    fn mi_calibrate_smoke() {
        smoke("mi_calibrate", 2, false);
        let r = smoke("mi_calibrate", 2, true);
        assert_eq!(metric(&r, "estimation.lo_share"), 1.0);
    }

    #[test]
    fn sim_store_smoke() {
        smoke("sim_store", 6, false);
        let r = smoke("sim_store", 6, true);
        assert!(metric(&r, "fmi.steps_per_op") > 0.0);
        assert_eq!(metric(&r, "estimation.evals_per_op"), 0.0);
    }

    #[test]
    fn ingest_query_smoke() {
        let r = smoke("ingest_query", 4, false);
        assert!(metric(&r, "query_p50_us") > 0.0);
        let r = smoke("ingest_query", 4, true);
        assert_eq!(metric(&r, "fmi.share"), 0.0);
        assert!(metric(&r, "sqlmini.share") > 0.5);
    }
}
