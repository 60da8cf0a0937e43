//! The metrics the benchmark reports, and how each is computed from a run.
//!
//! Names and units are listed here; `BENCHMARK.json` at the repository
//! root repeats them with each metric's direction and regression bound (a
//! test keeps the two in step).

use std::collections::BTreeMap;

use crate::json::Json;
use crate::run::{Attempt, Run};
use crate::stats::{median, nearest_rank};
use crate::trace::{self_times, Span};

/// A metric's name and unit. Which direction is better, and the bound,
/// are in `BENCHMARK.json` only.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// End-to-end metrics, reported by every untraced run. Tail percentiles
/// are reported too (see [`tails`]) but not gated: on a shared 2-vCPU
/// host they moved 25–35 % between identical runs.
pub const END_TO_END: [Def; 5] = [
    def("setup_s", "s"),
    def("ops_per_s", "1/s"),
    def("op_p50_ms", "ms"),
    def("query_p50_us", "us"),
    def("peak_rss_mb", "MiB"),
];

/// Absolute change under which `--compare` calls an end-to-end metric
/// unchanged whatever its relative bound: a set-up of a few milliseconds or
/// a peak RSS of a few MiB moves by more than 10 % from noise alone.
pub const FLOORS: [(&str, f64); 2] = [("setup_s", 0.05), ("peak_rss_mb", 5.0)];

/// Consecutive slices of a timed phase's operations that `ops_per_s` is
/// the median over.
const SLICES: usize = 5;

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: [Def; 18] = [
    def("fmi.share", "ratio"),
    def("estimation.share", "ratio"),
    def("catalog.share", "ratio"),
    def("core.share", "ratio"),
    def("sqlmini.share", "ratio"),
    def("sqlmini.us_per_op", "us"),
    def("fmi.steps_per_ms", "1/ms"),
    def("fmi.steps_per_op", "count"),
    def("estimation.evals_per_op", "count"),
    def("estimation.evals_per_s", "1/s"),
    def("estimation.glue_share", "ratio"),
    def("estimation.lo_share", "ratio"),
    def("sqlmini.rows_scanned_per_op", "count"),
    def("sqlmini.index_scan_share", "ratio"),
    def("sqlmini.plan_cache_hit_ratio", "ratio"),
    def("sqlmini.vectorized_fallback_ratio", "ratio"),
    def("sqlmini.versions_gc_per_op", "count"),
    def("trace_overhead", "ratio"),
];

/// Layers a span can belong to; `bench` is the benchmark's own code.
pub const LAYERS: [&str; 6] = ["bench", "sqlmini", "catalog", "core", "estimation", "fmi"];

/// One reported value, with the sample count behind it where it is a
/// percentile.
#[derive(Debug, Clone)]
pub struct Value {
    /// The metric.
    pub def: Def,
    /// Its value.
    pub value: f64,
    /// Samples behind a percentile.
    pub samples: Option<usize>,
}

fn value(def: Def, value: f64, samples: Option<usize>) -> Value {
    Value {
        def,
        value,
        samples,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics of an untraced run's chosen attempt.
pub fn end_to_end(run: &Run, a: &Attempt, peak_rss_mib: f64) -> Vec<Value> {
    let pct = |s: &[f64], p| nearest_rank(s, p).unwrap_or(0.0);
    END_TO_END
        .iter()
        .map(|&def| match def.name {
            "setup_s" => value(
                def,
                median(&run.setup_s).unwrap_or(0.0),
                Some(run.setup_s.len()),
            ),
            "ops_per_s" => value(def, ops_per_s(&a.op_end_s), Some(a.op_end_s.len())),
            "op_p50_ms" => value(def, pct(&a.op_ms, 50.0), Some(a.op_ms.len())),
            "query_p50_us" => value(def, pct(&a.query_us, 50.0), Some(a.query_us.len())),
            "peak_rss_mb" => value(def, peak_rss_mib, None),
            other => unreachable!("no rule for end-to-end metric {other}"),
        })
        .collect()
}

/// Throughput as the median over [`SLICES`] consecutive slices of the
/// phase's operations (`op_end_s`: completion times since the phase
/// began), so that a burst of interference moves one slice, not the rate.
/// Everything between operations — rollups, vacuums, reads — is inside
/// some slice.
pub fn ops_per_s(op_end_s: &[f64]) -> f64 {
    let n = op_end_s.len();
    let slices = SLICES.min(n);
    let rates: Vec<f64> = (0..slices)
        .map(|k| {
            let (lo, hi) = (k * n / slices, (k + 1) * n / slices);
            let start = if lo == 0 { 0.0 } else { op_end_s[lo - 1] };
            ratio((hi - lo) as f64, op_end_s[hi - 1] - start)
        })
        .collect();
    median(&rates).unwrap_or(0.0)
}

/// Nearest-rank p50, p90, p95 and p99 of operation and query latencies,
/// with their sample counts: reported, not gated.
pub fn tails(a: &Attempt) -> Json {
    let summary = |s: &[f64]| {
        let mut fields: Vec<(String, Json)> = [50.0, 90.0, 95.0, 99.0]
            .iter()
            .map(|&p| {
                (
                    format!("p{p}"),
                    nearest_rank(s, p).map_or(Json::Null, Json::from),
                )
            })
            .collect();
        fields.push(("samples".into(), Json::from(s.len())));
        Json::Obj(fields)
    };
    Json::obj([
        ("op_ms", summary(&a.op_ms)),
        ("query_us", summary(&a.query_us)),
    ])
}

/// Self time per layer over the traced operations of `spans`, after the
/// replay carves, and the summed wall time of those operations.
pub fn layer_ns(
    spans: &[Span],
    carves: &[(&str, &str, f64)],
) -> (BTreeMap<&'static str, f64>, f64) {
    let mut layers: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
    let mut total = 0.0;
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        *layers.entry(s.layer()).or_default() += self_ns as f64;
        if s.parent.is_none() {
            total += s.duration_ns() as f64;
        }
    }
    for &(from, to, ns) in carves {
        if let Some(v) = layers.get_mut(from) {
            *v -= ns;
        }
        if let Some(v) = layers.get_mut(to) {
            *v += ns;
        }
    }
    (layers, total)
}

/// Engine counters from `SELECT stat, value FROM pgfmu_stats()`.
pub type Counters = BTreeMap<String, i64>;

/// Counter growth between two snapshots.
fn delta(before: &Counters, after: &Counters, stat: &str) -> f64 {
    (after.get(stat).copied().unwrap_or(0) - before.get(stat).copied().unwrap_or(0)) as f64
}

/// The per-layer metrics of a traced run's chosen attempt.
pub fn per_layer(a: &Attempt, spans: &[Span]) -> Vec<Value> {
    let log = &a.layers;
    let (layers, total) = layer_ns(spans, &log.carves);
    let traced_ops = spans.iter().filter(|s| s.parent.is_none()).count() as f64;
    // Carves are modelled, so a layer can come out slightly negative:
    // read it as 0.
    let layer = |l: &str| layers[l].max(0.0);
    let share = |l: &str| ratio(layer(l), total);
    let (before, after) = (&a.counters_before, &a.counters_after);
    let d = |stat: &str| delta(before, after, stat);
    let ops = a.ops as f64;
    let untraced_p50 = nearest_rank(&a.untraced_op_ms, 50.0).unwrap_or(0.0);
    let traced_p50 = nearest_rank(&a.traced_op_ms, 50.0).unwrap_or(0.0);
    PER_LAYER
        .iter()
        .map(|&def| {
            let v = match def.name {
                "fmi.share" => share("fmi"),
                "estimation.share" => share("estimation"),
                "catalog.share" => share("catalog"),
                "core.share" => share("core"),
                "sqlmini.share" => share("sqlmini"),
                "sqlmini.us_per_op" => ratio(layer("sqlmini"), traced_ops) / 1e3,
                "fmi.steps_per_ms" => ratio(log.fmi_steps as f64, layer("fmi") / 1e6),
                "fmi.steps_per_op" => ratio(log.fmi_steps as f64, traced_ops),
                "estimation.evals_per_op" => ratio(log.evals as f64, traced_ops),
                "estimation.evals_per_s" => ratio(log.evals as f64, log.eval_ns / 1e9),
                // Like the shares, clamped at 0 when the replay reads slower
                // than the evaluations it models.
                "estimation.glue_share" => {
                    ratio((log.eval_ns - log.eval_solver_ns).max(0.0), log.eval_ns)
                }
                "estimation.lo_share" => ratio(log.lo_tail.0 as f64, log.lo_tail.1 as f64),
                "sqlmini.rows_scanned_per_op" => ratio(d("rows_scanned"), ops),
                "sqlmini.index_scan_share" => {
                    ratio(d("index_scans"), d("index_scans") + d("seq_scans"))
                }
                "sqlmini.plan_cache_hit_ratio" => ratio(
                    d("plan_cache_hits"),
                    d("plan_cache_hits") + d("plans_built"),
                ),
                "sqlmini.vectorized_fallback_ratio" => ratio(
                    d("vectorized_fallbacks"),
                    d("vectorized_ops") + d("vectorized_fallbacks"),
                ),
                "sqlmini.versions_gc_per_op" => ratio(d("versions_gc"), ops),
                "trace_overhead" => ratio(traced_p50, untraced_p50),
                other => unreachable!("no rule for per-layer metric {other}"),
            };
            value(def, v, None)
        })
        .collect()
}

/// Per-call detail of a traced run for the result file: for every span
/// name its calls per traced operation and p50 wall time, per layer its
/// self time per operation, and the workloads' own named samples (p50).
pub fn trace_detail(a: &Attempt, spans: &[Span]) -> Json {
    let traced_ops = spans.iter().filter(|s| s.parent.is_none()).count().max(1) as f64;
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by_name
            .entry(s.name)
            .or_default()
            .push(s.duration_ns() as f64 / 1e3);
    }
    let calls = Json::obj(by_name.iter().map(|(name, us)| {
        (
            name.to_string(),
            Json::obj([
                ("calls_per_op", Json::from(us.len() as f64 / traced_ops)),
                ("p50_us", Json::from(nearest_rank(us, 50.0).unwrap_or(0.0))),
                ("samples", Json::from(us.len())),
            ]),
        )
    }));
    let (layers, total) = layer_ns(spans, &a.layers.carves);
    let layer_ms = Json::obj(
        layers
            .iter()
            .map(|(l, ns)| (l.to_string(), Json::from(ns / traced_ops / 1e6))),
    );
    let samples = Json::obj(a.layers.samples.iter().map(|(name, v)| {
        (
            name.to_string(),
            Json::obj([
                ("p50", Json::from(nearest_rank(v, 50.0).unwrap_or(0.0))),
                ("samples", Json::from(v.len())),
            ]),
        )
    }));
    Json::obj([
        ("traced_ops", Json::from(traced_ops)),
        ("traced_op_ms", Json::from(total / traced_ops / 1e6)),
        ("layer_self_ms_per_op", layer_ms),
        ("calls", calls),
        ("samples", samples),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly these
    /// metrics, in this order, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            eprintln!("{path} not found; skipping");
            return;
        };
        let doc = Json::parse(&text).unwrap();
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let field =
                |m: &Json, f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
            let listed: Vec<(String, String)> = doc
                .get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect();
            let expected: Vec<(String, String)> = defs
                .iter()
                .map(|d| (d.name.into(), d.unit.into()))
                .collect();
            assert_eq!(listed, expected, "{key} in BENCHMARK.json");
        }
    }

    #[test]
    fn throughput_is_the_median_slice() {
        // Ten operations a second, except one slow slice.
        let mut ends: Vec<f64> = (1..=50).map(|i| f64::from(i) / 10.0).collect();
        for t in &mut ends[20..] {
            *t += 3.0;
        }
        assert!((ops_per_s(&ends) - 10.0).abs() < 1e-9);
        assert_eq!(ops_per_s(&[2.0, 4.0]), 0.5);
        assert_eq!(ops_per_s(&[]), 0.0);
    }

    #[test]
    fn carves_move_time_between_layers() {
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            op_id: 0,
            parent,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span("bench.op", None, 0, 1000),
            span("estimation.estimate", Some(0), 0, 800),
            span("sqlmini.read", Some(0), 800, 900),
        ];
        let (layers, total) = layer_ns(&spans, &[("estimation", "fmi", 600.0)]);
        assert_eq!(total, 1000.0);
        assert_eq!(layers["estimation"], 200.0);
        assert_eq!(layers["fmi"], 600.0);
        assert_eq!(layers["sqlmini"], 100.0);
        assert_eq!(layers["bench"], 100.0);
    }
}
