//! `--repeat`: run every workload on several seeds and summarize each
//! metric's spread. `--compare`: set two such summaries side by side
//! against the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::metrics::FLOORS;
use crate::stats::{cores, median, quartiles, spread, Fingerprint};
use crate::{child, workloads, Args};

/// `name → (bound, higher is better)` for the end-to-end metrics.
type Bounds = BTreeMap<String, (f64, bool)>;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_bounds(path: &Path) -> Result<Bounds, String> {
    let doc = load(path)?;
    Ok(doc
        .get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            let bound = m.get("bound")?.as_f64()?;
            Some((name, (bound, m.get("better")?.as_str()? == "higher")))
        })
        .collect())
}

/// Run every workload (or the one named) `n` times, on seeds
/// `seed .. seed + n`, each run in its own process; print and save each
/// metric's median and quartile spread.
pub fn repeat(args: &Args, n: usize) -> ExitCode {
    let bounds = match load_bounds(&args.bounds) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("benchmark: {e}; spreads are not checked against bounds");
            Bounds::new()
        }
    };
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let seeds: Vec<u64> = (0..n as u64).map(|r| args.seed + r).collect();
    let mut ok = true;
    let mut per_workload = Vec::new();
    for w in &names {
        let mut runs: Vec<(u64, Json)> = Vec::new();
        let mut fp = Fingerprint::default();
        for &seed in &seeds {
            match child(args, w, seed) {
                Ok(line) => {
                    ok &= line.get("correct") == Some(&Json::Bool(true));
                    runs.push((seed, line));
                }
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    ok = false;
                }
            }
            let file = crate::run::result_path(&args.out_dir, w, seed, args.trace);
            let run_fp = load(&file)
                .ok()
                .and_then(|r| {
                    r.get("fingerprint")
                        .and_then(Json::as_str)
                        .map(String::from)
                })
                .unwrap_or_default();
            fp.u64(seed);
            fp.str(&run_fp);
        }
        per_workload.push((w.to_string(), summarize(&runs, &bounds, fp.hex())));
    }
    let set = Json::obj([
        ("kind", Json::str("repeat")),
        (
            "seeds",
            Json::Arr(seeds.iter().map(|&s| Json::from(s)).collect()),
        ),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::from(args.trace)),
        ("cores", Json::from(cores())),
        ("workloads", Json::obj(per_workload)),
    ]);
    print_set(&set);
    let path = args.save.clone().unwrap_or_else(|| {
        let trace = if args.trace { "-trace" } else { "" };
        args.out_dir
            .join(format!("repeat-seed{}x{n}{trace}.json", args.seed))
    });
    match std::fs::create_dir_all(path.parent().unwrap_or(Path::new(".")))
        .and_then(|()| std::fs::write(&path, format!("{set}\n")))
    {
        Ok(()) => println!("# saved: {}", path.display()),
        Err(e) => {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Per metric: every value, median, quartiles, spread and — for the
/// end-to-end metrics — the bound and whether the spread exceeds it.
fn summarize(runs: &[(u64, Json)], bounds: &Bounds, fingerprint: String) -> Json {
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    for (_, line) in runs {
        for (name, m) in line.get("metrics").map(Json::members).unwrap_or(&[]) {
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            let entry = values.entry(name.clone()).or_insert((unit, Vec::new()));
            entry.1.extend(m.get("value").and_then(Json::as_f64));
        }
    }
    let metrics = values.into_iter().map(|(name, (unit, v))| {
        let (q1, q3) = quartiles(&v).unwrap_or((f64::NAN, f64::NAN));
        let sp = spread(&v).unwrap_or(f64::NAN);
        let mut fields = vec![
            ("unit", Json::str(unit)),
            (
                "values",
                Json::Arr(v.iter().map(|&x| Json::from(x)).collect()),
            ),
            ("median", Json::from(median(&v).unwrap_or(f64::NAN))),
            ("q1", Json::from(q1)),
            ("q3", Json::from(q3)),
            ("spread", Json::from(sp)),
        ];
        if let Some(&(bound, _)) = bounds.get(&name) {
            let bound = effective_bound(&name, bound, median(&v).unwrap_or(0.0));
            fields.push(("bound", Json::from(bound)));
            fields.push(("flagged", Json::from(sp > bound)));
        }
        (name, Json::obj(fields))
    });
    Json::obj([
        ("fingerprint", Json::str(fingerprint)),
        (
            "correct",
            Json::Arr(
                runs.iter()
                    .map(|(_, l)| l.get("correct").cloned().unwrap_or(Json::Null))
                    .collect(),
            ),
        ),
        ("metrics", Json::obj(metrics)),
    ])
}

fn print_set(set: &Json) {
    println!(
        "# repeat over seeds {}",
        set.get("seeds").unwrap_or(&Json::Null)
    );
    for (w, s) in set.get("workloads").map(Json::members).unwrap_or(&[]) {
        println!(
            "{w} (fingerprint {}):",
            s.get("fingerprint").unwrap_or(&Json::Null)
        );
        for (name, m) in s.get("metrics").map(Json::members).unwrap_or(&[]) {
            let num = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            let bound = m.get("bound").and_then(Json::as_f64);
            let flag = if m.get("flagged") == Some(&Json::Bool(true)) {
                "  SPREAD ABOVE BOUND"
            } else {
                ""
            };
            let bound = bound.map_or(String::new(), |b| format!(" bound {b:.3}"));
            println!(
                "  {name:<34} median {:.6} {unit} [q1 {:.6}, q3 {:.6}] spread {:.4}{bound}{flag}",
                num("median"),
                num("q1"),
                num("q3"),
                num("spread")
            );
        }
    }
}

/// A metric's relative bound, widened so that it never reads tighter than
/// the metric's absolute floor (see [`FLOORS`]) at `median`.
pub fn effective_bound(name: &str, bound: f64, median: f64) -> f64 {
    let floor = FLOORS
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |&(_, f)| f);
    if median.abs() > 0.0 {
        bound.max(floor / median.abs())
    } else {
        bound
    }
}

/// The verdict for one metric: `b` (the change) against `a` (the parent).
///
/// *worse* / *better* when `b`'s median moved past the bound in that
/// direction, *unchanged* when it stayed within it, *unresolved* when
/// either side's own spread is wider than the bound — unless every run of
/// one side beats every run of the other.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, higher_is_better: bool) -> &'static str {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return "unresolved";
    };
    // Positive when b is worse.
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    let noisy = spread(a).is_none_or(|s| s > bound) || spread(b).is_none_or(|s| s > bound);
    if noisy {
        let better = |x: f64, y: f64| sign * (x - y) < 0.0;
        if b.iter().all(|&y| a.iter().all(|&x| better(y, x))) {
            "better"
        } else if b.iter().all(|&y| a.iter().all(|&x| better(x, y))) {
            "worse"
        } else {
            "unresolved"
        }
    } else if worse_by > bound {
        "worse"
    } else if worse_by < -bound {
        "better"
    } else {
        "unchanged"
    }
}

/// Compare two `--repeat` files, workload by workload and metric by
/// metric. Refuses (exit 2) when their inputs, run length, tracing or core
/// counts differ.
pub fn compare(a_path: &Path, b_path: &Path, bounds_path: &Path) -> ExitCode {
    let loaded = load(a_path).and_then(|a| Ok((a, load(b_path)?, load_bounds(bounds_path)?)));
    let (a, b, bounds) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let (wa, wb) = (a.get("workloads"), b.get("workloads"));
    let mut any_worse = false;
    let mut rows = Vec::new();
    for (w, sa) in wa.map(Json::members).unwrap_or(&[]) {
        let Some(sb) = wb.and_then(|x| x.get(w)) else {
            continue;
        };
        let (fa, fb) = (sa.get("fingerprint"), sb.get("fingerprint"));
        let same = |k: &str| a.get(k) == b.get(k);
        if fa != fb || !same("trace") || !same("seconds") || !same("cores") {
            let pair = |k: &str| {
                format!(
                    "{k} {} vs {}",
                    a.get(k).unwrap_or(&Json::Null),
                    b.get(k).unwrap_or(&Json::Null)
                )
            };
            eprintln!(
                "benchmark: refusing to compare {w}: inputs differ (fingerprint {} vs {}, {}, {}, {})",
                fa.unwrap_or(&Json::Null),
                fb.unwrap_or(&Json::Null),
                pair("trace"),
                pair("seconds"),
                pair("cores")
            );
            return ExitCode::from(2);
        }
        for (name, &(bound, higher)) in &bounds {
            let vals = |s: &Json| -> Vec<f64> {
                s.get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("values"))
                    .map(|v| v.as_arr().iter().filter_map(Json::as_f64).collect())
                    .unwrap_or_default()
            };
            let (va, vb) = (vals(sa), vals(sb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (
                median(&va).unwrap_or(f64::NAN),
                median(&vb).unwrap_or(f64::NAN),
            );
            let bound = effective_bound(name, bound, ma);
            let v = verdict(&va, &vb, bound, higher);
            any_worse |= v == "worse";
            rows.push(format!(
                "{w:<14} {name:<14} {ma:>14.6} {mb:>14.6} {:>+8.2}% {:>7.3} {:>7.3} {bound:>6.3}  {v}",
                100.0 * (mb - ma) / ma,
                spread(&va).unwrap_or(f64::NAN),
                spread(&vb).unwrap_or(f64::NAN),
            ));
        }
    }
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "change", "sprd A", "sprd B", "bound"
    );
    for r in rows {
        println!("{r}");
    }
    if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.8, 99.1, 100.1, 99.9];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(verdict(&a, &same, 0.1, false), "unchanged");
        assert_eq!(verdict(&a, &slower, 0.1, false), "worse");
        assert_eq!(verdict(&slower, &a, 0.1, false), "better");
        // For a throughput, higher is better.
        assert_eq!(verdict(&a, &slower, 0.1, true), "better");
        // Spread wider than the bound and overlapping runs: unresolved.
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(verdict(&a, &noisy, 0.1, false), "unresolved");
        // Noisy but every run worse than every parent run: worse.
        let noisy_slow = [150.0, 250.0, 200.0, 180.0, 220.0];
        assert_eq!(verdict(&a, &noisy_slow, 0.1, false), "worse");
    }

    #[test]
    fn floors_widen_small_bounds() {
        // 20 ms of set-up: the 0.05 s floor is 250 % of it.
        assert!((effective_bound("setup_s", 0.2, 0.02) - 2.5).abs() < 1e-12);
        // 2 s of set-up: the relative bound is the wider.
        assert_eq!(effective_bound("setup_s", 0.2, 2.0), 0.2);
        assert_eq!(effective_bound("peak_rss_mb", 0.1, 20.0), 0.25);
        assert_eq!(effective_bound("op_p50_ms", 0.1, 0.001), 0.1);
        // A set-up 40 % slower but 8 ms longer is not a regression.
        let a = [0.020, 0.021, 0.019];
        let b = [0.028, 0.029, 0.027];
        let bound = effective_bound("setup_s", 0.2, median(&a).unwrap());
        assert_eq!(verdict(&a, &b, bound, false), "unchanged");
    }
}
