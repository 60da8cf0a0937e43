//! The repository benchmark: four pgFMU workflows timed end to end and,
//! in a separate traced run, per layer. See README.md.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S]
//!           [--trace 0|1] [--repeat N] [--out-dir DIR] [--save PATH]
//!           [--bounds PATH]
//! benchmark --compare A.json B.json [--bounds PATH]
//! ```
//!
//! With `--workload` one workload runs in this process and the last line
//! of standard output is its result as one JSON object. Without it every
//! workload runs, each in a child process of its own (so each peak RSS is
//! its own). `--repeat N` runs every workload N times on the seeds from
//! `--seed` up and prints each metric's median and spread; `--compare`
//! sets two such repeat files side by side against the bounds in
//! `BENCHMARK.json`. A timed phase lasts `--seconds` (and `mi_calibrate`
//! at least ten batches).

mod compare;
mod config;
mod json;
mod metrics;
mod parest;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use run::Opts;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--repeat N] [--out-dir DIR] [--save PATH] [--bounds PATH]\n       \
                     benchmark --compare A.json B.json [--bounds PATH]";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    compare: Option<(PathBuf, PathBuf)>,
    out_dir: PathBuf,
    save: Option<PathBuf>,
    bounds: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: config::DEFAULT_SEED,
        seconds: config::DEFAULT_SECONDS,
        trace: false,
        repeat: None,
        compare: None,
        out_dir: PathBuf::from("target/benchmark"),
        save: None,
        bounds: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if w != "all" {
                    if !workloads::NAMES.contains(&w.as_str()) {
                        return Err(format!(
                            "unknown workload '{w}' (one of {})",
                            workloads::NAMES.join(", ")
                        ));
                    }
                    a.workload = Some(w);
                }
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                a.seconds = s;
            }
            "--trace" => {
                // `--trace` alone means `--trace 1`.
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--repeat" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if n < 2 {
                    return Err("--repeat needs at least 2 runs".into());
                }
                a.repeat = Some(n);
            }
            "--compare" => {
                let x = value("two files")?;
                let y = value("two files")?;
                a.compare = Some((x.into(), y.into()));
            }
            "--out-dir" => a.out_dir = value("a directory")?.into(),
            "--save" => a.save = Some(value("a path")?.into()),
            "--bounds" => a.bounds = value("a path")?.into(),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("benchmark: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare::compare(a, b, &args.bounds);
    }
    if let Some(n) = args.repeat {
        return compare::repeat(&args, n);
    }
    match &args.workload {
        Some(w) => single(&args, w),
        None => all(&args),
    }
}

/// Run one workload in this process; the last output line is the result.
fn single(args: &Args, workload: &str) -> ExitCode {
    let opts = Opts {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        min_ops: 0,
        trace: args.trace,
        sizes: config::FULL,
        out_dir: args.out_dir.clone(),
    };
    let r = run::run(&opts);
    run::print_human(&opts, &r);
    match run::write_files(&opts, &r) {
        Ok(path) => println!("# results: {}", path.display()),
        Err(e) => eprintln!("benchmark: cannot write results: {e}"),
    }
    let line = run::result_line(&r);
    println!("{line}");
    if line.get("correct") == Some(&Json::Bool(true)) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run workload `w` in a child process; returns its result line.
pub(crate) fn child(args: &Args, w: &str, seed: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {w}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or("");
    Json::parse(last)
        .map_err(|e| format!("{w} printed no result ({e}); exit status {}", out.status))
}

/// Run every workload, each in its own child process.
fn all(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut results = Vec::new();
    for w in workloads::NAMES {
        match child(args, w, args.seed) {
            Ok(r) => {
                ok &= r.get("correct") == Some(&Json::Bool(true));
                results.push((w, r));
            }
            Err(e) => {
                eprintln!("benchmark: {e}");
                ok = false;
            }
        }
    }
    println!(
        "# summary (seed {}, {} s per workload, trace {})",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (w, r) in &results {
        let failed = r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let attempted = r.get("attempted").and_then(Json::as_f64).unwrap_or(1.0);
        println!(
            "{w}: correct={} failed_ratio={}",
            r.get("correct").unwrap_or(&Json::Null),
            failed / attempted
        );
        for (name, m) in r.get("metrics").map(Json::members).unwrap_or(&[]) {
            let v = m.get("value").unwrap_or(&Json::Null);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("  {name} = {v} {unit}");
        }
    }
    let summary = Json::obj(results);
    let path = args.out_dir.join(format!(
        "all-seed{}{}.json",
        args.seed,
        if args.trace { "-trace" } else { "" }
    ));
    if let Err(e) = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, format!("{summary}\n")))
    {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
    } else {
        println!("# results: {}", path.display());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse("--workload sim_store --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("sim_store"));
        assert_eq!((a.seed, a.trace), (7, true));
        assert_eq!(a.seconds, 12.0);
        assert!(parse("--ops 30").is_err());
        assert!(!parse("--trace 0").unwrap().trace);
        assert!(parse("--trace").unwrap().trace);
        assert!(parse("--workload all").unwrap().workload.is_none());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--bogus").is_err());
    }
}
