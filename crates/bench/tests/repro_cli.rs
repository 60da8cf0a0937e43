//! The `repro` command line: the usage error for names and flags it
//! does not take, and a smoke run of the fast table experiments. Never
//! run `repro` without arguments here: that runs every experiment and
//! takes minutes.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

#[test]
fn bench_and_out_are_usage_errors() {
    for args in [&["bench"][..], &["--out", "x"]] {
        let out = repro(args);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        // The first line names the bad argument; the usage follows.
        let (problem, usage) = stderr.split_once('\n').unwrap();
        assert!(problem.contains(args[0]), "{problem}");
        assert!(usage.starts_with("usage: repro "), "{stderr}");
        assert!(!usage.contains("bench"), "{usage}");
        assert!(!usage.contains("--out"), "{usage}");
    }
}

#[test]
fn table_experiments_run() {
    let out = repro(&["table1", "table2", "table3", "table4"]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for n in 1..=4 {
        assert!(stdout.contains(&format!("== Table {n}:")), "{stdout}");
    }
    assert!(stdout.contains("fewer lines (paper: ~22x)"), "{stdout}");
}
