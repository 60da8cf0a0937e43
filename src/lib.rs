//! Workspace-level umbrella for the pgFMU-rs reproduction.
//!
//! This package exists to host the runnable `examples/` and the
//! cross-crate integration tests in `tests/`; the library surface simply
//! re-exports the member crates so examples can depend on one name.
//!
//! The crate-level documentation below is the repository `README.md`,
//! included verbatim so its code blocks are compiled and run as doc-tests
//! (`cargo test --doc -p pgfmu-rs`) — the README cannot silently rot.
#![doc = include_str!("../README.md")]

pub use pgfmu;
pub use pgfmu_analytics as analytics;
pub use pgfmu_baseline as baseline;
pub use pgfmu_catalog as catalog;
pub use pgfmu_datagen as datagen;
pub use pgfmu_estimation as estimation;
pub use pgfmu_fmi as fmi;
pub use pgfmu_modelica as modelica;
pub use pgfmu_sqlmini as sqlmini;

#[cfg(test)]
mod tests {
    #[test]
    fn umbrella_re_exports_compose() {
        let session = pgfmu::PgFmu::new().unwrap();
        session
            .execute("SELECT fmu_create('HP0', 'smoke')")
            .unwrap();
        let q = session
            .execute("SELECT count(*) FROM modelinstance")
            .unwrap();
        assert_eq!(q.rows[0][0], crate::sqlmini::Value::Int(1));
    }

    /// The README's `pgfmu_stats()` table: one row per registry statistic,
    /// then the per-UDF call counters.
    fn stats_table() -> String {
        let mut table = String::from("| `stat` | Meaning |\n|---|---|\n");
        for s in crate::sqlmini::Stat::ALL {
            table += &format!("| `{}` | {} |\n", s.name(), s.doc());
        }
        table + "| `calls.<name>` | Invocations of each typed UDF, e.g. `calls.fmu_simulate`. |\n"
    }

    #[test]
    fn readme_stats_table_matches_the_registry() {
        let table = stats_table();
        assert!(
            include_str!("../README.md").contains(&table),
            "README.md's pgfmu_stats() table is out of date; replace it with:\n\n{table}"
        );
    }

    #[test]
    fn pgfmu_stats_rows_keep_their_names_and_order() {
        // Clients (the benchmark among them) read these rows by name, so
        // renaming or reordering one changes the published surface.
        let expected = [
            "parses",
            "cache_hits",
            "plans_built",
            "plan_cache_hits",
            "agg_evals",
            "rows_scanned",
            "scans_zero_copy",
            "scan_fallbacks",
            "stmt_cache_size",
            "stmt_cache_capacity",
            "txns_committed",
            "txns_rolled_back",
            "versions_gc",
            "index_scans",
            "seq_scans",
            "hash_joins",
            "analyze_runs",
            "batches_filled",
            "vectorized_ops",
            "vectorized_fallbacks",
            "fleet_tasks",
            "fleet_workers",
            "fleet_task_ns",
            "shard_count",
            "write_shard_waits",
        ];
        let db = crate::sqlmini::Database::new();
        db.execute("SELECT sqrt(4.0)").unwrap();
        let rows: Vec<String> = db.query_as("SELECT stat FROM pgfmu_stats()", &[]).unwrap();
        assert_eq!(rows[..expected.len()], expected);
        // Then one `calls.<name>` row per UDF called so far, sorted by name.
        assert_eq!(rows[expected.len()..], ["calls.pgfmu_stats", "calls.sqrt"]);
    }
}
