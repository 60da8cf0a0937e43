//! The statistics registry behind `pgfmu_stats()`.
//!
//! Every row of `pgfmu_stats()` is declared once, by one entry of the
//! table below: its [`Stat`] variant, its SQL name and its meaning. The
//! table's order is the row order. [`Database::stat`] reads a statistic,
//! `pgfmu_stats()` loops over [`Stat::ALL`], and the README's statistics
//! table is rendered from the same entries (a test of the umbrella crate
//! keeps it in step). Adding a statistic takes one entry here and one
//! call to `Database::bump` where the event happens.
//!
//! [`Database::stat`]: crate::Database::stat

/// Declares [`Stat`] from `Variant => "sql_name", "Meaning.";` entries.
macro_rules! registry {
    ($($var:ident => $name:literal, $doc:literal;)*) => {
        /// One row of `pgfmu_stats()`, read with
        /// [`Database::stat`](crate::Database::stat). Each variant's doc is
        /// the meaning [`Stat::doc`] returns.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Stat {
            $(#[doc = $doc] $var,)*
        }

        impl Stat {
            /// Every statistic, in `pgfmu_stats()` row order.
            pub const ALL: &'static [Stat] = &[$(Stat::$var),*];

            /// The row's `stat` value in `pgfmu_stats()`.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Stat::$var => $name,)*
                }
            }

            /// What the statistic reports.
            pub const fn doc(self) -> &'static str {
                match self {
                    $(Stat::$var => $doc,)*
                }
            }
        }
    };
}

registry! {
    Parses => "parses", "Statements parsed since session start (cache misses).";
    CacheHits => "cache_hits", "Prepared-statement cache hits.";
    PlansBuilt => "plans_built", "Physical plans compiled (first executions, post-DDL recompiles, uncached runs).";
    PlanCacheHits => "plan_cache_hits", "Executions that reused a statement's shared compiled plan — re-running a prepared statement performs no re-planning.";
    AggEvals => "agg_evals", "Aggregate folds performed by the grouping operator: each *distinct* aggregate call counts once per group, however often it appears across select list, HAVING and ORDER BY.";
    RowsScanned => "rows_scanned", "Snapshot-visible source rows examined by table scans (zero-copy or materializing).";
    ScansZeroCopy => "scans_zero_copy", "Scans that ran directly over a table's version storage — single-table statements whose scan-side expressions cannot re-enter the database (incl. UPDATE/DELETE under the write guard and the batched streaming cursor).";
    ScanFallbacks => "scan_fallbacks", "Table scans that copied the visible rows out instead: each table of a join or of a FROM that calls a function, and single-table statements with re-entrant expressions. A SELECT clones only the columns it reads.";
    StmtCacheSize => "stmt_cache_size", "Statement-cache entries currently held.";
    StmtCacheCapacity => "stmt_cache_capacity", "Statement-cache LRU bound (default 256).";
    TxnsCommitted => "txns_committed", "Explicit transactions ended by a successful `COMMIT`.";
    TxnsRolledBack => "txns_rolled_back", "Explicit transactions undone — by `ROLLBACK`, or by `COMMIT` on an aborted transaction.";
    VersionsGc => "versions_gc", "Dead row versions reclaimed by garbage collection (opportunistic write-path compaction + `vacuum`), bounded by the oldest pinned snapshot.";
    IndexScans => "index_scans", "Single-table scans — SELECT, UPDATE and DELETE alike — that probed a secondary index for their candidate rows (point or range).";
    SeqScans => "seq_scans", "Single-table scans that walked every visible row instead — no usable index, a predicate the index cannot serve, or a cost estimate favouring the sweep.";
    HashJoins => "hash_joins", "Equi-joins executed by building a hash table over the smaller side instead of nested-looping the cross product.";
    AnalyzeRuns => "analyze_runs", "Statistics passes, counting both explicit `ANALYZE`/`pgfmu_analyze()` and the planner's automatic refresh of stale tables.";
    BatchesFilled => "batches_filled", "Column-major batches materialized from a zero-copy scan by the vectorized executor.";
    VectorizedOps => "vectorized_ops", "Vectorized operator executions: one per batch aggregated, sorted, or reduced to a bounded top-K.";
    VectorizedFallbacks => "vectorized_fallbacks", "Statements classified batch-eligible at plan time that abandoned the batch at run time (overflow, NaN comparison, type mismatch) and re-ran the scalar executor over the same snapshot.";
    FleetTasks => "fleet_tasks", "Tasks executed by fleet fan-out (`fmu_simulate_fleet` / `fmu_parest_fleet`): one per instance simulated or batch estimated.";
    FleetWorkers => "fleet_workers", "Largest worker-pool width any fleet call has run with.";
    FleetTaskNs => "fleet_task_ns", "Cumulative wall time spent inside fleet tasks, in nanoseconds (sums across workers, so it can exceed elapsed time).";
    ShardCount => "shard_count", "Independently locked version-storage shards per table (`PGFMU_TABLE_SHARDS`, default `min(cores, 16)` rounded up to a power of two; `1` reproduces the unsharded engine exactly).";
    WriteShardWaits => "write_shard_waits", "Appends (any INSERT into a table without a unique index) that found their home shard's lock contended and had to block — the signal that ingest threads outnumber shards.";
}
