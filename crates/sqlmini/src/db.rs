//! The [`Database`]: table storage, function registries, statement cache.
//!
//! All methods take `&self`; interior mutability with per-table locks lets
//! UDFs re-enter the database (e.g. `fmu_parest` executing its `input_sql`)
//! without deadlocking, because the executor never holds a table lock while
//! a UDF runs — a statement that may call one copies the rows it reads out
//! of the table first.
//!
//! The statement cache implements the paper's "prepared SQL queries"
//! optimization (§7): repeated query texts skip the parser. It is keyed on
//! the query text only — `$n` bind values vary per call — and bounded by an
//! LRU policy (default 256 entries, see
//! [`Database::set_stmt_cache_capacity`]) so a workload of millions of
//! distinct texts cannot leak memory.
//!
//! Each cached statement also carries its compiled physical plan
//! (built lazily on first execution): repeated executions reuse the
//! shared `Arc<PhysicalPlan>` without re-resolving a single expression.
//! Plans are invalidated by DDL through a schema epoch that CREATE/DROP
//! TABLE bump; `plans_built` / `plan_cache_hits` / `agg_evals` counters
//! surface the planner's behaviour through `pgfmu_stats()`.
//!
//! The client surface follows the PostgreSQL extended protocol shape:
//! [`Database::prepare`] returns a [`Statement`] handle; binding values to
//! its `$1..$n` placeholders with [`Statement::query`] (or streaming them
//! with [`Statement::query_rows`]) skips both re-parsing and literal
//! quoting entirely.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;

use parking_lot::{Mutex, RwLock};

use crate::ast::{self, Stmt};
use crate::counters::Stat;
use crate::decode::FromRow;
use crate::error::{Result, SqlError};
use crate::exec::{self, Rows};
use crate::functions::{self, ScalarFn, TableFn};
use crate::parser;
use crate::plan::{self, PhysicalPlan};
use crate::stats::{self, TableStats};
use crate::table::{QueryResult, Row, Snapshot, Table, UNCOMMITTED};
use crate::value::Value;

/// Default bound on the number of cached prepared statements.
pub const DEFAULT_STMT_CACHE_CAPACITY: usize = 256;

/// One parsed statement plus its lazily compiled physical plan, shared by
/// every [`Statement`] handle with the same text.
pub(crate) struct Prepared {
    stmt: Arc<Stmt>,
    n_params: usize,
    /// `(schema epoch at compile time, compiled plan)`. Recompiled when
    /// the database's schema epoch has moved (DDL ran).
    plan: Mutex<Option<(u64, Arc<PhysicalPlan>)>>,
}

impl Prepared {
    fn new(stmt: Arc<Stmt>, n_params: usize) -> Self {
        Prepared {
            stmt,
            n_params,
            plan: Mutex::new(None),
        }
    }
}

struct CacheEntry {
    prepared: Arc<Prepared>,
    /// Last-use tick for LRU eviction.
    tick: u64,
}

/// Text-keyed LRU statement cache.
struct StmtCache {
    map: HashMap<String, CacheEntry>,
    tick: u64,
    capacity: usize,
}

impl StmtCache {
    fn new(capacity: usize) -> Self {
        StmtCache {
            map: HashMap::new(),
            tick: 0,
            capacity,
        }
    }

    fn get(&mut self, sql: &str) -> Option<Arc<Prepared>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(sql).map(|e| {
            e.tick = tick;
            Arc::clone(&e.prepared)
        })
    }

    fn insert(&mut self, sql: String, prepared: Arc<Prepared>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        self.map.insert(sql, CacheEntry { prepared, tick });
        self.shrink_to(self.capacity);
    }

    /// Evict least-recently-used entries until at most `cap` remain. The
    /// linear scan is fine at the default capacity of a few hundred.
    fn shrink_to(&mut self, cap: usize) {
        while self.map.len() > cap {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
            } else {
                break;
            }
        }
    }
}

/// A prepared statement: a parsed plan bound to its database, executable
/// any number of times with different `$n` parameter values.
///
/// ```
/// use pgfmu_sqlmini::{Database, Value};
///
/// let db = Database::new();
/// db.execute("CREATE TABLE m (ts timestamp, x float)").unwrap();
/// let insert = db.prepare("INSERT INTO m VALUES ($1, $2)").unwrap();
/// insert.query(&["2015-02-01 00:00".into(), 20.75.into()]).unwrap();
/// insert.query(&["2015-02-01 01:00".into(), 23.62.into()]).unwrap();
/// let hot = db.prepare("SELECT x FROM m WHERE x > $1").unwrap();
/// assert_eq!(hot.query(&[21.0.into()]).unwrap().len(), 1);
/// ```
///
/// Placeholders bind anywhere an expression is legal, including grouped
/// aggregation clauses — the plan is cached once, the HAVING threshold
/// varies per execution:
///
/// ```
/// use pgfmu_sqlmini::{params, Database};
///
/// let db = Database::new();
/// db.execute("CREATE TABLE m (site text, x float)").unwrap();
/// db.execute("INSERT INTO m VALUES ('a', 1.0), ('a', 2.0), ('b', 9.0)").unwrap();
/// let per_site = db
///     .prepare("SELECT site, sum(x) FROM m GROUP BY site HAVING sum(x) > $1 ORDER BY site")
///     .unwrap();
/// let rows: Vec<(String, f64)> = per_site.query_as(params![2.0]).unwrap();
/// assert_eq!(rows, vec![("a".into(), 3.0), ("b".into(), 9.0)]);
/// let rows: Vec<(String, f64)> = per_site.query_as(params![5.0]).unwrap();
/// assert_eq!(rows, vec![("b".into(), 9.0)]);
/// ```
pub struct Statement<'db> {
    db: &'db Database,
    prepared: Arc<Prepared>,
}

impl std::fmt::Debug for Statement<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Statement")
            .field("n_params", &self.prepared.n_params)
            .finish_non_exhaustive()
    }
}

impl<'db> Statement<'db> {
    /// The number of `$n` parameters this statement requires.
    pub fn n_params(&self) -> usize {
        self.prepared.n_params
    }

    fn check_binds(&self, params: &[Value]) -> Result<()> {
        if params.len() != self.prepared.n_params {
            return Err(SqlError::Execution(format!(
                "bind message supplies {} parameters, but prepared statement requires {}",
                params.len(),
                self.prepared.n_params
            )));
        }
        Ok(())
    }

    /// Execute with the given parameter values, materializing the result.
    pub fn query(&self, params: &[Value]) -> Result<QueryResult> {
        self.query_rows(params)?.into_result()
    }

    /// Execute with the given parameter values, streaming the result rows.
    /// Re-executions bind against the shared compiled plan — no re-parse,
    /// no re-planning, no expression clones.
    ///
    /// A plain single-table `SELECT` whose expressions cannot re-enter
    /// the database streams **zero-copy**: the cursor pins an MVCC
    /// snapshot of the scanned table and refills its row buffer in short
    /// batches under the table's read guard, holding no lock between
    /// batches. The table stays fully writable — even from the same
    /// thread, mid-stream — and the cursor keeps seeing the consistent
    /// snapshot it pinned; writes committed after the cursor opened are
    /// invisible to it. Dropping the cursor releases its snapshot pin
    /// immediately.
    pub fn query_rows(&self, params: &[Value]) -> Result<Rows<'db>> {
        // An aborted transaction rejects statements before they are even
        // planned (PostgreSQL wording), and any pre-execution failure —
        // bad bind count, plan-time error such as an unknown function —
        // aborts an open transaction exactly like an execution failure.
        if !matches!(*self.prepared.stmt, ast::Stmt::Commit | ast::Stmt::Rollback) {
            self.db.check_txn_ok()?;
        }
        let run = || {
            self.check_binds(params)?;
            let plan = self.db.plan_for(&self.prepared)?;
            exec::execute(self.db, &self.prepared.stmt, &plan, params)
        };
        run().inspect_err(|_| self.db.abort_txn())
    }

    /// Execute and decode each row into `T` (scalars, `Option`, tuples —
    /// see [`FromRow`]). The result is materialized through the bulk
    /// scan path (one guard acquisition) and decoded in place — the
    /// output is a `Vec` either way, so nothing is saved by streaming.
    pub fn query_as<T: FromRow>(&self, params: &[Value]) -> Result<Vec<T>> {
        let q = self.query(params)?;
        q.rows.iter().map(|row| T::from_row(row)).collect()
    }
}

/// One undo-log record of an open transaction, applied in reverse on
/// ROLLBACK. Each record maps onto one statement's worth of the existing
/// error-before-mutation DML, so replaying the log restores the exact
/// pre-transaction state.
pub(crate) enum UndoEntry {
    /// A DML statement: versions it created (to tombstone) and versions
    /// it end-stamped (to resurrect), by index into the table's heap.
    /// The indices stay valid because the transaction pins the table
    /// against compaction.
    Write {
        handle: Arc<RwLock<Table>>,
        created: Vec<usize>,
        ended: Vec<usize>,
    },
    /// `CREATE TABLE` ran: drop it again on rollback.
    CreateTable { name: String },
    /// `DROP TABLE` ran: the displaced handle, reinstated on rollback.
    DropTable {
        name: String,
        handle: Arc<RwLock<Table>>,
    },
    /// `CREATE INDEX` ran: drop it again on rollback.
    CreateIndex {
        table: Arc<RwLock<Table>>,
        name: String,
    },
    /// `DROP INDEX` ran: the index's shape, rebuilt on rollback.
    DropIndex {
        table: Arc<RwLock<Table>>,
        name: String,
        column: String,
        unique: bool,
    },
}

/// The state of one session's open transaction. Sessions are threads:
/// the [`Database`] keys open transactions by [`ThreadId`].
struct Txn {
    /// Transaction id, stamped as `UNCOMMITTED | txid` on pending writes.
    txid: u64,
    /// Snapshot pinned at BEGIN — every statement in the transaction
    /// reads at this timestamp (snapshot isolation).
    ts: u64,
    /// Set when a statement errored; everything but COMMIT/ROLLBACK is
    /// then rejected, and COMMIT rolls back.
    aborted: bool,
    /// Schema epoch at BEGIN plus the number of epoch bumps this
    /// transaction performed — used to restore the epoch exactly when a
    /// ROLLBACK undoes DDL.
    epoch0: u64,
    ddl_bumps: u64,
    /// Undo log, applied in reverse on rollback.
    undo: Vec<UndoEntry>,
    /// Tables pinned against compaction (once per recorded write).
    pinned: Vec<Arc<RwLock<Table>>>,
}

/// The write stamp a DML statement should put on the versions it creates
/// and ends: a freshly allocated commit timestamp when auto-committing,
/// or the owning transaction's `UNCOMMITTED | txid` mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteTxn {
    /// No open transaction: the statement commits by itself.
    Auto,
    /// Inside `BEGIN … COMMIT`: stamp with the transaction id and record
    /// an undo entry.
    Txn { txid: u64 },
}

impl WriteTxn {
    /// The owning transaction id for unique-constraint checks (0 in
    /// auto-commit: every pending version then counts as a conflict).
    pub(crate) fn txid(self) -> u64 {
        match self {
            WriteTxn::Txn { txid } => txid,
            WriteTxn::Auto => 0,
        }
    }
}

/// One table's pending stamps: the touched table plus the rids the
/// transaction created and ended in it.
type PendingStamps = (Arc<RwLock<Table>>, Vec<usize>, Vec<usize>);

/// An in-memory SQL database with UDF support.
pub struct Database {
    tables: RwLock<HashMap<String, Arc<RwLock<Table>>>>,
    scalars: RwLock<HashMap<String, ScalarFn>>,
    /// Set-returning functions, each with its declared output columns.
    table_fns: RwLock<HashMap<String, (Vec<String>, TableFn)>>,
    /// Builtin names the planner may evaluate natively; cleared for a
    /// name when it is re-registered as an ordinary UDF.
    intrinsics: RwLock<HashMap<String, functions::Intrinsic>>,
    stmt_cache: Mutex<StmtCache>,
    udf_counters: RwLock<HashMap<String, Arc<AtomicU64>>>,
    /// One slot per [`Stat`], indexed by the variant; the gauges' slots
    /// stay zero (see [`Database::stat`]).
    counters: [AtomicU64; Stat::ALL.len()],
    /// Bumped by CREATE/DROP TABLE; cached plans compiled under an older
    /// epoch are recompiled on their next execution.
    schema_epoch: AtomicU64,
    /// The commit clock. A statement's snapshot is the clock value when
    /// it starts; each committing write advances the clock and stamps its
    /// versions with the new value, so writes are invisible to snapshots
    /// pinned before them.
    clock: AtomicU64,
    /// Transaction-id allocator (ids start at 1; 0 means "no txn").
    txid_gen: AtomicU64,
    /// Open transactions by session (= thread).
    txns: Mutex<HashMap<ThreadId, Txn>>,
    /// Fast-path count of open transactions: when 0, per-statement
    /// transaction lookups are skipped entirely.
    txn_count: AtomicU64,
    /// Snapshot timestamps pinned by open transactions (refcounted).
    /// The garbage collector's watermark is the oldest key.
    pinned_snapshots: Mutex<BTreeMap<u64, usize>>,
    /// Planner statistics per table (lower-case name), refreshed by
    /// `ANALYZE` / [`Database::analyze`] and automatically when a table's
    /// churn since the last pass crosses the staleness threshold.
    table_stats: RwLock<HashMap<String, TableStats>>,
    /// Planner toggles (all default on). Turning one off pins the
    /// pessimistic plan shape — sequential scans / nested loops /
    /// tuple-at-a-time execution — which the equivalence tests and
    /// benchmarks use as the baseline side.
    index_access: AtomicBool,
    hash_join: AtomicBool,
    vectorized: AtomicBool,
    /// Version shards per table, fixed at database creation and applied
    /// to every table as it is registered. `1` reproduces the single-
    /// arena behaviour bit-for-bit (the `PGFMU_TABLE_SHARDS=1` escape
    /// hatch); larger values give disjoint-row writers independent
    /// shard locks.
    table_shards: usize,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// Create a database with the built-in function set registered.
    /// Tables are sharded `next_pow2(min(cores, 16))` ways, overridable
    /// with `PGFMU_TABLE_SHARDS` (clamped to a power of two in
    /// `[1, 64]`; `1` reproduces the unsharded behaviour exactly).
    pub fn new() -> Self {
        Self::with_table_shards(Self::default_table_shards())
    }

    /// Shard count for [`Database::new`]: the `PGFMU_TABLE_SHARDS`
    /// override when set, else `next_pow2(min(cores, 16))`.
    fn default_table_shards() -> usize {
        if let Ok(v) = std::env::var("PGFMU_TABLE_SHARDS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.clamp(1, 64).next_power_of_two();
            }
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        cores.min(16).next_power_of_two()
    }

    /// Create a database whose tables are sharded `shards` ways
    /// (rounded up to a power of two, clamped to `[1, 64]`). Tests and
    /// benchmarks use this instead of the environment variable so
    /// parallel test binaries don't race on `set_var`. The shard count
    /// is fixed here and reported as the `shard_count` statistic:
    ///
    /// ```
    /// use pgfmu_sqlmini::{Database, Stat, Value};
    ///
    /// let db = Database::with_table_shards(8);
    /// let q = db
    ///     .execute("SELECT value FROM pgfmu_stats() WHERE stat = 'shard_count'")
    ///     .unwrap();
    /// assert_eq!(q.rows[0][0], Value::Int(8));
    /// assert_eq!(db.stat(Stat::ShardCount), 8);
    /// ```
    pub fn with_table_shards(shards: usize) -> Self {
        let db = Database {
            tables: RwLock::new(HashMap::new()),
            scalars: RwLock::new(HashMap::new()),
            table_fns: RwLock::new(HashMap::new()),
            intrinsics: RwLock::new(HashMap::new()),
            stmt_cache: Mutex::new(StmtCache::new(DEFAULT_STMT_CACHE_CAPACITY)),
            udf_counters: RwLock::new(HashMap::new()),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            schema_epoch: AtomicU64::new(0),
            clock: AtomicU64::new(1),
            txid_gen: AtomicU64::new(0),
            txns: Mutex::new(HashMap::new()),
            txn_count: AtomicU64::new(0),
            pinned_snapshots: Mutex::new(BTreeMap::new()),
            table_stats: RwLock::new(HashMap::new()),
            index_access: AtomicBool::new(true),
            hash_join: AtomicBool::new(true),
            // Default on; `PGFMU_VECTORIZED=0` starts every database
            // scalar-only so CI can sweep the whole suite both ways
            // (mirrors the `PGFMU_FLEET_WORKERS` matrix convention).
            vectorized: AtomicBool::new(std::env::var("PGFMU_VECTORIZED").as_deref() != Ok("0")),
            table_shards: shards.clamp(1, 64).next_power_of_two(),
        };
        functions::register_builtin_scalars(&db);
        functions::register_builtin_table_fns(&db);
        db
    }

    // ---- tables ------------------------------------------------------------

    /// Create a table; errors if the name is taken.
    pub fn create_table(&self, name: &str, table: Table) -> Result<()> {
        let key = name.to_ascii_lowercase();
        let mut table = table;
        // Safe to resize here: the handle is not shared until inserted.
        table.set_shard_count(self.table_shards);
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(SqlError::Constraint(format!(
                "relation \"{key}\" already exists"
            )));
        }
        tables.insert(key, Arc::new(RwLock::new(table)));
        self.schema_epoch.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Drop a table; errors if missing. The table's secondary indexes go
    /// with it (they live inside the [`Table`]), as do its cached
    /// planner statistics.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let key = name.to_ascii_lowercase();
        let removed = self.tables.write().remove(&key);
        match removed {
            Some(_) => {
                self.table_stats.write().remove(&key);
                self.schema_epoch.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            None => Err(SqlError::UnknownTable(key)),
        }
    }

    /// Handle to a table for direct (non-SQL) access.
    pub fn get_table(&self, name: &str) -> Result<Arc<RwLock<Table>>> {
        let key = name.to_ascii_lowercase();
        self.tables
            .read()
            .get(&key)
            .cloned()
            .ok_or(SqlError::UnknownTable(key))
    }

    /// True when the table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains_key(&name.to_ascii_lowercase())
    }

    /// Sorted table names (for introspection and tests).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Bulk-insert rows through the coercion path (loader convenience).
    /// Atomic: every row is validated — coerced, and checked against the
    /// table's unique indexes — before any is stored. Honors an open
    /// transaction on the calling thread.
    pub fn insert_rows(&self, table: &str, rows: Vec<Row>) -> Result<usize> {
        self.append_rows(&self.get_table(table)?, rows, Ok)
    }

    /// Append one statement's rows: the single write path behind
    /// `INSERT … VALUES`, `INSERT … SELECT` and [`Database::insert_rows`].
    /// `map` shapes each row for the table (an INSERT column list) ahead
    /// of coercion; every row is mapped and coerced before any is stored,
    /// so an error leaves the table untouched.
    ///
    /// The batch lands in the calling thread's home shard under the
    /// table's outer *read* guard, so writers with different home shards
    /// proceed in parallel. The auto-commit stamp is allocated while the
    /// shard lock is held, so a snapshot at or above it blocks on that
    /// shard until every row is in — no torn statement. A table with a
    /// unique index takes the exclusive write guard instead: the
    /// duplicate check needs a stable view of every shard.
    pub(crate) fn append_rows(
        &self,
        handle: &Arc<RwLock<Table>>,
        rows: Vec<Row>,
        map: impl Fn(Row) -> Result<Row>,
    ) -> Result<usize> {
        let txn = self.write_txn();
        if let WriteTxn::Txn { .. } = txn {
            self.txn_pin(handle);
        }
        let coerce = |t: &Table| -> Result<Vec<Row>> {
            rows.into_iter()
                .map(|r| map(r).and_then(|r| t.coerce_row(r)))
                .collect()
        };
        let created: Vec<usize> = {
            let guard = handle.read();
            if guard.has_unique_index() {
                drop(guard);
                let mut guard = handle.write();
                let rows = coerce(&guard)?;
                guard.check_unique(&rows, &[], txn.txid())?;
                let begin = self.write_stamp(txn);
                rows.into_iter()
                    .map(|r| guard.push_version(begin, r))
                    .collect()
            } else {
                let rows = coerce(&guard)?;
                let mut append = guard.begin_append();
                if append.waited() {
                    self.bump(Stat::WriteShardWaits, 1);
                }
                let begin = self.write_stamp(txn);
                rows.into_iter().map(|r| append.push(begin, r)).collect()
            }
        };
        let n = created.len();
        if let WriteTxn::Txn { .. } = txn {
            self.txn_record_write(handle, created, Vec::new());
        }
        Ok(n)
    }

    // ---- indexes and planner statistics -------------------------------------

    /// `CREATE [UNIQUE] INDEX name ON table (column)`. Index names are
    /// global, PostgreSQL-style: creation fails when any table already
    /// owns an index of that name. Returns the owning table's handle so
    /// transactional DDL can record its undo entry.
    pub(crate) fn create_index(
        &self,
        name: &str,
        table: &str,
        column: &str,
        unique: bool,
    ) -> Result<Arc<RwLock<Table>>> {
        let iname = name.to_ascii_lowercase();
        // Hold the catalog read lock across the name check *and* the
        // build so two racing CREATE INDEX calls cannot both pass the
        // check (catalog lock before table guard is the global order).
        let tables = self.tables.read();
        let handle = tables
            .get(&table.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| SqlError::UnknownTable(table.to_ascii_lowercase()))?;
        for h in tables.values() {
            if h.read().find_index(&iname).is_some() {
                return Err(SqlError::Constraint(format!(
                    "relation \"{iname}\" already exists"
                )));
            }
        }
        handle.write().create_index(&iname, column, unique)?;
        drop(tables);
        self.schema_epoch.fetch_add(1, Ordering::SeqCst);
        Ok(handle)
    }

    /// `DROP INDEX name`: the owning table is found by scanning the
    /// catalog. Returns `(table, index name, column name, unique)` — the
    /// shape a transactional undo entry needs to rebuild it.
    pub(crate) fn drop_index(
        &self,
        name: &str,
    ) -> Result<(Arc<RwLock<Table>>, String, String, bool)> {
        let iname = name.to_ascii_lowercase();
        let owner = {
            let tables = self.tables.read();
            tables
                .values()
                .find(|h| h.read().find_index(&iname).is_some())
                .cloned()
        };
        let Some(handle) = owner else {
            return Err(SqlError::Execution(format!(
                "index \"{iname}\" does not exist"
            )));
        };
        let dropped = {
            let mut guard = handle.write();
            let Some(ix) = guard.drop_index(&iname) else {
                // Raced with a concurrent DROP INDEX of the same name.
                return Err(SqlError::Execution(format!(
                    "index \"{iname}\" does not exist"
                )));
            };
            let column = guard.schema.columns[ix.column].name.clone();
            (iname, column, ix.unique)
        };
        self.schema_epoch.fetch_add(1, Ordering::SeqCst);
        Ok((handle, dropped.0, dropped.1, dropped.2))
    }

    /// Planner statistics for a table, recomputed when stale (churn since
    /// the last pass crossed the threshold — see [`TableStats::stale`]).
    /// Called at plan time; a cached plan keeps its access-path choice
    /// until the schema epoch moves, so an automatic refresh here only
    /// affects plans compiled afterwards. `ANALYZE` bumps the epoch to
    /// force the issue.
    pub(crate) fn stats_for(&self, table: &str) -> Option<TableStats> {
        let key = table.to_ascii_lowercase();
        let handle = self.get_table(&key).ok()?;
        let mod_count = handle.read().mod_count();
        if let Some(s) = self.table_stats.read().get(&key) {
            if !s.stale(mod_count) {
                return Some(s.clone());
            }
        }
        let s = {
            let guard = handle.read();
            let snap = self.current_snapshot();
            stats::analyze_table(&guard, snap, guard.mod_count())
        };
        self.bump(Stat::AnalyzeRuns, 1);
        self.table_stats.write().insert(key, s.clone());
        Some(s)
    }

    /// `ANALYZE [table]`: refresh planner statistics now, then bump the
    /// schema epoch so cached plans re-choose their access paths against
    /// the fresh numbers. Returns `(table, visible row count)` per table
    /// analyzed, sorted by name.
    pub fn analyze(&self, table: Option<&str>) -> Result<Vec<(String, u64)>> {
        let names: Vec<String> = match table {
            Some(t) => {
                let key = t.to_ascii_lowercase();
                if !self.has_table(&key) {
                    return Err(SqlError::UnknownTable(key));
                }
                vec![key]
            }
            None => self.table_names(),
        };
        let mut out = Vec::with_capacity(names.len());
        for name in names {
            let Ok(handle) = self.get_table(&name) else {
                continue; // dropped concurrently
            };
            let s = {
                let guard = handle.read();
                let snap = self.current_snapshot();
                stats::analyze_table(&guard, snap, guard.mod_count())
            };
            self.bump(Stat::AnalyzeRuns, 1);
            out.push((name.clone(), s.row_count));
            self.table_stats.write().insert(name, s);
        }
        self.schema_epoch.fetch_add(1, Ordering::SeqCst);
        Ok(out)
    }

    /// Is the planner allowed to choose index scans?
    pub(crate) fn index_access_enabled(&self) -> bool {
        self.index_access.load(Ordering::Relaxed)
    }

    /// Enable/disable index access paths (plans fall back to sequential
    /// scans when off). Bumps the schema epoch so cached plans re-plan.
    pub fn set_index_access_enabled(&self, on: bool) {
        self.index_access.store(on, Ordering::SeqCst);
        self.schema_epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Is the planner allowed to choose hash joins?
    pub(crate) fn hash_join_enabled(&self) -> bool {
        self.hash_join.load(Ordering::Relaxed)
    }

    /// Enable/disable hash joins (plans fall back to nested loops when
    /// off). Bumps the schema epoch so cached plans re-plan.
    pub fn set_hash_join_enabled(&self, on: bool) {
        self.hash_join.store(on, Ordering::SeqCst);
        self.schema_epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Is the planner allowed to choose the vectorized batch executor?
    pub(crate) fn vectorized_enabled(&self) -> bool {
        self.vectorized.load(Ordering::Relaxed)
    }

    /// Enable/disable columnar batch execution (statements fall back to
    /// the tuple-at-a-time scalar executor when off). Bumps the schema
    /// epoch so cached plans re-plan.
    pub fn set_vectorized_enabled(&self, on: bool) {
        self.vectorized.store(on, Ordering::SeqCst);
        self.schema_epoch.fetch_add(1, Ordering::SeqCst);
    }

    // ---- functions ----------------------------------------------------------

    /// Register (or replace) a scalar UDF.
    ///
    /// This is the raw registration hook: the closure receives the
    /// unvalidated argument values. Prefer [`Database::udf`], which declares
    /// an argument signature and centralizes coercion and arity errors.
    pub fn register_scalar<F>(&self, name: &str, f: F)
    where
        F: Fn(&Database, &[Value]) -> Result<Value> + Send + Sync + 'static,
    {
        let key = name.to_ascii_lowercase();
        // A user registration shadows any intrinsic of the same name.
        self.intrinsics.write().remove(&key);
        self.scalars.write().insert(key, Arc::new(f));
        // Cached plans resolve scalar functions by reference; registering
        // (or replacing) one invalidates them like DDL does.
        self.schema_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Register (or replace) a set-returning UDF that returns rows of the
    /// declared output `columns`, as PostgreSQL's `RETURNS TABLE` does.
    /// The planner resolves a statement against the declaration, so a
    /// returned row whose length differs from it is an error. See
    /// [`Database::register_scalar`] on the raw vs. typed surface.
    pub fn register_table_fn<F>(&self, name: &str, columns: &[&str], f: F)
    where
        F: Fn(&Database, &[Value]) -> Result<Vec<Row>> + Send + Sync + 'static,
    {
        let columns = columns.iter().map(|c| c.to_ascii_lowercase()).collect();
        self.table_fns
            .write()
            .insert(name.to_ascii_lowercase(), (columns, Arc::new(f)));
        self.schema_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Mark a builtin as natively evaluable by the planner. Must run
    /// after the builtin's registration (which clears the mark).
    pub(crate) fn mark_intrinsic(&self, name: &str, op: functions::Intrinsic) {
        self.intrinsics
            .write()
            .insert(name.to_ascii_lowercase(), op);
    }

    /// The intrinsic for a function name, if still active.
    pub(crate) fn intrinsic_of(&self, name: &str) -> Option<functions::Intrinsic> {
        let map = self.intrinsics.read();
        if let Some(op) = map.get(name) {
            return Some(*op);
        }
        if name.bytes().any(|b| b.is_ascii_uppercase()) {
            return map.get(&name.to_ascii_lowercase()).copied();
        }
        None
    }

    /// Resolve a scalar function for the planner (case-insensitive; names
    /// from the parser are already lower-case, so the common path does
    /// not allocate).
    pub(crate) fn lookup_scalar(&self, name: &str) -> Option<ScalarFn> {
        let map = self.scalars.read();
        if let Some(f) = map.get(name) {
            return Some(Arc::clone(f));
        }
        if name.bytes().any(|b| b.is_ascii_uppercase()) {
            return map.get(&name.to_ascii_lowercase()).map(Arc::clone);
        }
        None
    }

    /// Start declaring a typed UDF: argument names and types are declared
    /// up front, and arity/type errors are produced centrally. See
    /// [`crate::udf::UdfBuilder`].
    pub fn udf(&self, name: &str) -> crate::udf::UdfBuilder<'_> {
        crate::udf::UdfBuilder::new(self, name)
    }

    /// The call counter for a (typed) UDF, creating it on first use.
    pub(crate) fn udf_counter(&self, name: &str) -> Arc<AtomicU64> {
        let key = name.to_ascii_lowercase();
        if let Some(c) = self.udf_counters.read().get(&key) {
            return Arc::clone(c);
        }
        let mut map = self.udf_counters.write();
        Arc::clone(
            map.entry(key)
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    /// Per-UDF call counts since session start (typed UDFs only), sorted by
    /// function name. Surfaced through the `pgfmu_stats()` SRF.
    pub fn udf_call_counts(&self) -> Vec<(String, u64)> {
        let mut counts: Vec<(String, u64)> = self
            .udf_counters
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        counts.sort();
        counts
    }

    /// Invoke a scalar function by name.
    pub fn call_scalar(&self, name: &str, args: &[Value]) -> Result<Value> {
        match self.lookup_scalar(name) {
            Some(f) => f(self, args),
            None => Err(SqlError::UnknownFunction(format!("{name}(…)"))),
        }
    }

    /// Resolve a FROM-clause function for the planner: a set-returning
    /// function with its declared columns, or a scalar function as one
    /// row of one column named after it (PostgreSQL behaviour in FROM).
    pub(crate) fn lookup_from_fn(&self, name: &str) -> Result<(Vec<String>, TableFn)> {
        let key = name.to_ascii_lowercase();
        if let Some(entry) = self.table_fns.read().get(&key) {
            return Ok(entry.clone());
        }
        match self.lookup_scalar(&key) {
            Some(f) => {
                let call: TableFn = Arc::new(move |db, args| Ok(vec![vec![f(db, args)?]]));
                Ok((vec![key], call))
            }
            None => Err(SqlError::UnknownFunction(format!("{name}(…)"))),
        }
    }

    /// Is a function with this name registered (scalar or set-returning)?
    pub fn has_function(&self, name: &str) -> bool {
        let key = name.to_ascii_lowercase();
        self.scalars.read().contains_key(&key) || self.table_fns.read().contains_key(&key)
    }

    // ---- execution -----------------------------------------------------------

    /// Prepare one SQL statement, reusing the parsed statement (and its
    /// compiled physical plan) from the statement cache when the same
    /// text was seen before.
    pub fn prepare(&self, sql: &str) -> Result<Statement<'_>> {
        if let Some(prepared) = self.stmt_cache.lock().get(sql) {
            self.bump(Stat::CacheHits, 1);
            return Ok(Statement { db: self, prepared });
        }
        let prepared = self.parse(sql)?;
        self.stmt_cache
            .lock()
            .insert(sql.to_string(), Arc::clone(&prepared));
        Ok(Statement { db: self, prepared })
    }

    /// Parse one statement into a fresh, unplanned [`Prepared`].
    fn parse(&self, sql: &str) -> Result<Arc<Prepared>> {
        self.bump(Stat::Parses, 1);
        // A syntax error aborts an open transaction (PostgreSQL reports
        // the parse error itself, but the transaction is done for).
        let parsed = Arc::new(parser::parse(sql).inspect_err(|_| self.abort_txn())?);
        let n_params = ast::max_param(&parsed);
        Ok(Arc::new(Prepared::new(parsed, n_params)))
    }

    /// The compiled plan for a prepared statement: reused while the
    /// schema epoch is unchanged, recompiled after DDL.
    pub(crate) fn plan_for(&self, prepared: &Prepared) -> Result<Arc<PhysicalPlan>> {
        let epoch = self.schema_epoch.load(Ordering::Relaxed);
        if let Some((e, plan)) = &*prepared.plan.lock() {
            if *e == epoch {
                self.bump(Stat::PlanCacheHits, 1);
                return Ok(Arc::clone(plan));
            }
        }
        let plan = Arc::new(plan::compile(self, &prepared.stmt)?);
        self.bump(Stat::PlansBuilt, 1);
        *prepared.plan.lock() = Some((epoch, Arc::clone(&plan)));
        Ok(plan)
    }

    // ---- transactions, snapshots and garbage collection ---------------------

    /// The snapshot the current statement should read at: the open
    /// transaction's pinned timestamp on this thread, or "now" (the
    /// current commit clock, no txid) outside a transaction.
    pub(crate) fn current_snapshot(&self) -> Snapshot {
        if self.txn_count.load(Ordering::SeqCst) > 0 {
            let txns = self.txns.lock();
            if let Some(t) = txns.get(&std::thread::current().id()) {
                return Snapshot {
                    ts: t.ts,
                    txid: t.txid,
                };
            }
        }
        Snapshot {
            ts: self.clock.load(Ordering::SeqCst),
            txid: 0,
        }
    }

    /// How the current statement's writes should be stamped: auto-commit,
    /// or marked with this thread's open transaction id.
    pub(crate) fn write_txn(&self) -> WriteTxn {
        if self.txn_count.load(Ordering::SeqCst) > 0 {
            let txns = self.txns.lock();
            if let Some(t) = txns.get(&std::thread::current().id()) {
                return WriteTxn::Txn { txid: t.txid };
            }
        }
        WriteTxn::Auto
    }

    /// Allocate a commit timestamp. Callers must hold the write guard of
    /// every table they are stamping *before* allocating, so that any
    /// snapshot new enough to see the timestamp blocks on those guards
    /// until the stamps are complete.
    pub(crate) fn commit_ts(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// The begin/end stamp for one statement's versioned writes: a fresh
    /// commit timestamp in auto-commit (so, as for [`Database::commit_ts`],
    /// allocate it under the guards of the stamped versions), or the open
    /// transaction's marker, resolved later by COMMIT/ROLLBACK.
    pub(crate) fn write_stamp(&self, txn: WriteTxn) -> u64 {
        match txn {
            WriteTxn::Auto => self.commit_ts(),
            WriteTxn::Txn { txid } => UNCOMMITTED | txid,
        }
    }

    /// Allocate a transaction id for `BEGIN` (ids start at 1).
    fn next_txid(&self) -> u64 {
        self.txid_gen.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// True when the calling thread has an open transaction.
    pub fn in_transaction(&self) -> bool {
        self.txn_count.load(Ordering::SeqCst) > 0
            && self.txns.lock().contains_key(&std::thread::current().id())
    }

    /// Reject further statements in an aborted transaction (PostgreSQL
    /// behaviour and wording). COMMIT/ROLLBACK are exempt —
    /// [`Statement::query_rows`] does not route them here.
    pub(crate) fn check_txn_ok(&self) -> Result<()> {
        if self.txn_count.load(Ordering::SeqCst) == 0 {
            return Ok(());
        }
        let txns = self.txns.lock();
        match txns.get(&std::thread::current().id()) {
            Some(t) if t.aborted => Err(SqlError::Execution(
                "current transaction is aborted, commands ignored until end of \
                 transaction block"
                    .into(),
            )),
            _ => Ok(()),
        }
    }

    /// Mark this thread's open transaction aborted after a failed
    /// statement (no-op outside a transaction).
    pub(crate) fn abort_txn(&self) {
        if self.txn_count.load(Ordering::SeqCst) == 0 {
            return;
        }
        if let Some(t) = self.txns.lock().get_mut(&std::thread::current().id()) {
            t.aborted = true;
        }
    }

    /// Pin a table against compaction for the rest of this thread's open
    /// transaction (undo entries hold version indices into it). Must be
    /// called *before* the statement takes the table's write guard.
    pub(crate) fn txn_pin(&self, handle: &Arc<RwLock<Table>>) {
        handle.read().pin();
        if let Some(t) = self.txns.lock().get_mut(&std::thread::current().id()) {
            t.pinned.push(Arc::clone(handle));
        } else {
            // No open transaction (raced with an external rollback):
            // release immediately rather than leak the pin.
            handle.read().unpin();
        }
    }

    /// Append one statement's worth of pending writes to this thread's
    /// undo log.
    pub(crate) fn txn_record_write(
        &self,
        handle: &Arc<RwLock<Table>>,
        created: Vec<usize>,
        ended: Vec<usize>,
    ) {
        if created.is_empty() && ended.is_empty() {
            return;
        }
        if let Some(t) = self.txns.lock().get_mut(&std::thread::current().id()) {
            t.undo.push(UndoEntry::Write {
                handle: Arc::clone(handle),
                created,
                ended,
            });
        }
    }

    /// Record a DDL undo entry (CREATE/DROP TABLE inside a transaction)
    /// and count the schema-epoch bump it caused, so ROLLBACK can restore
    /// the epoch exactly.
    pub(crate) fn txn_record_ddl(&self, entry: UndoEntry) {
        if let Some(t) = self.txns.lock().get_mut(&std::thread::current().id()) {
            t.ddl_bumps += 1;
            t.undo.push(entry);
        }
    }

    /// `BEGIN`: open a transaction on this thread. Returns `false` (with
    /// no other effect) when one is already open — the caller issues the
    /// PostgreSQL notice.
    pub(crate) fn begin_txn(&self) -> bool {
        let mut txns = self.txns.lock();
        let thread = std::thread::current().id();
        if txns.contains_key(&thread) {
            return false;
        }
        // Read the clock *inside* the registry lock: a GC pass computing
        // its watermark (`gc_watermark`) after this either sees the
        // registration, or took the lock first — in which case this load
        // happens after its clock read, so the pinned timestamp lands at
        // or above that watermark and nothing this snapshot can still see
        // is reclaimed.
        let ts = {
            let mut pins = self.pinned_snapshots.lock();
            let ts = self.clock.load(Ordering::SeqCst);
            *pins.entry(ts).or_insert(0) += 1;
            ts
        };
        txns.insert(
            thread,
            Txn {
                txid: self.next_txid(),
                ts,
                aborted: false,
                epoch0: self.schema_epoch.load(Ordering::SeqCst),
                ddl_bumps: 0,
                undo: Vec::new(),
                pinned: Vec::new(),
            },
        );
        self.txn_count.fetch_add(1, Ordering::SeqCst);
        true
    }

    /// `COMMIT`: publish this thread's pending writes atomically under
    /// one fresh commit timestamp. Returns `false` when no transaction is
    /// open; an aborted transaction rolls back instead (PostgreSQL
    /// behaviour).
    pub(crate) fn commit_txn(&self) -> Result<bool> {
        let txn = match self.take_txn() {
            Some(t) => t,
            None => return Ok(false),
        };
        if txn.aborted {
            self.apply_rollback(txn);
            return Ok(true);
        }
        // Merge per-statement write entries by table so each guard is
        // taken once, then hold *all* the guards while allocating the
        // commit timestamp and stamping (see `commit_ts`).
        let mut by_table: Vec<PendingStamps> = Vec::new();
        for entry in &txn.undo {
            if let UndoEntry::Write {
                handle,
                created,
                ended,
            } = entry
            {
                match by_table.iter_mut().find(|(h, _, _)| Arc::ptr_eq(h, handle)) {
                    Some((_, c, e)) => {
                        c.extend_from_slice(created);
                        e.extend_from_slice(ended);
                    }
                    None => by_table.push((Arc::clone(handle), created.clone(), ended.clone())),
                }
            }
        }
        // A deterministic lock order prevents deadlock between commits.
        by_table.sort_by_key(|(h, _, _)| Arc::as_ptr(h) as usize);
        // Scoped: the guards must drop before `finish_txn` read-locks the
        // same tables to unpin them.
        {
            let mut guards: Vec<_> = by_table.iter().map(|(h, _, _)| h.write()).collect();
            let cts = self.commit_ts();
            for (guard, (_, created, ended)) in guards.iter_mut().zip(&by_table) {
                for &i in created {
                    guard.commit_begin(i, txn.txid, cts);
                }
                for &i in ended {
                    guard.commit_end(i, txn.txid, cts);
                }
            }
        }
        self.finish_txn(&txn);
        self.bump(Stat::TxnsCommitted, 1);
        Ok(true)
    }

    /// `ROLLBACK`: discard this thread's pending writes. Returns `false`
    /// when no transaction is open.
    pub(crate) fn rollback_txn(&self) -> bool {
        match self.take_txn() {
            Some(t) => {
                self.apply_rollback(t);
                true
            }
            None => false,
        }
    }

    /// Reset the calling thread's session state: roll back any
    /// transaction it left open, returning whether one was. Transaction
    /// sessions are keyed by thread, so pooled worker threads — reused
    /// across unrelated tasks — call this when picking up new work;
    /// otherwise a task that died between `BEGIN` and `COMMIT` would
    /// leak its open transaction (snapshot pin, table pins and abort
    /// flag included) into whatever task lands on the thread next.
    pub fn reset_session(&self) -> bool {
        self.rollback_txn()
    }

    /// Detach this thread's transaction from the session map.
    fn take_txn(&self) -> Option<Txn> {
        if self.txn_count.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let taken = self.txns.lock().remove(&std::thread::current().id());
        if taken.is_some() {
            self.txn_count.fetch_sub(1, Ordering::SeqCst);
        }
        taken
    }

    /// Replay the undo log in reverse, restoring tables, the catalog and
    /// the schema epoch to their pre-transaction state.
    fn apply_rollback(&self, mut txn: Txn) {
        while let Some(entry) = txn.undo.pop() {
            match entry {
                UndoEntry::Write {
                    handle,
                    created,
                    ended,
                } => {
                    let mut guard = handle.write();
                    for &i in &ended {
                        guard.revert_end(i, txn.txid);
                    }
                    for &i in &created {
                        guard.revert_insert(i, txn.txid);
                    }
                }
                UndoEntry::CreateTable { name } => {
                    self.tables.write().remove(&name);
                    self.schema_epoch.fetch_add(1, Ordering::SeqCst);
                    txn.ddl_bumps += 1;
                }
                UndoEntry::DropTable { name, handle } => {
                    self.tables.write().insert(name, handle);
                    self.schema_epoch.fetch_add(1, Ordering::SeqCst);
                    txn.ddl_bumps += 1;
                }
                UndoEntry::CreateIndex { table, name } => {
                    table.write().drop_index(&name);
                    self.schema_epoch.fetch_add(1, Ordering::SeqCst);
                    txn.ddl_bumps += 1;
                }
                UndoEntry::DropIndex {
                    table,
                    name,
                    column,
                    unique,
                } => {
                    // Later statements of the transaction have already
                    // been undone (reverse replay), so the heap matches
                    // the moment just after the DROP — the rebuild
                    // cannot find uniqueness violations the original
                    // index did not contain. Best-effort regardless:
                    // rollback must not fail.
                    let _ = table.write().create_index(&name, &column, unique);
                    self.schema_epoch.fetch_add(1, Ordering::SeqCst);
                    txn.ddl_bumps += 1;
                }
            }
        }
        // Undoing DDL bumped the epoch past where the transaction left
        // it. If no concurrent session moved it meanwhile, snap it back
        // to its pre-transaction value so statement-cache plans compiled
        // before BEGIN validate again; otherwise leave the bumps in
        // place (they only force replans, never stale reads).
        if txn.ddl_bumps > 0 {
            let _ = self.schema_epoch.compare_exchange(
                txn.epoch0 + txn.ddl_bumps,
                txn.epoch0,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
        self.finish_txn(&txn);
        self.bump(Stat::TxnsRolledBack, 1);
    }

    /// Release a finished transaction's table pins and snapshot pin.
    fn finish_txn(&self, txn: &Txn) {
        for handle in &txn.pinned {
            handle.read().unpin();
        }
        let mut pins = self.pinned_snapshots.lock();
        if let Some(n) = pins.get_mut(&txn.ts) {
            *n -= 1;
            if *n == 0 {
                pins.remove(&txn.ts);
            }
        }
    }

    /// The GC watermark: no live snapshot reads below this timestamp, so
    /// versions dead at or before it are unreachable. Streaming cursors
    /// and copy-out DML don't register here — they pin their tables
    /// against compaction instead.
    pub(crate) fn gc_watermark(&self) -> u64 {
        let pinned = self.pinned_snapshots.lock();
        match pinned.keys().next() {
            Some(&oldest) => oldest,
            None => self.clock.load(Ordering::SeqCst),
        }
    }

    /// Opportunistic garbage collection, called by write paths while they
    /// already hold the table's write guard.
    pub(crate) fn maybe_gc(&self, table: &mut Table) {
        if table.needs_gc() {
            let freed = table.compact(self.gc_watermark());
            self.bump(Stat::VersionsGc, freed as u64);
        }
    }

    /// Reclaim dead row versions in every table, regardless of the
    /// accumulation threshold the opportunistic collector uses. Tables
    /// pinned by live cursors or open transactions are skipped. Returns
    /// the number of versions reclaimed.
    pub fn vacuum(&self) -> usize {
        let handles: Vec<Arc<RwLock<Table>>> = self.tables.read().values().cloned().collect();
        let watermark = self.gc_watermark();
        let mut freed = 0;
        for handle in handles {
            // Outer *read* guard: each shard compacts under its own
            // write lock while readers and writers of other shards (and
            // other tables) proceed.
            freed += handle.read().compact_shards(watermark);
        }
        self.bump(Stat::VersionsGc, freed as u64);
        freed
    }

    // ---- statistics ---------------------------------------------------------

    /// Add `n` to one of the registry's counters.
    pub(crate) fn bump(&self, stat: Stat, n: u64) {
        self.counters[stat as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// The current value of one `pgfmu_stats()` row. Counters accumulate
    /// since creation (`fleet_workers` keeps a high-water mark);
    /// `stmt_cache_size`, `stmt_cache_capacity` and `shard_count` are
    /// gauges read from live state.
    ///
    /// ```
    /// use pgfmu_sqlmini::{Database, Stat};
    ///
    /// let db = Database::new();
    /// db.execute("CREATE TABLE m (x float, note text)").unwrap();
    /// db.execute("INSERT INTO m VALUES (1.0, 'a'), (2.0, 'b'), (3.0, 'c')").unwrap();
    /// db.execute("SELECT x FROM m WHERE x > 1.5").unwrap(); // zero-copy
    /// db.execute("SELECT a.x FROM m a, m b").unwrap(); // join: snapshot scans
    /// let q = db
    ///     .execute("SELECT value FROM pgfmu_stats() WHERE stat = 'scans_zero_copy'")
    ///     .unwrap();
    /// assert!(q.rows[0][0].as_i64().unwrap() >= 1);
    /// let q = db
    ///     .execute("SELECT value FROM pgfmu_stats() WHERE stat = 'rows_scanned'")
    ///     .unwrap();
    /// assert!(q.rows[0][0].as_i64().unwrap() >= 9);
    /// assert!(db.stat(Stat::RowsScanned) >= 9);
    /// assert!(db.stat(Stat::ScansZeroCopy) >= 1);
    /// assert!(db.stat(Stat::ScanFallbacks) >= 2);
    /// ```
    pub fn stat(&self, stat: Stat) -> u64 {
        match stat {
            Stat::StmtCacheSize => self.stmt_cache.lock().map.len() as u64,
            Stat::StmtCacheCapacity => self.stmt_cache.lock().capacity as u64,
            Stat::ShardCount => self.table_shards as u64,
            counter => self.counters[counter as usize].load(Ordering::Relaxed),
        }
    }

    /// Record one table scan: `rows` source rows examined, either
    /// zero-copy (borrowed under the table guard) or copied out: a
    /// copy-out or a snapshot. A guarded streaming cursor passes 0 here and
    /// bumps `rows_scanned` by its exact examined count when it finishes.
    pub(crate) fn note_scan(&self, rows: u64, zero_copy: bool) {
        self.bump(Stat::RowsScanned, rows);
        let kind = if zero_copy {
            Stat::ScansZeroCopy
        } else {
            Stat::ScanFallbacks
        };
        self.bump(kind, 1);
    }

    /// Count one single-table access-path execution.
    pub(crate) fn note_access(&self, indexed: bool) {
        self.bump(
            if indexed {
                Stat::IndexScans
            } else {
                Stat::SeqScans
            },
            1,
        );
    }

    /// Record a retired fleet batch: `tasks` pooled tasks run on a pool
    /// of `workers` threads, spending `task_ns` nanoseconds of summed
    /// per-task wall time. The engine never spawns threads itself; the
    /// embedding layer's fleet executor reports here so the counters are
    /// queryable next to the engine's own (`pgfmu_stats()`).
    /// `fleet_workers` keeps the high-water mark.
    pub fn note_fleet(&self, tasks: u64, workers: u64, task_ns: u64) {
        self.bump(Stat::FleetTasks, tasks);
        self.counters[Stat::FleetWorkers as usize].fetch_max(workers, Ordering::Relaxed);
        self.bump(Stat::FleetTaskNs, task_ns);
    }

    /// Prepare (with cache reuse) and execute one statement with `$n` bind
    /// values.
    pub fn query(&self, sql: &str, params: &[Value]) -> Result<QueryResult> {
        self.prepare(sql)?.query(params)
    }

    /// Prepare and execute, streaming result rows instead of materializing.
    pub fn query_rows(&self, sql: &str, params: &[Value]) -> Result<Rows<'_>> {
        self.prepare(sql)?.query_rows(params)
    }

    /// Prepare, execute and decode each row into `T` (see [`FromRow`]).
    pub fn query_as<T: FromRow>(&self, sql: &str, params: &[Value]) -> Result<Vec<T>> {
        self.prepare(sql)?.query_as(params)
    }

    /// Parse (with statement-cache reuse) and execute one parameterless SQL
    /// statement.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.query(sql, &[])
    }

    /// Execute without consulting or filling the statement cache (used by
    /// benchmarks to isolate the prepared-statement effect): every call
    /// parses and plans afresh.
    pub fn execute_uncached(&self, sql: &str) -> Result<QueryResult> {
        let prepared = self.parse(sql)?;
        Statement { db: self, prepared }.query(&[])
    }

    /// Rebound the statement cache, evicting least-recently-used entries if
    /// the new capacity is smaller than the current population.
    pub fn set_stmt_cache_capacity(&self, capacity: usize) {
        let mut cache = self.stmt_cache.lock();
        cache.capacity = capacity;
        cache.shrink_to(capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn setup() -> Database {
        let db = Database::new();
        db.execute("CREATE TABLE m (ts timestamp, x float, y float, u float)")
            .unwrap();
        db.execute(
            "INSERT INTO m VALUES \
             ('2015-02-01 00:00', 20.7507, 0.0, 0.0), \
             ('2015-02-01 01:00', 23.6231, 0.1381, 0.0177), \
             ('2015-02-01 02:00', 21.5, 0.3, 0.05)",
        )
        .unwrap();
        db
    }

    #[test]
    fn create_insert_select_round_trip() {
        let db = setup();
        let q = db.execute("SELECT * FROM m ORDER BY ts").unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.columns, vec!["ts", "x", "y", "u"]);
        assert_eq!(q.rows[0][1], Value::Float(20.7507));
    }

    #[test]
    fn where_filtering_and_projection() {
        let db = setup();
        let q = db
            .execute("SELECT x AS temp FROM m WHERE u > 0.01 ORDER BY x DESC")
            .unwrap();
        assert_eq!(q.columns, vec!["temp"]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.rows[0][0], Value::Float(23.6231));
    }

    #[test]
    fn aggregates() {
        let db = setup();
        let q = db
            .execute("SELECT count(*), avg(x), min(x), max(x), sum(u) FROM m")
            .unwrap();
        assert_eq!(q.rows[0][0], Value::Int(3));
        let avg = q.rows[0][1].as_f64().unwrap();
        assert!((avg - (20.7507 + 23.6231 + 21.5) / 3.0).abs() < 1e-9);
        assert_eq!(q.rows[0][2], Value::Float(20.7507));
        assert_eq!(q.rows[0][3], Value::Float(23.6231));
        let sum = q.rows[0][4].as_f64().unwrap();
        assert!((sum - 0.0677).abs() < 1e-9);
    }

    #[test]
    fn aggregate_with_arithmetic() {
        let db = setup();
        let q = db
            .execute("SELECT sqrt(avg(x * x)) AS rms FROM m WHERE x IS NOT NULL")
            .unwrap();
        assert!(q.rows[0][0].as_f64().unwrap() > 20.0);
    }

    #[test]
    fn bare_column_in_aggregate_query_errors() {
        let db = setup();
        let err = db.execute("SELECT x, count(*) FROM m");
        assert!(err.is_err());
    }

    #[test]
    fn group_by_having_through_prepare_and_query_as() {
        let db = setup();
        // The acceptance-criterion shape: key + aggregate, HAVING threshold
        // bound as $1, decoded through the typed row surface.
        let stmt = db
            .prepare(
                "SELECT u, count(*) FROM m GROUP BY u \
                 HAVING count(*) >= $1 ORDER BY u",
            )
            .unwrap();
        let all: Vec<(f64, i64)> = stmt.query_as(&[Value::Int(1)]).unwrap();
        assert_eq!(all.len(), 3, "three distinct u values");
        let none: Vec<(f64, i64)> = stmt.query_as(&[Value::Int(2)]).unwrap();
        assert!(none.is_empty());
        // Re-executing the handle reuses the cached plan — no re-parse.
        let p0 = db.stat(Stat::Parses);
        stmt.query(&[Value::Int(1)]).unwrap();
        assert_eq!(db.stat(Stat::Parses), p0);
    }

    #[test]
    fn update_and_delete() {
        let db = setup();
        let q = db.execute("UPDATE m SET u = u * 2 WHERE u > 0").unwrap();
        assert_eq!(q.rows[0][0], Value::Int(2));
        let q = db.execute("SELECT sum(u) FROM m").unwrap();
        assert!((q.rows[0][0].as_f64().unwrap() - 0.1354).abs() < 1e-9);
        let q = db.execute("DELETE FROM m WHERE x > 22").unwrap();
        assert_eq!(q.rows[0][0], Value::Int(1));
        assert_eq!(db.execute("SELECT * FROM m").unwrap().len(), 2);
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let db = setup();
        db.execute("INSERT INTO m (ts, x) VALUES ('2015-02-01 03:00', 19.0)")
            .unwrap();
        let q = db
            .execute("SELECT y FROM m WHERE ts = '2015-02-01 03:00'")
            .unwrap();
        assert_eq!(q.rows[0][0], Value::Null);
    }

    #[test]
    fn insert_select() {
        let db = setup();
        db.execute("CREATE TABLE copy (ts timestamp, x float, y float, u float)")
            .unwrap();
        db.execute("INSERT INTO copy SELECT * FROM m WHERE x < 22")
            .unwrap();
        assert_eq!(db.execute("SELECT * FROM copy").unwrap().len(), 2);
    }

    #[test]
    fn cross_join_and_qualifiers() {
        let db = setup();
        db.execute("CREATE TABLE tags (name text)").unwrap();
        db.execute("INSERT INTO tags VALUES ('a'), ('b')").unwrap();
        let q = db
            .execute("SELECT t.name, m.x FROM tags t, m WHERE m.u = 0.0 ORDER BY t.name")
            .unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.rows[0][0], Value::Text("a".into()));
    }

    #[test]
    fn lateral_function_referencing_earlier_item() {
        let db = Database::new();
        let q = db
            .execute(
                "SELECT id, s FROM generate_series(1, 3) AS id, \
                 LATERAL generate_series(1, id) AS s ORDER BY id, s",
            )
            .unwrap();
        // 1 + 2 + 3 rows
        assert_eq!(q.len(), 6);
        assert_eq!(q.rows[5][0], Value::Int(3));
        assert_eq!(q.rows[5][1], Value::Int(3));
    }

    #[test]
    fn scalar_udf_registration_and_concat() {
        let db = Database::new();
        db.register_scalar("double_it", |_db, args| {
            Ok(Value::Float(args[0].as_f64()? * 2.0))
        });
        let q = db.execute("SELECT double_it(21)").unwrap();
        assert_eq!(q.rows[0][0], Value::Float(42.0));
        let q = db
            .execute("SELECT 'HP1Instance' || 7::text AS name")
            .unwrap();
        assert_eq!(q.rows[0][0], Value::Text("HP1Instance7".into()));
    }

    #[test]
    fn table_udf_can_query_database_reentrantly() {
        let db = setup();
        db.register_table_fn("summarize", &["n"], |db, args| {
            let sql = args[0].as_str()?;
            let inner = db.execute(sql)?;
            Ok(vec![vec![Value::Int(inner.len() as i64)]])
        });
        let q = db
            .execute("SELECT * FROM summarize('SELECT * FROM m')")
            .unwrap();
        assert_eq!(q.rows[0][0], Value::Int(3));
    }

    #[test]
    fn statement_cache_counts() {
        let db = setup();
        let p0 = db.stat(Stat::Parses);
        db.execute("SELECT * FROM m").unwrap();
        db.execute("SELECT * FROM m").unwrap();
        db.execute("SELECT * FROM m").unwrap();
        let (p1, h1) = (db.stat(Stat::Parses), db.stat(Stat::CacheHits));
        assert_eq!(p1 - p0, 1, "only the first execution parses");
        assert!(h1 >= 2);
        db.execute_uncached("SELECT * FROM m").unwrap();
        let p2 = db.stat(Stat::Parses);
        assert_eq!(p2 - p1, 1);
    }

    #[test]
    fn prepared_statement_binds_parameters() {
        let db = setup();
        let stmt = db
            .prepare("SELECT x FROM m WHERE u > $1 AND x > $2 ORDER BY x DESC")
            .unwrap();
        assert_eq!(stmt.n_params(), 2);
        let q = stmt
            .query(&[Value::Float(0.01), Value::Float(22.0)])
            .unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q.rows[0][0], Value::Float(23.6231));
        // Same handle, different binds: no re-parse.
        let p0 = db.stat(Stat::Parses);
        let q = stmt
            .query(&[Value::Float(-1.0), Value::Float(0.0)])
            .unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(db.stat(Stat::Parses), p0);
    }

    #[test]
    fn prepared_statement_rejects_wrong_bind_count() {
        let db = setup();
        let stmt = db
            .prepare("SELECT x FROM m WHERE u > $1 AND x < $2")
            .unwrap();
        let err = stmt.query(&[Value::Float(0.0)]).unwrap_err();
        assert!(
            err.to_string().contains("supplies 1 parameters")
                && err.to_string().contains("requires 2"),
            "{err}"
        );
        // Executing a parameterized statement with no binds fails the same
        // check.
        assert!(db.execute("SELECT x FROM m WHERE u > $1").is_err());
    }

    #[test]
    fn prepared_insert_round_trips_values() {
        let db = Database::new();
        db.execute("CREATE TABLE t (a int, b text, c float)")
            .unwrap();
        let ins = db.prepare("INSERT INTO t VALUES ($1, $2, $3)").unwrap();
        ins.query(&[Value::Int(1), Value::Text("it's".into()), Value::Float(0.5)])
            .unwrap();
        ins.query(&[Value::Int(2), Value::Null, Value::Float(-1.5)])
            .unwrap();
        let q = db.execute("SELECT * FROM t ORDER BY a").unwrap();
        assert_eq!(q.rows[0][1], Value::Text("it's".into()));
        assert_eq!(q.rows[1][1], Value::Null);
    }

    #[test]
    fn query_rows_streams_lazily() {
        let db = setup();
        let mut rows = db
            .query_rows("SELECT x FROM m WHERE u >= $1", &[Value::Float(0.0)])
            .unwrap();
        assert_eq!(rows.columns(), ["x"]);
        assert_eq!(rows.next().unwrap().unwrap(), vec![Value::Float(20.7507)]);
        // Stopping early is fine; remaining rows are never projected.
        drop(rows);
        // Ordered queries still stream correct, sorted output.
        let rows = db
            .query_rows("SELECT x FROM m ORDER BY x DESC", &[])
            .unwrap();
        let xs: Vec<Row> = rows.collect::<Result<_>>().unwrap();
        assert_eq!(xs[0][0], Value::Float(23.6231));
    }

    #[test]
    fn lru_statement_cache_evicts_oldest() {
        let db = Database::new();
        db.set_stmt_cache_capacity(4);
        assert_eq!(db.stat(Stat::StmtCacheCapacity), 4);
        for i in 0..10 {
            db.execute(&format!("SELECT {i}")).unwrap();
        }
        assert!(db.stat(Stat::StmtCacheSize) <= 4);
        // The most recent text is still a cache hit…
        let h0 = db.stat(Stat::CacheHits);
        db.execute("SELECT 9").unwrap();
        assert_eq!(db.stat(Stat::CacheHits), h0 + 1);
        // …while the oldest was evicted and must re-parse.
        let p0 = db.stat(Stat::Parses);
        db.execute("SELECT 0").unwrap();
        assert_eq!(db.stat(Stat::Parses), p0 + 1);
        // Shrinking the capacity evicts immediately.
        db.set_stmt_cache_capacity(1);
        assert!(db.stat(Stat::StmtCacheSize) <= 1);
    }

    #[test]
    fn lru_cache_refreshes_on_use() {
        let db = Database::new();
        db.set_stmt_cache_capacity(2);
        db.execute("SELECT 1").unwrap();
        db.execute("SELECT 2").unwrap();
        db.execute("SELECT 1").unwrap(); // refresh 1 → 2 becomes LRU
        db.execute("SELECT 3").unwrap(); // evicts 2
        let p0 = db.stat(Stat::Parses);
        db.execute("SELECT 1").unwrap();
        assert_eq!(db.stat(Stat::Parses), p0, "SELECT 1 must still be cached");
        db.execute("SELECT 2").unwrap();
        assert_eq!(db.stat(Stat::Parses), p0 + 1, "SELECT 2 was evicted");
    }

    #[test]
    fn error_paths() {
        let db = Database::new();
        assert!(matches!(
            db.execute("SELECT * FROM missing"),
            Err(SqlError::UnknownTable(_))
        ));
        assert!(matches!(
            db.execute("SELECT nope(1)"),
            Err(SqlError::UnknownFunction(_))
        ));
        db.execute("CREATE TABLE t (a int)").unwrap();
        assert!(matches!(
            db.execute("CREATE TABLE t (a int)"),
            Err(SqlError::Constraint(_))
        ));
        db.execute("CREATE TABLE IF NOT EXISTS t (a int)").unwrap();
        db.execute("DROP TABLE t").unwrap();
        assert!(db.execute("DROP TABLE t").is_err());
        db.execute("DROP TABLE IF EXISTS t").unwrap();
        assert!(matches!(
            db.execute("SELECT b FROM generate_series(1,2) AS g"),
            Err(SqlError::UnknownColumn(_))
        ));
        // Preparing invalid SQL fails at prepare time, not execution time.
        assert!(matches!(
            db.prepare("SELEKT 1").map(|_| ()),
            Err(SqlError::Parse(_))
        ));
    }

    #[test]
    fn division_semantics() {
        let db = Database::new();
        let one = |sql: &str| db.execute(sql).unwrap().scalar().unwrap().clone();
        assert_eq!(one("SELECT 7 / 2"), Value::Int(3));
        assert_eq!(one("SELECT 7.0 / 2"), Value::Float(3.5));
        assert!(db.execute("SELECT 1 / 0").is_err());
        assert!(db.execute("SELECT 1.0 / 0.0").is_err());
    }

    #[test]
    fn timestamp_interval_arithmetic() {
        let db = Database::new();
        let one = |sql: &str| db.execute(sql).unwrap().scalar().unwrap().clone();
        assert_eq!(
            one("SELECT timestamp '2015-02-01 00:00' + interval '90 minutes'"),
            Value::Timestamp(crate::value::parse_timestamp("2015-02-01 01:30").unwrap())
        );
        assert_eq!(
            one("SELECT timestamp '2015-02-02' - timestamp '2015-02-01'"),
            Value::Interval(86_400)
        );
    }

    #[test]
    fn three_valued_logic() {
        let db = Database::new();
        let one = |sql: &str| db.execute(sql).unwrap().scalar().unwrap().clone();
        assert_eq!(one("SELECT NULL AND false"), Value::Bool(false));
        assert_eq!(one("SELECT NULL AND true"), Value::Null);
        assert_eq!(one("SELECT NULL OR true"), Value::Bool(true));
        assert_eq!(one("SELECT NOT NULL"), Value::Null);
        assert_eq!(one("SELECT 1 = NULL"), Value::Null);
    }

    #[test]
    fn in_list_null_semantics() {
        let db = Database::new();
        let one = |sql: &str| db.execute(sql).unwrap().scalar().unwrap().clone();
        assert_eq!(one("SELECT 1 IN (1, 2)"), Value::Bool(true));
        assert_eq!(one("SELECT 3 IN (1, 2)"), Value::Bool(false));
        assert_eq!(one("SELECT 3 IN (1, NULL)"), Value::Null);
        assert_eq!(one("SELECT 1 NOT IN (2, 3)"), Value::Bool(true));
    }

    #[test]
    fn order_by_nulls_last_and_limit() {
        let db = Database::new();
        db.execute("CREATE TABLE t (v float)").unwrap();
        db.execute("INSERT INTO t VALUES (2.0), (NULL), (1.0)")
            .unwrap();
        let q = db.execute("SELECT v FROM t ORDER BY v").unwrap();
        assert_eq!(q.rows[0][0], Value::Float(1.0));
        assert_eq!(q.rows[2][0], Value::Null);
        let q = db.execute("SELECT v FROM t ORDER BY v LIMIT 1").unwrap();
        assert_eq!(q.len(), 1);
    }

    /// Read one engine counter through the SQL stats surface.
    fn stat(stats: &Statement<'_>, name: &str) -> i64 {
        let q = stats.query(&[Value::Text(name.into())]).unwrap();
        q.rows[0][0].as_i64().unwrap()
    }

    #[test]
    fn plan_cache_reuses_plans_across_executions() {
        let db = setup();
        let stats = db
            .prepare("SELECT value FROM pgfmu_stats() WHERE stat = $1")
            .unwrap();
        let target = db.prepare("SELECT x FROM m WHERE u > $1").unwrap();
        target.query(&[Value::Float(0.0)]).unwrap(); // compiles the plan
        stats.query(&[Value::Text("plans_built".into())]).unwrap(); // compiles the stats plan
        let built0 = stat(&stats, "plans_built");
        let hits0 = stat(&stats, "plan_cache_hits");
        // Re-executions (same handle and re-prepared text) perform no
        // re-planning — only plan-cache hits move.
        target.query(&[Value::Float(0.1)]).unwrap();
        target.query_rows(&[Value::Float(0.2)]).unwrap().count();
        db.query("SELECT x FROM m WHERE u > $1", &[Value::Float(0.3)])
            .unwrap();
        assert_eq!(stat(&stats, "plans_built"), built0, "no plan rebuilds");
        assert!(stat(&stats, "plan_cache_hits") >= hits0 + 3);
        // The uncached path compiles a transient plan every time.
        let b = db.stat(Stat::PlansBuilt);
        db.execute_uncached("SELECT x FROM m").unwrap();
        assert_eq!(db.stat(Stat::PlansBuilt), b + 1);
    }

    #[test]
    fn ddl_bumps_the_schema_epoch_and_replans() {
        let db = setup();
        let target = db.prepare("SELECT x FROM m").unwrap();
        target.query(&[]).unwrap();
        let built0 = db.stat(Stat::PlansBuilt);
        target.query(&[]).unwrap();
        assert_eq!(
            db.stat(Stat::PlansBuilt),
            built0,
            "stable schema reuses the plan"
        );
        db.execute("CREATE TABLE other (a int)").unwrap();
        target.query(&[]).unwrap();
        assert_eq!(
            db.stat(Stat::PlansBuilt),
            built0 + 2,
            "DDL invalidates cached plans"
        );
        // Dropping and recreating the scanned table re-resolves correctly.
        db.execute("DROP TABLE m").unwrap();
        assert!(target.query(&[]).is_err(), "missing table fails at replan");
        db.execute("CREATE TABLE m (x float)").unwrap();
        db.execute("INSERT INTO m VALUES (1.5)").unwrap();
        let q = target.query(&[]).unwrap();
        assert_eq!(q.rows[0][0], Value::Float(1.5));
    }

    #[test]
    fn grouped_aggregates_memoize_per_group() {
        let db = Database::new();
        db.execute("CREATE TABLE t (k int, v float)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 1.0), (1, 2.0), (2, 3.0), (2, 4.0), (3, 5.0)")
            .unwrap();
        let a0 = db.stat(Stat::AggEvals);
        // sum(v) appears four times (twice in the select list, in HAVING,
        // in ORDER BY) but is one distinct aggregate call — it must fold
        // exactly once per group.
        db.execute(
            "SELECT k, sum(v), sum(v) * 2 FROM t GROUP BY k \
             HAVING sum(v) > 0 ORDER BY sum(v) DESC",
        )
        .unwrap();
        assert_eq!(db.stat(Stat::AggEvals) - a0, 3, "one fold per group");
        // Distinct aggregate calls each count: sum(v) and count(*) over
        // three groups = 6 evaluations.
        let a1 = db.stat(Stat::AggEvals);
        db.execute("SELECT k, sum(v), count(*) FROM t GROUP BY k")
            .unwrap();
        assert_eq!(db.stat(Stat::AggEvals) - a1, 6);
    }

    #[test]
    fn statement_query_reexecution_is_clone_free_end_to_end() {
        // The acceptance shape: a prepared grouped statement re-executes
        // with different binds against the same shared plan — verified
        // through the SQL stats surface.
        let db = setup();
        let stats = db
            .prepare("SELECT value FROM pgfmu_stats() WHERE stat = $1")
            .unwrap();
        let rollup = db
            .prepare(
                "SELECT u, count(*), sum(x) FROM m GROUP BY u \
                 HAVING sum(x) > $1 ORDER BY sum(x) DESC",
            )
            .unwrap();
        rollup.query(&[Value::Float(0.0)]).unwrap();
        stats.query(&[Value::Text("plans_built".into())]).unwrap();
        let built0 = stat(&stats, "plans_built");
        for i in 0..5 {
            rollup.query(&[Value::Float(i as f64)]).unwrap();
        }
        assert_eq!(stat(&stats, "plans_built"), built0);
        assert!(stat(&stats, "agg_evals") > 0);
    }

    #[test]
    fn insert_select_from_the_same_table_takes_no_guard() {
        // The INSERT source must not hold the scanned table's read guard
        // while the insert takes its write guard — same-table
        // INSERT … SELECT would deadlock otherwise.
        let db = setup();
        let q = db
            .execute("INSERT INTO m SELECT ts, x + 100.0, y, u FROM m WHERE x < 22")
            .unwrap();
        assert_eq!(q.rows[0][0], Value::Int(2));
        assert_eq!(db.execute("SELECT * FROM m").unwrap().len(), 5);
    }

    #[test]
    fn guarded_cursor_releases_the_table_on_drop() {
        let db = setup();
        let mut rows = db.query_rows("SELECT x FROM m", &[]).unwrap();
        assert!(rows.next().is_some());
        // Partially consumed: the zero-copy cursor still holds the read
        // guard here. Dropping it must release the table for writers.
        drop(rows);
        db.execute("UPDATE m SET u = 1.0").unwrap();
        assert_eq!(
            db.execute("SELECT sum(u) FROM m").unwrap().rows[0][0],
            Value::Float(3.0)
        );
        // A fully drained cursor releases the guard too.
        let n = db.query_rows("SELECT x FROM m", &[]).unwrap().count();
        assert_eq!(n, 3);
        db.execute("DELETE FROM m WHERE x > 23").unwrap();
        assert_eq!(db.execute("SELECT * FROM m").unwrap().len(), 2);
    }

    #[test]
    fn writing_the_streamed_table_succeeds_mid_stream() {
        // The PR-5 regression this MVCC design exists to fix: a
        // half-consumed streaming SELECT no longer locks its table
        // against same-thread writers — and the stream keeps reading its
        // pinned snapshot, blind to the interleaved writes.
        let db = setup();
        let mut rows = db.query_rows("SELECT x FROM m", &[]).unwrap();
        assert!(rows.next().is_some());
        db.execute("INSERT INTO m VALUES ('2015-03-01', 99, 1, 1)")
            .unwrap();
        db.execute("UPDATE m SET x = x + 1000").unwrap();
        db.execute("DELETE FROM m WHERE x > 1050").unwrap();
        // The open cursor still sees the pre-write snapshot: the
        // original x values, unshifted, without the new row.
        let rest: Vec<Value> = rows.map(|r| r.unwrap().remove(0)).collect();
        assert_eq!(rest, vec![Value::Float(23.6231), Value::Float(21.5)]);
        // A fresh statement sees the writes' outcome: three surviving
        // rows, all shifted by 1000.
        assert_eq!(
            db.execute("SELECT count(*) FROM m WHERE x > 1000")
                .unwrap()
                .rows[0][0],
            Value::Int(3)
        );
    }

    #[test]
    fn guarded_cursor_applies_distinct_and_limit_lazily() {
        let db = Database::new();
        db.execute("CREATE TABLE t (v int)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2), (1), (3), (2), (4)")
            .unwrap();
        let mut rows = db
            .query_rows("SELECT DISTINCT v FROM t LIMIT 3", &[])
            .unwrap();
        let got: Vec<Value> = (&mut rows).map(|r| r.unwrap().remove(0)).collect();
        assert_eq!(got, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn in_place_update_is_atomic_on_error() {
        // Every target is evaluated before the first write: a division by
        // zero on the *last* matching row must leave every row untouched.
        let db = Database::new();
        db.execute("CREATE TABLE t (k int, v float)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 1.0), (2, 2.0), (3, 0.0)")
            .unwrap();
        let err = db.execute("UPDATE t SET v = 10.0 / v").unwrap_err();
        assert!(err.to_string().contains("division by zero"), "{err}");
        let q = db.execute("SELECT v FROM t ORDER BY k").unwrap();
        assert_eq!(
            q.rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
            vec![Value::Float(1.0), Value::Float(2.0), Value::Float(0.0)],
            "no partial update applied"
        );
    }

    #[test]
    fn scan_counters_track_strategy_per_statement() {
        let db = setup();
        let scans = || {
            let s = [Stat::RowsScanned, Stat::ScansZeroCopy, Stat::ScanFallbacks];
            s.map(|s| db.stat(s))
        };
        let [r0, z0, f0] = scans();
        db.execute("SELECT x FROM m WHERE u >= 0.0").unwrap(); // zero-copy (guarded)
        db.execute("SELECT x FROM m ORDER BY x LIMIT 2").unwrap(); // zero-copy (eager)
        db.execute("SELECT count(*), avg(x) FROM m").unwrap(); // zero-copy (grouped)
        db.execute("UPDATE m SET y = x * 2.0 WHERE u > 0.0")
            .unwrap(); // under the write guard
        db.execute("DELETE FROM m WHERE x > 1e9").unwrap(); // under the write guard
        let [r1, z1, f1] = scans();
        assert_eq!(z1 - z0, 5);
        assert_eq!(f1, f0, "no snapshot taken by any of the above");
        assert_eq!(r1 - r0, 15, "3 rows examined per statement");
        // A join and a re-entrant predicate both fall back to snapshots.
        db.register_scalar("opaque", |_db, args| Ok(args[0].clone()));
        db.execute("SELECT a.x FROM m a, m b").unwrap();
        db.execute("SELECT x FROM m WHERE opaque(u) >= 0.0")
            .unwrap();
        let [_, z2, f2] = scans();
        assert_eq!(z2, z1);
        assert_eq!(f2 - f1, 3, "two join scans + one fallback scan");
    }

    #[test]
    fn join_snapshots_are_column_pruned() {
        // A two-table join projecting one column per side still joins
        // correctly (pruned slot remapping) and leaves wide columns
        // behind in the snapshot.
        let db = Database::new();
        db.execute("CREATE TABLE wide (a int, blob text, b int)")
            .unwrap();
        db.execute("CREATE TABLE tags (t text, n int)").unwrap();
        db.execute("INSERT INTO wide VALUES (1, 'xxxxxxxxxxxxxxxx', 10), (2, 'y', 20)")
            .unwrap();
        db.execute("INSERT INTO tags VALUES ('p', 1), ('q', 2)")
            .unwrap();
        let q = db
            .execute(
                "SELECT tags.t, wide.b FROM wide, tags \
                 WHERE wide.a = tags.n ORDER BY tags.t",
            )
            .unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.rows[0], vec![Value::Text("p".into()), Value::Int(10)]);
        assert_eq!(q.rows[1], vec![Value::Text("q".into()), Value::Int(20)]);
    }

    #[test]
    fn insert_rows_coerces_via_schema() {
        let db = Database::new();
        db.execute("CREATE TABLE t (a float, b variant)").unwrap();
        db.insert_rows("t", vec![vec![Value::Int(1), Value::Bool(true)]])
            .unwrap();
        let handle = db.get_table("t").unwrap();
        let rows = handle.read().latest_rows();
        assert_eq!(rows[0][0], Value::Float(1.0));
        assert_eq!(rows[0][1].data_type(), DataType::Bool);
    }

    #[test]
    fn begin_commit_publishes_atomically() {
        let db = setup();
        db.execute("BEGIN").unwrap();
        assert!(db.in_transaction());
        db.execute("INSERT INTO m VALUES ('2015-03-01', 1.0, 0, 0)")
            .unwrap();
        db.execute("UPDATE m SET u = 9.0 WHERE x = 21.5").unwrap();
        // The transaction's own statements see its pending writes.
        assert_eq!(
            db.execute("SELECT count(*) FROM m").unwrap().rows[0][0],
            Value::Int(4)
        );
        db.execute("COMMIT").unwrap();
        assert!(!db.in_transaction());
        assert_eq!(
            db.execute("SELECT count(*) FROM m").unwrap().rows[0][0],
            Value::Int(4)
        );
        assert_eq!(
            db.execute("SELECT u FROM m WHERE x = 21.5").unwrap().rows[0][0],
            Value::Float(9.0)
        );
        assert_eq!(db.stat(Stat::TxnsCommitted), 1);
        assert_eq!(db.stat(Stat::TxnsRolledBack), 0);
    }

    #[test]
    fn uncommitted_writes_are_invisible_to_other_threads() {
        let db = setup();
        db.execute("BEGIN").unwrap();
        db.execute("DELETE FROM m").unwrap();
        assert_eq!(
            db.execute("SELECT count(*) FROM m").unwrap().rows[0][0],
            Value::Int(0),
            "own session sees its pending delete"
        );
        std::thread::scope(|s| {
            let db = &db;
            s.spawn(move || {
                assert_eq!(
                    db.execute("SELECT count(*) FROM m").unwrap().rows[0][0],
                    Value::Int(3),
                    "another session must not see uncommitted writes"
                );
            });
        });
        db.execute("ROLLBACK").unwrap();
        assert_eq!(
            db.execute("SELECT count(*) FROM m").unwrap().rows[0][0],
            Value::Int(3)
        );
    }

    #[test]
    fn rollback_restores_contents_and_schema_epoch() {
        let db = setup();
        let before = db.execute("SELECT * FROM m ORDER BY ts").unwrap();
        let epoch0 = db.schema_epoch.load(Ordering::SeqCst);
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO m VALUES ('2015-03-01', 1, 1, 1)")
            .unwrap();
        db.execute("UPDATE m SET u = 100.0").unwrap();
        db.execute("DELETE FROM m WHERE x > 23").unwrap();
        db.execute("CREATE TABLE scratch (a int)").unwrap();
        db.execute("DROP TABLE scratch").unwrap();
        db.execute("ROLLBACK").unwrap();
        let after = db.execute("SELECT * FROM m ORDER BY ts").unwrap();
        assert_eq!(before.rows, after.rows, "contents identical after ROLLBACK");
        assert!(!db.has_table("scratch"));
        assert_eq!(
            db.schema_epoch.load(Ordering::SeqCst),
            epoch0,
            "epoch restored so pre-BEGIN cached plans revalidate"
        );
        assert_eq!(db.stat(Stat::TxnsCommitted), 0);
        assert_eq!(db.stat(Stat::TxnsRolledBack), 1);
    }

    #[test]
    fn rollback_reinstates_a_dropped_table() {
        let db = setup();
        db.execute("BEGIN").unwrap();
        db.execute("DROP TABLE m").unwrap();
        assert!(!db.has_table("m"));
        db.execute("ROLLBACK").unwrap();
        assert!(db.has_table("m"));
        assert_eq!(
            db.execute("SELECT count(*) FROM m").unwrap().rows[0][0],
            Value::Int(3),
            "the displaced table came back with its rows"
        );
    }

    #[test]
    fn transaction_notices_match_postgres_wording() {
        let db = Database::new();
        let q = db.execute("COMMIT").unwrap();
        assert_eq!(q.columns, vec!["notice".to_string()]);
        assert_eq!(
            q.rows[0][0],
            Value::Text("there is no transaction in progress".into())
        );
        let q = db.execute("ROLLBACK").unwrap();
        assert_eq!(
            q.rows[0][0],
            Value::Text("there is no transaction in progress".into())
        );
        db.execute("BEGIN").unwrap();
        let q = db.execute("BEGIN").unwrap();
        assert_eq!(
            q.rows[0][0],
            Value::Text("there is already a transaction in progress".into())
        );
        // The duplicate BEGIN left the original transaction open.
        assert!(db.in_transaction());
        db.execute("COMMIT").unwrap();
        assert!(!db.in_transaction());
    }

    #[test]
    fn transaction_statement_aliases_parse() {
        let db = Database::new();
        db.execute("START TRANSACTION").unwrap();
        db.execute("COMMIT WORK").unwrap();
        db.execute("BEGIN TRANSACTION").unwrap();
        db.execute("END").unwrap();
        db.execute("BEGIN WORK").unwrap();
        db.execute("ABORT").unwrap();
        assert_eq!(db.stat(Stat::TxnsCommitted), 2);
        assert_eq!(db.stat(Stat::TxnsRolledBack), 1);
    }

    #[test]
    fn failed_statement_aborts_the_transaction() {
        let db = setup();
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO m VALUES ('2015-03-01', 1, 1, 1)")
            .unwrap();
        // u = 0.0 on the first row: a runtime evaluation error.
        assert!(db.execute("UPDATE m SET y = x / u").is_err());
        let err = db.execute("SELECT count(*) FROM m").unwrap_err();
        assert!(
            err.to_string().contains(
                "current transaction is aborted, commands ignored until end of \
                 transaction block"
            ),
            "unexpected error: {err}"
        );
        // COMMIT of an aborted transaction rolls it back.
        db.execute("COMMIT").unwrap();
        assert_eq!(
            db.execute("SELECT count(*) FROM m").unwrap().rows[0][0],
            Value::Int(3)
        );
        assert_eq!(db.stat(Stat::TxnsCommitted), 0);
        assert_eq!(db.stat(Stat::TxnsRolledBack), 1);
    }

    #[test]
    fn uncached_statements_honour_the_transaction() {
        let db = setup();
        db.execute("BEGIN").unwrap();
        db.execute_uncached("INSERT INTO m VALUES ('2015-03-01', 1, 1, 1)")
            .unwrap();
        // u = 0.0 on the first row: a runtime evaluation error.
        assert!(db.execute_uncached("UPDATE m SET y = x / u").is_err());
        let err = db.execute_uncached("SELECT 1").unwrap_err();
        assert!(
            err.to_string().ends_with(
                "current transaction is aborted, commands ignored until end of \
                 transaction block"
            ),
            "unexpected error: {err}"
        );
        db.execute("COMMIT").unwrap();
        assert_eq!(db.stat(Stat::TxnsRolledBack), 1);
        assert_eq!(
            db.execute_uncached("SELECT count(*) FROM m").unwrap().rows[0][0],
            Value::Int(3)
        );
    }

    #[test]
    fn pre_execution_failures_abort_the_transaction() {
        // Plan-time errors (unknown function) and parse errors abort an
        // open transaction just like execution failures — PostgreSQL
        // aborts on *any* failed statement inside a transaction block.
        let db = setup();
        db.execute("BEGIN").unwrap();
        assert!(db.execute("SELECT no_such_function(x) FROM m").is_err());
        let err = db.execute("SELECT 1").unwrap_err();
        assert!(
            err.to_string().contains("current transaction is aborted"),
            "plan-time failure should abort: {err}"
        );
        db.execute("ROLLBACK").unwrap();

        db.execute("BEGIN").unwrap();
        assert!(db.execute("SELEKT garbage").is_err());
        let err = db.execute("SELECT 1").unwrap_err();
        assert!(
            err.to_string().contains("current transaction is aborted"),
            "parse failure should abort: {err}"
        );
        // Inside the aborted transaction, a statement that itself fails
        // to plan is still rejected with the aborted wording: rejection
        // happens before planning.
        let err = db.execute("SELECT no_such_function(1)").unwrap_err();
        assert!(
            err.to_string().contains("current transaction is aborted"),
            "aborted check should precede planning: {err}"
        );
        db.execute("ROLLBACK").unwrap();
        assert_eq!(db.stat(Stat::TxnsCommitted), 0);
        assert_eq!(db.stat(Stat::TxnsRolledBack), 2);
    }

    #[test]
    fn concurrent_update_is_a_serialization_failure() {
        let db = setup();
        db.execute("BEGIN").unwrap();
        db.execute("UPDATE m SET u = 1.0 WHERE x = 21.5").unwrap();
        std::thread::scope(|s| {
            let db = &db;
            s.spawn(move || {
                // First updater wins: the other session's auto-commit
                // UPDATE of the same row fails rather than clobbering.
                let err = db
                    .execute("UPDATE m SET u = 2.0 WHERE x = 21.5")
                    .unwrap_err();
                assert!(
                    err.to_string().contains("could not serialize access"),
                    "unexpected error: {err}"
                );
            });
        });
        db.execute("COMMIT").unwrap();
        assert_eq!(
            db.execute("SELECT u FROM m WHERE x = 21.5").unwrap().rows[0][0],
            Value::Float(1.0)
        );
    }

    #[test]
    fn insert_select_is_atomic_on_error() {
        // The INSERT … SELECT source errors part-way through its rows:
        // nothing is appended, not even the rows produced before it.
        let db = Database::new();
        db.execute("CREATE TABLE t (v int)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        db.register_scalar("boom_on_two", |_db, args| match args[0] {
            Value::Int(2) => Err(SqlError::Execution("boom".into())),
            ref v => Ok(v.clone()),
        });
        let err = db
            .execute("INSERT INTO t SELECT boom_on_two(v) FROM t")
            .unwrap_err();
        assert!(err.to_string().contains("boom"), "{err}");
        assert_eq!(
            db.execute("SELECT count(*) FROM t").unwrap().rows[0][0],
            Value::Int(3),
            "no partial insert survives the failed statement"
        );
    }

    #[test]
    fn vacuum_reclaims_dead_versions() {
        let db = Database::new();
        db.execute("CREATE TABLE t (v int)").unwrap();
        db.execute("INSERT INTO t VALUES (0)").unwrap();
        // Every UPDATE ends the old version and appends its successor,
        // and a transaction never compacts in-line, so each round leaves
        // one dead version for vacuum.
        for i in 1..=10 {
            db.execute("BEGIN").unwrap();
            db.execute(&format!("UPDATE t SET v = {i}")).unwrap();
            db.execute("COMMIT").unwrap();
        }
        let freed = db.vacuum();
        assert!(freed >= 9, "freed only {freed} versions");
        assert!(db.stat(Stat::VersionsGc) >= 9);
        assert_eq!(
            db.execute("SELECT v FROM t").unwrap().rows[0][0],
            Value::Int(10),
            "the live version survives compaction"
        );
    }

    #[test]
    fn write_paths_collect_garbage_opportunistically() {
        // Pinned to one shard: this asserts the legacy whole-table pin
        // contract. With S > 1 a drained shard unpins early and in-line
        // GC may run sooner (covered in tests/shards.rs).
        let db = Database::with_table_shards(1);
        db.execute("CREATE TABLE t (v int)").unwrap();
        db.execute("INSERT INTO t VALUES (0)").unwrap();
        // A half-open cursor pins the table: every UPDATE appends a
        // version, and compaction is deferred. Enough rounds to cross
        // the opportunistic GC threshold.
        let mut rows = db.query_rows("SELECT v FROM t", &[]).unwrap();
        assert!(rows.next().is_some());
        for i in 1..=200 {
            db.execute(&format!("UPDATE t SET v = {i}")).unwrap();
        }
        assert_eq!(
            db.stat(Stat::VersionsGc),
            0,
            "pinned table must not compact"
        );
        drop(rows);
        // The next write-path visit notices the backlog and compacts
        // in-line — no explicit vacuum.
        db.execute("UPDATE t SET v = 201").unwrap();
        assert!(
            db.stat(Stat::VersionsGc) > 0,
            "UPDATE-heavy workload should trigger in-line compaction"
        );
        assert_eq!(
            db.execute("SELECT v FROM t").unwrap().rows[0][0],
            Value::Int(201)
        );
    }

    #[test]
    fn open_cursors_block_compaction() {
        // Pinned to one shard: with S > 1 the cursor pins only the shard
        // it is draining, so vacuum may reclaim shards it has passed
        // (covered in tests/shards.rs).
        let db = Database::with_table_shards(1);
        db.execute("CREATE TABLE t (v int)").unwrap();
        db.execute("INSERT INTO t VALUES (0), (1)").unwrap();
        let mut rows = db.query_rows("SELECT v FROM t", &[]).unwrap();
        assert!(rows.next().is_some());
        // Writes land while the cursor is open — and must append
        // versions, because the cursor's snapshot still reads the old
        // ones.
        for i in 1..=5 {
            db.execute(&format!("UPDATE t SET v = v + {i}")).unwrap();
        }
        // The half-consumed cursor pins the table: its saved version
        // index must stay valid, so compaction skips the table.
        assert_eq!(db.vacuum(), 0);
        drop(rows);
        assert!(db.vacuum() > 0, "dropping the cursor re-enables GC");
    }

    #[test]
    fn gc_watermark_respects_old_snapshots() {
        let db = Database::new();
        db.execute("CREATE TABLE t (v int)").unwrap();
        db.execute("INSERT INTO t VALUES (0)").unwrap();
        db.execute("BEGIN").unwrap(); // pins this snapshot timestamp
        std::thread::scope(|s| {
            let db2 = &db;
            s.spawn(move || {
                for i in 1..=10 {
                    db2.execute(&format!("UPDATE t SET v = {i}")).unwrap();
                }
                assert_eq!(
                    db2.vacuum(),
                    0,
                    "versions the pinned snapshot can still read must survive"
                );
            });
        });
        // The open transaction still reads its pinned snapshot.
        assert_eq!(
            db.execute("SELECT v FROM t").unwrap().rows[0][0],
            Value::Int(0)
        );
        db.execute("COMMIT").unwrap();
        assert!(db.vacuum() >= 9, "watermark advanced after COMMIT");
    }

    #[test]
    fn reset_session_rolls_back_a_leaked_transaction() {
        let db = Database::new();
        db.execute("CREATE TABLE t (v int)").unwrap();
        // A task dies between BEGIN and COMMIT on this thread…
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        assert!(db.in_transaction());
        // …so the next task to land on the thread resets the session.
        assert!(db.reset_session(), "an open transaction was reclaimed");
        assert!(!db.in_transaction());
        assert_eq!(
            db.execute("SELECT count(*) FROM t").unwrap().rows[0][0],
            Value::Int(0),
            "the uncommitted insert must be gone"
        );
        // The reset counts as a rollback and is idempotent.
        assert_eq!(db.stat(Stat::TxnsRolledBack), 1);
        assert!(!db.reset_session());
        assert_eq!(db.stat(Stat::TxnsRolledBack), 1);
        // The snapshot pin went with it: the GC watermark is released.
        db.execute("INSERT INTO t VALUES (2)").unwrap();
        db.execute("UPDATE t SET v = 3").unwrap();
        assert!(db.vacuum() >= 1, "no leaked pin may hold back the GC");
    }

    #[test]
    fn fleet_counters_accumulate_and_report() {
        let db = Database::new();
        let fleet =
            || [Stat::FleetTasks, Stat::FleetWorkers, Stat::FleetTaskNs].map(|s| db.stat(s));
        assert_eq!(fleet(), [0, 0, 0]);
        db.note_fleet(100, 4, 5_000);
        db.note_fleet(10, 2, 1_000);
        // Tasks and task time accumulate; the pool width is a high-water mark.
        assert_eq!(fleet(), [110, 4, 6_000]);
        for (stat, expect) in [
            ("fleet_tasks", 110),
            ("fleet_workers", 4),
            ("fleet_task_ns", 6_000),
        ] {
            let q = db
                .execute(&format!(
                    "SELECT value FROM pgfmu_stats() WHERE stat = '{stat}'"
                ))
                .unwrap();
            assert_eq!(q.rows[0][0], Value::Int(expect), "{stat}");
        }
    }
}
