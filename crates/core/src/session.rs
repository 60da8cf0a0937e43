//! The pgFMU session: one database + catalogue + FMU storage + estimation
//! configuration, with every paper UDF registered and a typed Rust API.
//!
//! PostgreSQL gives extension UDFs a shared backend session; [`PgFmu`] is
//! that session object. Everything the SQL surface can do is also exposed
//! as a typed method (`fmu_create`, `fmu_parest`, …) so benchmarks and
//! library users can skip SQL parsing without changing semantics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use pgfmu_catalog::{Bound, FmuStorage, InstanceVariableRow, ModelCatalog, Uuid};
use pgfmu_estimation::EstimationConfig;
use pgfmu_fmi::Fmu;
use pgfmu_sqlmini::{Database, FromRow, QueryResult, Rows, Statement, Value};

use crate::error::{PgFmuError, Result};
use crate::parest::{run_parest, ParestReport};
use crate::simulate::{run_simulate, TimeSpec};
use crate::udfs;

/// Internal session state shared with the registered UDF closures.
pub struct Session {
    pub(crate) db: Arc<Database>,
    pub(crate) catalog: ModelCatalog,
    pub(crate) config: RwLock<EstimationConfig>,
    pub(crate) mi_enabled: AtomicBool,
}

/// The pgFMU extension session.
pub struct PgFmu {
    inner: Arc<Session>,
}

impl PgFmu {
    /// Create a session with FMU storage in a fresh temporary directory.
    pub fn new() -> Result<Self> {
        let storage = FmuStorage::open_temp()?;
        Self::with_storage(storage)
    }

    /// Create a session with explicit FMU storage.
    pub fn with_storage(storage: FmuStorage) -> Result<Self> {
        let db = Arc::new(Database::new());
        let catalog = ModelCatalog::new(Arc::clone(&db), Arc::new(storage))?;
        let inner = Arc::new(Session {
            db: Arc::clone(&db),
            catalog,
            config: RwLock::new(EstimationConfig::default()),
            mi_enabled: AtomicBool::new(true),
        });
        // UDF closures hold a Weak reference to avoid a session↔database
        // reference cycle.
        udfs::register_all(&db, Arc::downgrade(&inner));
        pgfmu_analytics::register_udfs(&db);
        Ok(PgFmu { inner })
    }

    /// The underlying database (catalogue tables + user tables + UDFs).
    pub fn db(&self) -> &Arc<Database> {
        &self.inner.db
    }

    /// The model catalogue.
    pub fn catalog(&self) -> &ModelCatalog {
        &self.inner.catalog
    }

    /// Execute SQL in this session.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        Ok(self.inner.db.execute(sql)?)
    }

    /// Prepare a statement in this session — the parsed plan is cached by
    /// query text, and `$1..$n` placeholders are bound per execution with
    /// [`Statement::query`] / [`Statement::query_rows`] /
    /// [`Statement::query_as`].
    ///
    /// ```
    /// use pgfmu::PgFmu;
    /// use pgfmu_sqlmini::params;
    ///
    /// let s = PgFmu::new().unwrap();
    /// let create = s.prepare("SELECT fmu_create($1, $2)").unwrap();
    /// create.query(params!["HP1", "HP1Instance1"]).unwrap();
    /// let n: Vec<i64> = s
    ///     .query_as(
    ///         "SELECT count(*) FROM fmu_variables($1)",
    ///         params!["HP1Instance1"],
    ///     )
    ///     .unwrap();
    /// assert_eq!(n, vec![8]);
    /// ```
    pub fn prepare(&self, sql: &str) -> Result<Statement<'_>> {
        Ok(self.inner.db.prepare(sql)?)
    }

    /// Prepare (with plan-cache reuse) and execute SQL with `$n` binds.
    pub fn query(&self, sql: &str, params: &[Value]) -> Result<QueryResult> {
        Ok(self.inner.db.query(sql, params)?)
    }

    /// Prepare and execute SQL with binds, streaming result rows.
    pub fn query_rows(&self, sql: &str, params: &[Value]) -> Result<Rows<'_>> {
        Ok(self.inner.db.query_rows(sql, params)?)
    }

    /// Prepare, execute and decode each result row into `T` (scalars,
    /// `Option<T>`, tuples — see [`FromRow`]).
    pub fn query_as<T: FromRow>(&self, sql: &str, params: &[Value]) -> Result<Vec<T>> {
        Ok(self.inner.db.query_as(sql, params)?)
    }

    /// Enable/disable the multi-instance optimization — the switch between
    /// the paper's pgFMU+ and pgFMU− configurations.
    pub fn set_mi_enabled(&self, enabled: bool) {
        self.inner.mi_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Is the MI optimization enabled?
    pub fn mi_enabled(&self) -> bool {
        self.inner.mi_enabled.load(Ordering::Relaxed)
    }

    /// Replace the estimation configuration.
    pub fn set_estimation_config(&self, cfg: EstimationConfig) {
        *self.inner.config.write() = cfg;
    }

    /// The current estimation configuration.
    pub fn estimation_config(&self) -> EstimationConfig {
        *self.inner.config.read()
    }

    // ---- typed UDF API ---------------------------------------------------

    /// `fmu_create(modelRef, [instanceId])` — load/compile a model and
    /// create an instance (paper §5, Algorithm 1). Returns the instance id.
    pub fn fmu_create(&self, model_ref: &str, instance_id: Option<&str>) -> Result<String> {
        self.inner.fmu_create(model_ref, instance_id)
    }

    /// `fmu_copy(instanceId, [instanceId2])` — duplicate an instance.
    pub fn fmu_copy(&self, src: &str, dst: Option<&str>) -> Result<String> {
        Ok(self.inner.catalog.copy_instance(src, dst)?)
    }

    /// `fmu_variables(instanceId)` rows.
    pub fn fmu_variables(&self, instance_id: &str) -> Result<Vec<InstanceVariableRow>> {
        Ok(self.inner.catalog.variables(instance_id)?)
    }

    /// `fmu_get(instanceId, varName)` → (value, min, max).
    pub fn fmu_get(
        &self,
        instance_id: &str,
        var: &str,
    ) -> Result<(Option<f64>, Option<f64>, Option<f64>)> {
        Ok(self.inner.catalog.get_value(instance_id, var)?)
    }

    /// `fmu_set_initial(instanceId, varName, value)`.
    pub fn fmu_set_initial(&self, instance_id: &str, var: &str, value: f64) -> Result<()> {
        Ok(self.inner.catalog.set_value(instance_id, var, value)?)
    }

    /// `fmu_set_minimum(instanceId, varName, value)`.
    pub fn fmu_set_minimum(&self, instance_id: &str, var: &str, value: f64) -> Result<()> {
        Ok(self
            .inner
            .catalog
            .set_bound(instance_id, var, Bound::Min, value)?)
    }

    /// `fmu_set_maximum(instanceId, varName, value)`.
    pub fn fmu_set_maximum(&self, instance_id: &str, var: &str, value: f64) -> Result<()> {
        Ok(self
            .inner
            .catalog
            .set_bound(instance_id, var, Bound::Max, value)?)
    }

    /// `fmu_reset(instanceId)`.
    pub fn fmu_reset(&self, instance_id: &str) -> Result<()> {
        Ok(self.inner.catalog.reset_instance(instance_id)?)
    }

    /// `fmu_delete_instance(instanceId)`.
    pub fn fmu_delete_instance(&self, instance_id: &str) -> Result<()> {
        Ok(self.inner.catalog.delete_instance(instance_id)?)
    }

    /// `fmu_delete_model(modelId)` — accepts a UUID or a model name;
    /// cascades to all instances.
    pub fn fmu_delete_model(&self, model_ref: &str) -> Result<()> {
        self.inner.fmu_delete_model(model_ref)
    }

    /// `fmu_parest(instanceIds, input_sqls, [pars], [threshold])` —
    /// Algorithms 2 and 3. Returns one report per instance.
    pub fn fmu_parest(
        &self,
        instance_ids: &[String],
        input_sqls: &[String],
        pars: Option<&[String]>,
        threshold: Option<f64>,
    ) -> Result<Vec<ParestReport>> {
        run_parest(&self.inner, instance_ids, input_sqls, pars, threshold)
    }

    /// `fmu_simulate(instanceId, [input_sql], [time_from], [time_to])` —
    /// returns the long `(simulationTime, instanceId, varName, value)`
    /// table of paper Table 4.
    pub fn fmu_simulate(
        &self,
        instance_id: &str,
        input_sql: Option<&str>,
        time_from: Option<TimeSpec>,
        time_to: Option<TimeSpec>,
    ) -> Result<QueryResult> {
        run_simulate(&self.inner, instance_id, input_sql, time_from, time_to)
    }

    /// `fmu_simulate_fleet(instanceIds, [input_sql], [time_from],
    /// [time_to], [workers])` — simulate a whole fleet of instances
    /// concurrently over a worker pool and return the concatenated long
    /// output table, in instance order. `workers = None` (or 0) uses
    /// [`crate::fleet::default_workers`]; the pool is never wider than
    /// the fleet or [`crate::fleet::MAX_WORKERS`]. Any worker count
    /// produces output byte-identical to a serial loop of
    /// [`PgFmu::fmu_simulate`] calls.
    pub fn fmu_simulate_fleet(
        &self,
        instance_ids: &[String],
        input_sql: Option<&str>,
        time_from: Option<TimeSpec>,
        time_to: Option<TimeSpec>,
        workers: Option<usize>,
    ) -> Result<QueryResult> {
        crate::fleet::run_simulate_fleet(
            &self.inner,
            instance_ids,
            input_sql,
            time_from,
            time_to,
            workers,
        )
    }

    /// `fmu_parest_fleet(instanceIds, input_sqls, [pars], [threshold],
    /// [workers])` — [`PgFmu::fmu_parest`] with the batch's objective
    /// evaluations fanned out over a worker pool. Reports come back in
    /// instance order, byte-identical to the serial path.
    pub fn fmu_parest_fleet(
        &self,
        instance_ids: &[String],
        input_sqls: &[String],
        pars: Option<&[String]>,
        threshold: Option<f64>,
        workers: Option<usize>,
    ) -> Result<Vec<ParestReport>> {
        crate::fleet::run_parest_fleet(
            &self.inner,
            instance_ids,
            input_sqls,
            pars,
            threshold,
            workers,
        )
    }

    /// Like [`PgFmu::fmu_simulate`], but streaming: the long output table
    /// is produced through a row-producing cursor, so consumers that
    /// filter, decode row by row, or stop early never materialize the
    /// whole result.
    ///
    /// ```
    /// use pgfmu::PgFmu;
    ///
    /// let s = PgFmu::new().unwrap();
    /// s.execute("SELECT fmu_create('HP0', 'i')").unwrap();
    /// let rows = s.fmu_simulate_rows("i", None, None, None).unwrap();
    /// let first = rows.into_named().next().unwrap().unwrap();
    /// assert_eq!(first.get::<String>("instanceid").unwrap(), "i");
    /// ```
    pub fn fmu_simulate_rows(
        &self,
        instance_id: &str,
        input_sql: Option<&str>,
        time_from: Option<TimeSpec>,
        time_to: Option<TimeSpec>,
    ) -> Result<Rows<'static>> {
        crate::simulate::run_simulate_rows(&self.inner, instance_id, input_sql, time_from, time_to)
    }

    /// `fmu_control(...)` — the future-work dynamic-optimization UDF; see
    /// [`crate::control`].
    pub fn fmu_control(
        &self,
        instance_id: &str,
        input_name: &str,
        horizon_hours: f64,
        intervals: usize,
        setpoint: f64,
        effort_weight: f64,
    ) -> Result<Vec<(f64, f64)>> {
        crate::control::run_control(
            &self.inner,
            instance_id,
            input_name,
            horizon_hours,
            intervals,
            setpoint,
            effort_weight,
        )
    }
}

impl Session {
    /// Resolve a model reference: `.fmu` archive path, `.mo` file path,
    /// inline Modelica source, or a builtin evaluation-model name.
    pub(crate) fn resolve_model_ref(&self, model_ref: &str) -> Result<Fmu> {
        if pgfmu_modelica::looks_like_inline_source(model_ref) {
            return Ok(pgfmu_modelica::compile_str(model_ref)?);
        }
        let trimmed = model_ref.trim();
        if trimmed.ends_with(".fmu") {
            return Ok(pgfmu_fmi::archive::read_from_path(std::path::Path::new(
                trimmed,
            ))?);
        }
        if trimmed.ends_with(".mo") {
            return Ok(pgfmu_modelica::compile_file(std::path::Path::new(trimmed))?);
        }
        if let Some(fmu) = pgfmu_fmi::builtin::by_name(trimmed) {
            return Ok(fmu);
        }
        Err(PgFmuError::Usage(format!(
            "cannot interpret '{model_ref}' as a model reference \
             (.fmu path, .mo path, inline Modelica, or builtin name)"
        )))
    }

    /// Does a string look like a model reference rather than an instance
    /// identifier? Used to tolerate the paper's swapped-argument examples.
    pub(crate) fn looks_like_model_ref(&self, s: &str) -> bool {
        let t = s.trim();
        t.ends_with(".fmu")
            || t.ends_with(".mo")
            || pgfmu_modelica::looks_like_inline_source(t)
            || pgfmu_fmi::builtin::by_name(t).is_some()
    }

    pub(crate) fn fmu_create(&self, model_ref: &str, instance_id: Option<&str>) -> Result<String> {
        let fmu = self.resolve_model_ref(model_ref)?;
        let uuid = self.catalog.register_model(fmu)?;
        Ok(self.catalog.create_instance(uuid, instance_id)?)
    }

    pub(crate) fn fmu_delete_model(&self, model_ref: &str) -> Result<()> {
        let uuid = if let Ok(uuid) = model_ref.parse::<Uuid>() {
            uuid
        } else if let Some(uuid) = self.catalog.find_model_by_name(model_ref)? {
            uuid
        } else {
            return Err(PgFmuError::Catalog(
                pgfmu_catalog::CatalogError::UnknownModel(model_ref.to_string()),
            ));
        };
        Ok(self.catalog.delete_model(uuid)?)
    }
}
