//! The model catalogue: Figure 4's four tables plus typed accessors.
//!
//! All catalogue state lives in ordinary DBMS tables so users can inspect
//! it with plain SQL, exactly as in the paper. The accessors here are the
//! typed API the pgFMU UDF layer builds on.

use std::fmt;
use std::sync::Arc;

use std::collections::HashMap;

use pgfmu_fmi::{Causality, FmiError, Fmu, FmuInstance, Variability};
use pgfmu_sqlmini::{params, Database, SqlError, Value};

use crate::storage::FmuStorage;
use crate::uuid::Uuid;

/// Errors from catalogue operations.
#[derive(Debug)]
pub enum CatalogError {
    /// Underlying SQL failure.
    Sql(SqlError),
    /// Underlying FMI failure.
    Fmi(FmiError),
    /// The referenced instance does not exist.
    UnknownInstance(String),
    /// The referenced model does not exist.
    UnknownModel(String),
    /// The instance identifier is already taken.
    InstanceExists(String),
    /// The referenced variable does not exist in the model.
    UnknownVariable(String),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::Sql(e) => write!(f, "{e}"),
            CatalogError::Fmi(e) => write!(f, "{e}"),
            CatalogError::UnknownInstance(i) => write!(f, "model instance '{i}' does not exist"),
            CatalogError::UnknownModel(m) => write!(f, "model '{m}' does not exist"),
            CatalogError::InstanceExists(i) => {
                write!(f, "model instance '{i}' already exists")
            }
            CatalogError::UnknownVariable(v) => write!(f, "model variable '{v}' does not exist"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<SqlError> for CatalogError {
    fn from(e: SqlError) -> Self {
        CatalogError::Sql(e)
    }
}

impl From<FmiError> for CatalogError {
    fn from(e: FmiError) -> Self {
        CatalogError::Fmi(e)
    }
}

/// Catalogue errors surface to SQL users as execution errors, so UDF
/// closures can use `?` directly.
impl From<CatalogError> for SqlError {
    fn from(e: CatalogError) -> Self {
        match e {
            CatalogError::Sql(s) => s,
            other => SqlError::Execution(other.to_string()),
        }
    }
}

/// Convenient alias.
pub type Result<T> = std::result::Result<T, CatalogError>;

/// One row of the `fmu_variables` output (paper Table 3).
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceVariableRow {
    /// Instance identifier.
    pub instance_id: String,
    /// Variable name.
    pub var_name: String,
    /// Variable kind: `parameter` / `input` / `output` / `state`.
    pub var_type: String,
    /// The instance's current value (None for inputs/outputs).
    pub value: Option<f64>,
    /// Lower bound, when declared.
    pub min_value: Option<f64>,
    /// Upper bound, when declared.
    pub max_value: Option<f64>,
}

fn value_to_opt(v: &Value) -> Option<f64> {
    v.as_f64().ok()
}

/// The catalogue: typed operations over the four tables + FMU storage.
pub struct ModelCatalog {
    db: Arc<Database>,
    storage: Arc<FmuStorage>,
}

impl ModelCatalog {
    /// Set up the catalogue tables (idempotent) on the given database.
    pub fn new(db: Arc<Database>, storage: Arc<FmuStorage>) -> Result<Self> {
        db.execute(
            "CREATE TABLE IF NOT EXISTS model (\
               modelid text, name text, description text, \
               defaultstarttime float, defaultstoptime float, \
               stepsize float, tolerance float)",
        )?;
        db.execute(
            "CREATE TABLE IF NOT EXISTS modelvariable (\
               modelid text, varname text, vartype text, datatype text, \
               variability text, initialvalue variant, minvalue variant, \
               maxvalue variant, unit text, description text)",
        )?;
        db.execute(
            "CREATE TABLE IF NOT EXISTS modelinstance (\
               instanceid text, modelid text)",
        )?;
        db.execute(
            "CREATE TABLE IF NOT EXISTS modelinstancevalues (\
               modelid text, instanceid text, varname text, value variant)",
        )?;
        Ok(ModelCatalog { db, storage })
    }

    /// The underlying database.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The underlying FMU storage.
    pub fn storage(&self) -> &Arc<FmuStorage> {
        &self.storage
    }

    // ---- models -------------------------------------------------------------

    /// Register a compiled FMU in the catalogue, returning its UUID.
    ///
    /// Loading the *same* model again (same name, identical archive) reuses
    /// the existing entry — the paper's "initial copy of the FMU file is
    /// reused" behaviour.
    pub fn register_model(&self, fmu: Fmu) -> Result<Uuid> {
        if let Some(existing) = self.find_model_by_name(fmu.name())? {
            let stored = self.storage.load(existing)?;
            if *stored == fmu {
                return Ok(existing);
            }
        }
        let uuid = Uuid::new_v4();
        let de = fmu.description.default_experiment;
        self.db.query(
            "INSERT INTO model VALUES ($1, $2, $3, $4, $5, $6, $7)",
            params![
                uuid.to_string(),
                fmu.name(),
                fmu.description.description.as_str(),
                de.start_time,
                de.stop_time,
                de.step_size,
                de.tolerance
            ],
        )?;
        for v in &fmu.description.variables {
            self.db.query(
                "INSERT INTO modelvariable VALUES ($1, $2, $3, $4, $5, $6, $7, $8, $9, $10)",
                params![
                    uuid.to_string(),
                    v.name.as_str(),
                    v.causality.as_str(),
                    v.var_type.as_str(),
                    v.variability.as_str(),
                    v.start,
                    v.min,
                    v.max,
                    v.unit.as_str(),
                    v.description.as_str()
                ],
            )?;
        }
        self.storage.store(uuid, fmu)?;
        Ok(uuid)
    }

    /// Look up a model UUID by model (class) name.
    pub fn find_model_by_name(&self, name: &str) -> Result<Option<Uuid>> {
        let qres = self
            .db
            .query("SELECT modelid FROM model WHERE name = $1", params![name])?;
        match qres.rows.first() {
            None => Ok(None),
            Some(row) => {
                let s = row[0].as_str().map_err(CatalogError::Sql)?;
                s.parse::<Uuid>()
                    .map(Some)
                    .map_err(|_| CatalogError::UnknownModel(s.to_string()))
            }
        }
    }

    /// The shared compiled model for a UUID.
    pub fn model_fmu(&self, uuid: Uuid) -> Result<Arc<Fmu>> {
        if !self.storage.contains(uuid) {
            return Err(CatalogError::UnknownModel(uuid.to_string()));
        }
        Ok(self.storage.load(uuid)?)
    }

    /// Delete a model and cascade to all of its instances (the paper's
    /// `fmu_delete_model`).
    pub fn delete_model(&self, uuid: Uuid) -> Result<()> {
        if !self.storage.contains(uuid) {
            return Err(CatalogError::UnknownModel(uuid.to_string()));
        }
        for table in [
            "model",
            "modelvariable",
            "modelinstance",
            "modelinstancevalues",
        ] {
            self.db.query(
                &format!("DELETE FROM {table} WHERE modelid = $1"),
                params![uuid.to_string()],
            )?;
        }
        self.storage.delete(uuid)?;
        Ok(())
    }

    /// All model UUIDs currently registered.
    pub fn model_ids(&self) -> Result<Vec<Uuid>> {
        let qres = self
            .db
            .execute("SELECT modelid FROM model ORDER BY modelid")?;
        qres.rows
            .iter()
            .map(|r| {
                let s = r[0].as_str().map_err(CatalogError::Sql)?;
                s.parse()
                    .map_err(|_| CatalogError::UnknownModel(s.to_string()))
            })
            .collect()
    }

    // ---- instances -----------------------------------------------------------

    /// Create an instance of a model; generates an identifier when the
    /// caller does not supply one.
    pub fn create_instance(&self, uuid: Uuid, instance_id: Option<&str>) -> Result<String> {
        let fmu = self.model_fmu(uuid)?;
        let id = match instance_id {
            Some(id) => {
                if self.instance_exists(id)? {
                    return Err(CatalogError::InstanceExists(id.to_string()));
                }
                id.to_string()
            }
            None => {
                // pgFMU-generated identifier: <ModelName>Instance<n>.
                let count = self
                    .db
                    .query(
                        "SELECT count(*) FROM modelinstance WHERE modelid = $1",
                        params![uuid.to_string()],
                    )?
                    .rows[0][0]
                    .as_i64()
                    .map_err(CatalogError::Sql)?;
                let mut n = count + 1;
                loop {
                    let candidate = format!("{}Instance{n}", fmu.name());
                    if !self.instance_exists(&candidate)? {
                        break candidate;
                    }
                    n += 1;
                }
            }
        };
        self.db.query(
            "INSERT INTO modelinstance VALUES ($1, $2)",
            params![id.as_str(), uuid.to_string()],
        )?;
        // Seed per-instance values for parameters and states from the
        // model's declared start values.
        for v in &fmu.description.variables {
            if matches!(v.causality, Causality::Parameter | Causality::Local) {
                self.db.query(
                    "INSERT INTO modelinstancevalues VALUES ($1, $2, $3, $4)",
                    params![uuid.to_string(), id.as_str(), v.name.as_str(), v.start],
                )?;
            }
        }
        Ok(id)
    }

    /// Copy an instance (catalogue rows only — the FMU is shared), the
    /// paper's `fmu_copy`.
    pub fn copy_instance(&self, src: &str, dst: Option<&str>) -> Result<String> {
        let uuid = self.instance_model(src)?;
        let values = self.instance_values(src)?;
        let id = self.create_instance(uuid, dst)?;
        for (name, value) in values {
            self.set_value(&id, &name, value)?;
        }
        Ok(id)
    }

    /// Does an instance exist?
    pub fn instance_exists(&self, instance_id: &str) -> Result<bool> {
        let qres = self.db.query(
            "SELECT count(*) FROM modelinstance WHERE instanceid = $1",
            params![instance_id],
        )?;
        Ok(qres.rows[0][0].as_i64().map_err(CatalogError::Sql)? > 0)
    }

    /// The parent model UUID of an instance.
    pub fn instance_model(&self, instance_id: &str) -> Result<Uuid> {
        let qres = self.db.query(
            "SELECT modelid FROM modelinstance WHERE instanceid = $1",
            params![instance_id],
        )?;
        match qres.rows.first() {
            None => Err(CatalogError::UnknownInstance(instance_id.to_string())),
            Some(row) => {
                let s = row[0].as_str().map_err(CatalogError::Sql)?;
                s.parse()
                    .map_err(|_| CatalogError::UnknownModel(s.to_string()))
            }
        }
    }

    /// All instance identifiers, sorted.
    pub fn instance_ids(&self) -> Result<Vec<String>> {
        let qres = self
            .db
            .execute("SELECT instanceid FROM modelinstance ORDER BY instanceid")?;
        qres.rows
            .iter()
            .map(|r| r[0].as_str().map(str::to_string).map_err(CatalogError::Sql))
            .collect()
    }

    /// Delete one instance (the paper's `fmu_delete_instance`).
    pub fn delete_instance(&self, instance_id: &str) -> Result<()> {
        if !self.instance_exists(instance_id)? {
            return Err(CatalogError::UnknownInstance(instance_id.to_string()));
        }
        for table in ["modelinstance", "modelinstancevalues"] {
            self.db.query(
                &format!("DELETE FROM {table} WHERE instanceid = $1"),
                params![instance_id],
            )?;
        }
        Ok(())
    }

    // ---- values ---------------------------------------------------------------

    /// Current per-instance values for parameters and states.
    pub fn instance_values(&self, instance_id: &str) -> Result<Vec<(String, f64)>> {
        if !self.instance_exists(instance_id)? {
            return Err(CatalogError::UnknownInstance(instance_id.to_string()));
        }
        let qres = self.db.query(
            "SELECT varname, value FROM modelinstancevalues \
             WHERE instanceid = $1 ORDER BY varname",
            params![instance_id],
        )?;
        Ok(qres
            .rows
            .iter()
            .filter_map(|r| {
                let name = r[0].as_str().ok()?.to_string();
                value_to_opt(&r[1]).map(|v| (name, v))
            })
            .collect())
    }

    /// Set one per-instance value (the paper's `fmu_set_initial`).
    pub fn set_value(&self, instance_id: &str, var: &str, value: f64) -> Result<()> {
        let uuid = self.instance_model(instance_id)?;
        let fmu = self.model_fmu(uuid)?;
        let v = fmu
            .description
            .variable(var)
            .map_err(|_| CatalogError::UnknownVariable(var.to_string()))?;
        if !matches!(v.causality, Causality::Parameter | Causality::Local) {
            return Err(CatalogError::Fmi(FmiError::CausalityViolation {
                variable: var.to_string(),
                reason: "only parameters and states hold instance values".into(),
            }));
        }
        let n = self.db.query(
            "UPDATE modelinstancevalues SET value = $1 \
             WHERE instanceid = $2 AND varname = $3",
            params![value, instance_id, var],
        )?;
        debug_assert_eq!(n.rows[0][0], Value::Int(1));
        Ok(())
    }

    /// Read `(value, min, max)` for one instance variable (the paper's
    /// `fmu_get`).
    pub fn get_value(
        &self,
        instance_id: &str,
        var: &str,
    ) -> Result<(Option<f64>, Option<f64>, Option<f64>)> {
        let rows = self.variables(instance_id)?;
        rows.iter()
            .find(|r| r.var_name == var)
            .map(|r| (r.value, r.min_value, r.max_value))
            .ok_or_else(|| CatalogError::UnknownVariable(var.to_string()))
    }

    /// Update a per-model bound (the paper's `fmu_set_minimum` /
    /// `fmu_set_maximum`). Bounds are physical constraints of the *model*,
    /// so they live in `ModelVariable` and affect every instance.
    pub fn set_bound(&self, instance_id: &str, var: &str, bound: Bound, value: f64) -> Result<()> {
        let uuid = self.instance_model(instance_id)?;
        let sql = match bound {
            Bound::Min => {
                "UPDATE modelvariable SET minvalue = $1 WHERE modelid = $2 AND varname = $3"
            }
            Bound::Max => {
                "UPDATE modelvariable SET maxvalue = $1 WHERE modelid = $2 AND varname = $3"
            }
        };
        let n = self.db.query(sql, params![value, uuid.to_string(), var])?;
        if n.rows[0][0] == Value::Int(0) {
            return Err(CatalogError::UnknownVariable(var.to_string()));
        }
        Ok(())
    }

    /// Reset an instance's values to the model's declared start values
    /// (the paper's `fmu_reset`).
    pub fn reset_instance(&self, instance_id: &str) -> Result<()> {
        let uuid = self.instance_model(instance_id)?;
        let fmu = self.model_fmu(uuid)?;
        for v in &fmu.description.variables {
            if matches!(v.causality, Causality::Parameter | Causality::Local) {
                if let Some(start) = v.start {
                    self.set_value(instance_id, &v.name, start)?;
                }
            }
        }
        Ok(())
    }

    /// The `fmu_variables` rows: meta-data joined with instance values,
    /// in the model's declaration order. (Scan order would drift: an
    /// UPDATE appends its successor version, so an updated row moves to
    /// the end of an unordered scan.)
    pub fn variables(&self, instance_id: &str) -> Result<Vec<InstanceVariableRow>> {
        let uuid = self.instance_model(instance_id)?;
        let fmu = self.model_fmu(uuid)?;
        let qres = self.db.query(
            "SELECT varname, vartype, minvalue, maxvalue FROM modelvariable WHERE modelid = $1",
            params![uuid.to_string()],
        )?;
        let meta: HashMap<&str, &[Value]> = qres
            .rows
            .iter()
            .filter_map(|r| Some((r[0].as_str().ok()?, r.as_slice())))
            .collect();
        let values: HashMap<String, f64> = self.instance_values(instance_id)?.into_iter().collect();
        fmu.description
            .variables
            .iter()
            .filter_map(|v| meta.get(v.name.as_str()).map(|r| (v, r)))
            .map(|(v, r)| {
                Ok(InstanceVariableRow {
                    instance_id: instance_id.to_string(),
                    var_name: v.name.clone(),
                    var_type: r[1].as_str().map_err(CatalogError::Sql)?.to_string(),
                    value: values.get(&v.name).copied(),
                    min_value: value_to_opt(&r[2]),
                    max_value: value_to_opt(&r[3]),
                })
            })
            .collect()
    }

    /// Write estimated parameter values back into the catalogue
    /// (Algorithm 2 line 8 / Algorithm 3 line 20).
    pub fn update_values(&self, instance_id: &str, updates: &[(String, f64)]) -> Result<()> {
        for (name, value) in updates {
            self.set_value(instance_id, name, *value)?;
        }
        Ok(())
    }

    // ---- realization ------------------------------------------------------------

    /// Materialize an instance: the shared `Arc<Fmu>` plus an
    /// [`FmuInstance`] carrying the catalogue's current values.
    pub fn instantiate(&self, instance_id: &str) -> Result<(Arc<Fmu>, FmuInstance)> {
        let uuid = self.instance_model(instance_id)?;
        let fmu = self.model_fmu(uuid)?;
        let mut inst = fmu.instantiate();
        for (name, value) in self.instance_values(instance_id)? {
            inst.set(&name, value)?;
        }
        Ok((fmu, inst))
    }

    /// A clone of the model whose variable meta-data (start/min/max) is
    /// patched with the catalogue's current state — what estimation uses
    /// so `fmu_set_minimum`/`fmu_set_maximum` shape the search space.
    pub fn fmu_for_estimation(&self, instance_id: &str) -> Result<Arc<Fmu>> {
        let uuid = self.instance_model(instance_id)?;
        let fmu = self.model_fmu(uuid)?;
        let qres = self.db.query(
            "SELECT varname, minvalue, maxvalue FROM modelvariable WHERE modelid = $1",
            params![uuid.to_string()],
        )?;
        let mut description = fmu.description.clone();
        for r in &qres.rows {
            let name = r[0].as_str().map_err(CatalogError::Sql)?;
            if let Ok(v) = description.variable_mut(name) {
                v.min = value_to_opt(&r[1]);
                v.max = value_to_opt(&r[2]);
            }
        }
        let patched = Fmu::new(description, fmu.system.clone())?;
        Ok(Arc::new(patched))
    }

    /// Tunable parameter names of an instance's model — the default
    /// estimation target set of `fmu_parest`.
    pub fn tunable_parameters(&self, instance_id: &str) -> Result<Vec<String>> {
        let uuid = self.instance_model(instance_id)?;
        let fmu = self.model_fmu(uuid)?;
        Ok(fmu
            .description
            .variables
            .iter()
            .filter(|v| {
                v.causality == Causality::Parameter && v.variability == Variability::Tunable
            })
            .map(|v| v.name.clone())
            .collect())
    }
}

/// Which bound `set_bound` updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// The `minValue` column.
    Min,
    /// The `maxValue` column.
    Max,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgfmu_fmi::builtin;

    fn catalog() -> ModelCatalog {
        let db = Arc::new(Database::new());
        let storage = Arc::new(FmuStorage::open_temp().unwrap());
        ModelCatalog::new(db, storage).unwrap()
    }

    #[test]
    fn register_and_reuse_model() {
        let cat = catalog();
        let a = cat.register_model(builtin::hp1()).unwrap();
        let b = cat.register_model(builtin::hp1()).unwrap();
        assert_eq!(a, b, "same model must be reused, not re-registered");
        let ids = cat.model_ids().unwrap();
        assert_eq!(ids, vec![a]);
        // Variables landed in the catalogue.
        let q = cat
            .db()
            .execute(&format!(
                "SELECT count(*) FROM modelvariable WHERE modelid = '{a}'"
            ))
            .unwrap();
        assert_eq!(q.rows[0][0], Value::Int(8));
    }

    #[test]
    fn create_copy_and_share_fmu() {
        let cat = catalog();
        let uuid = cat.register_model(builtin::hp1()).unwrap();
        let i1 = cat.create_instance(uuid, Some("HP1Instance1")).unwrap();
        let i2 = cat.copy_instance(&i1, Some("HP1Instance2")).unwrap();
        assert_eq!(i2, "HP1Instance2");
        let (f1, _) = cat.instantiate(&i1).unwrap();
        let (f2, _) = cat.instantiate(&i2).unwrap();
        assert!(Arc::ptr_eq(&f1, &f2), "instances must share one FMU");
        assert_eq!(cat.storage().disk_load_count(), 0);
    }

    #[test]
    fn generated_instance_ids_are_unique() {
        let cat = catalog();
        let uuid = cat.register_model(builtin::hp0()).unwrap();
        let a = cat.create_instance(uuid, None).unwrap();
        let b = cat.create_instance(uuid, None).unwrap();
        assert_ne!(a, b);
        assert!(a.starts_with("HP0Instance"));
    }

    #[test]
    fn duplicate_instance_id_rejected() {
        let cat = catalog();
        let uuid = cat.register_model(builtin::hp0()).unwrap();
        cat.create_instance(uuid, Some("x")).unwrap();
        assert!(matches!(
            cat.create_instance(uuid, Some("x")),
            Err(CatalogError::InstanceExists(_))
        ));
    }

    #[test]
    fn set_get_reset_values() {
        let cat = catalog();
        let uuid = cat.register_model(builtin::hp1()).unwrap();
        let id = cat.create_instance(uuid, Some("i")).unwrap();
        cat.set_value(&id, "Cp", 2.5).unwrap();
        let (v, lo, hi) = cat.get_value(&id, "Cp").unwrap();
        assert_eq!(v, Some(2.5));
        assert_eq!(lo, Some(0.1));
        assert_eq!(hi, Some(10.0));
        cat.reset_instance(&id).unwrap();
        let (v, _, _) = cat.get_value(&id, "Cp").unwrap();
        assert_eq!(v, Some(1.5));
    }

    #[test]
    fn bounds_update_affects_estimation_fmu() {
        let cat = catalog();
        let uuid = cat.register_model(builtin::hp1()).unwrap();
        let id = cat.create_instance(uuid, Some("i")).unwrap();
        cat.set_bound(&id, "Cp", Bound::Min, 0.5).unwrap();
        cat.set_bound(&id, "Cp", Bound::Max, 3.0).unwrap();
        let patched = cat.fmu_for_estimation(&id).unwrap();
        let v = patched.description.variable("Cp").unwrap();
        assert_eq!(v.min, Some(0.5));
        assert_eq!(v.max, Some(3.0));
        // The shared FMU remains untouched.
        let shared = cat.model_fmu(uuid).unwrap();
        assert_eq!(shared.description.variable("Cp").unwrap().min, Some(0.1));
    }

    #[test]
    fn variables_rows_match_paper_shape() {
        let cat = catalog();
        let uuid = cat.register_model(builtin::hp1()).unwrap();
        let id = cat.create_instance(uuid, Some("HP1Instance1")).unwrap();
        let rows = cat.variables(&id).unwrap();
        assert_eq!(rows.len(), 8);
        let params: Vec<_> = rows.iter().filter(|r| r.var_type == "parameter").collect();
        assert_eq!(params.len(), 5);
        let u = rows.iter().find(|r| r.var_name == "u").unwrap();
        assert_eq!(u.var_type, "input");
        assert_eq!(u.value, None, "inputs have no instance value");
    }

    #[test]
    fn instantiate_applies_instance_values() {
        let cat = catalog();
        let uuid = cat.register_model(builtin::hp1()).unwrap();
        let id = cat.create_instance(uuid, Some("i")).unwrap();
        cat.set_value(&id, "Cp", 2.0).unwrap();
        cat.set_value(&id, "x", 18.5).unwrap();
        let (_, inst) = cat.instantiate(&id).unwrap();
        assert_eq!(inst.get("Cp").unwrap(), 2.0);
        assert_eq!(inst.get("x").unwrap(), 18.5);
    }

    #[test]
    fn delete_instance_and_model_cascade() {
        let cat = catalog();
        let uuid = cat.register_model(builtin::hp1()).unwrap();
        let i1 = cat.create_instance(uuid, Some("a")).unwrap();
        let _i2 = cat.create_instance(uuid, Some("b")).unwrap();
        cat.delete_instance(&i1).unwrap();
        assert!(!cat.instance_exists("a").unwrap());
        assert!(cat.instance_exists("b").unwrap());
        assert!(matches!(
            cat.delete_instance("a"),
            Err(CatalogError::UnknownInstance(_))
        ));
        cat.delete_model(uuid).unwrap();
        assert!(!cat.instance_exists("b").unwrap());
        assert!(matches!(
            cat.model_fmu(uuid),
            Err(CatalogError::UnknownModel(_))
        ));
        let q = cat
            .db()
            .execute("SELECT count(*) FROM modelinstancevalues")
            .unwrap();
        assert_eq!(q.rows[0][0], Value::Int(0));
    }

    #[test]
    fn error_paths() {
        let cat = catalog();
        assert!(matches!(
            cat.instance_model("ghost"),
            Err(CatalogError::UnknownInstance(_))
        ));
        let uuid = cat.register_model(builtin::hp1()).unwrap();
        let id = cat.create_instance(uuid, Some("i")).unwrap();
        assert!(matches!(
            cat.set_value(&id, "nope", 1.0),
            Err(CatalogError::UnknownVariable(_))
        ));
        // Assigning to an input is a causality violation.
        assert!(matches!(
            cat.set_value(&id, "u", 1.0),
            Err(CatalogError::Fmi(FmiError::CausalityViolation { .. }))
        ));
        assert!(matches!(
            cat.set_bound(&id, "nope", Bound::Min, 0.0),
            Err(CatalogError::UnknownVariable(_))
        ));
    }

    #[test]
    fn tunable_parameters_default_set() {
        let cat = catalog();
        let uuid = cat.register_model(builtin::classroom()).unwrap();
        let id = cat.create_instance(uuid, Some("c")).unwrap();
        assert_eq!(
            cat.tunable_parameters(&id).unwrap(),
            vec!["shgc", "tmass", "RExt", "occheff"]
        );
    }

    #[test]
    fn quoting_handles_awkward_identifiers() {
        let cat = catalog();
        let uuid = cat.register_model(builtin::hp0()).unwrap();
        let id = cat.create_instance(uuid, Some("it's-instance")).unwrap();
        assert!(cat.instance_exists(&id).unwrap());
        assert_eq!(cat.instance_model(&id).unwrap(), uuid);
        cat.delete_instance(&id).unwrap();
    }
}
