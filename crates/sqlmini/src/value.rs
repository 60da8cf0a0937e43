//! SQL values, data types and the `variant` type.
//!
//! The pgFMU model catalogue stores variable values in columns of the
//! PostgreSQL `variant` extension type — "a specialized data type that
//! allows storing any data type in a column, while keeping track of the
//! original data type" (paper §5). Here [`DataType::Variant`] columns accept
//! any [`Value`]; since `Value` is a tagged union the original type always
//! travels with the value.
//!
//! Timestamps are minute-precision civil timestamps stored as seconds since
//! the Unix epoch, with conversion helpers implementing the standard
//! days-from-civil algorithm. Intervals are second counts.

use std::fmt;

use crate::error::{Result, SqlError};

/// Declared column types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit integer.
    Int,
    /// 64-bit float (`double precision`).
    Float,
    /// UTF-8 text.
    Text,
    /// Civil timestamp (seconds since Unix epoch).
    Timestamp,
    /// Time interval (seconds).
    Interval,
    /// Any value; the stored value keeps its original type (pgxn `variant`).
    Variant,
}

impl DataType {
    /// Parse a SQL type name (PostgreSQL spellings accepted).
    pub fn parse(name: &str) -> Result<Self> {
        match name.to_ascii_lowercase().as_str() {
            "bool" | "boolean" => Ok(DataType::Bool),
            "int" | "integer" | "bigint" | "int4" | "int8" | "smallint" => Ok(DataType::Int),
            "float" | "float8" | "float4" | "real" | "double" | "numeric" | "decimal" => {
                Ok(DataType::Float)
            }
            "text" | "varchar" | "char" | "string" => Ok(DataType::Text),
            "timestamp" | "timestamptz" | "datetime" => Ok(DataType::Timestamp),
            "interval" => Ok(DataType::Interval),
            "variant" => Ok(DataType::Variant),
            other => Err(SqlError::Type(format!("unknown type name '{other}'"))),
        }
    }

    /// Canonical lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Bool => "boolean",
            DataType::Int => "integer",
            DataType::Float => "float",
            DataType::Text => "text",
            DataType::Timestamp => "timestamp",
            DataType::Interval => "interval",
            DataType::Variant => "variant",
        }
    }
}

/// A dynamically typed SQL value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Text.
    Text(String),
    /// Timestamp: seconds since the Unix epoch.
    Timestamp(i64),
    /// Interval: seconds.
    Interval(i64),
}

impl Value {
    /// The value's runtime type (NULL has no type; returns `Variant`).
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Variant,
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Text(_) => DataType::Text,
            Value::Timestamp(_) => DataType::Timestamp,
            Value::Interval(_) => DataType::Interval,
        }
    }

    /// True when NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (ints and floats; booleans as 0/1). Timestamps are
    /// *not* numeric — use explicit casts.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            Value::Bool(b) => Ok(f64::from(*b)),
            other => Err(SqlError::Type(format!("value {other} is not numeric"))),
        }
    }

    /// Integer view (floats must be integral).
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Float(f) if f.fract() == 0.0 => float_to_bigint(*f),
            other => Err(SqlError::Type(format!("value {other} is not an integer"))),
        }
    }

    /// Text view.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Text(s) => Ok(s),
            other => Err(SqlError::Type(format!("value {other} is not text"))),
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(SqlError::Type(format!("value {other} is not boolean"))),
        }
    }

    /// Coerce to a declared column type (implicit conversion on INSERT).
    pub fn coerce_to(&self, ty: DataType) -> Result<Value> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        match (ty, self) {
            (DataType::Variant, v) => Ok(v.clone()),
            (t, v) if v.data_type() == t => Ok(v.clone()),
            (DataType::Float, Value::Int(i)) => Ok(Value::Float(*i as f64)),
            (DataType::Int, Value::Float(f)) if f.fract() == 0.0 => {
                Ok(Value::Int(float_to_bigint(*f)?))
            }
            (DataType::Bool, Value::Int(i)) if *i == 0 || *i == 1 => Ok(Value::Bool(*i == 1)),
            (DataType::Timestamp, Value::Text(s)) => Ok(Value::Timestamp(parse_timestamp(s)?)),
            (DataType::Interval, Value::Text(s)) => Ok(Value::Interval(parse_interval(s)?)),
            (DataType::Text, v) => Ok(Value::Text(v.to_string())),
            (t, v) => Err(SqlError::Type(format!(
                "cannot coerce {} to {}",
                v.data_type().name(),
                t.name()
            ))),
        }
    }

    /// Explicit `::type` cast — a superset of implicit coercion.
    pub fn cast_to(&self, ty: DataType) -> Result<Value> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        match (ty, self) {
            (DataType::Int, Value::Float(f)) => Ok(Value::Int(float_to_bigint(f.round())?)),
            (DataType::Int, Value::Text(s)) => s
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| SqlError::Type(format!("cannot cast '{s}' to integer"))),
            (DataType::Float, Value::Text(s)) => s
                .trim()
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| SqlError::Type(format!("cannot cast '{s}' to float"))),
            (DataType::Bool, Value::Text(s)) => match s.trim().to_ascii_lowercase().as_str() {
                "t" | "true" | "yes" | "on" | "1" => Ok(Value::Bool(true)),
                "f" | "false" | "no" | "off" | "0" => Ok(Value::Bool(false)),
                _ => Err(SqlError::Type(format!("cannot cast '{s}' to boolean"))),
            },
            _ => self.coerce_to(ty),
        }
    }
}

/// `2^63`, exact in `f64`: the floats a bigint holds are `[-2^63, 2^63)`.
pub(crate) const BIGINT_BOUND: f64 = 9_223_372_036_854_775_808.0;

/// A float (already rounded or integral) as a bigint, or PostgreSQL's
/// `bigint out of range` for NaN, the infinities and anything outside
/// `[-2^63, 2^63)` — never a saturated value.
pub(crate) fn float_to_bigint(f: f64) -> Result<i64> {
    if (-BIGINT_BOUND..BIGINT_BOUND).contains(&f) {
        Ok(f as i64)
    } else {
        Err(SqlError::Execution("bigint out of range".into()))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

/// `None` becomes SQL NULL — the natural encoding for optional binds.
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { "t" } else { "f" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Text(s) => write!(f, "{s}"),
            Value::Timestamp(secs) => write!(f, "{}", format_timestamp(*secs)),
            Value::Interval(secs) => write!(f, "{secs} seconds"),
        }
    }
}

// ---------------------------------------------------------------------------
// Civil timestamp conversion (Howard Hinnant's days-from-civil algorithm)
// ---------------------------------------------------------------------------

/// Days since 1970-01-01 for a civil date; `None` when the count
/// overflows `i64`.
pub fn days_from_civil(y: i64, m: u32, d: u32) -> Option<i64> {
    let y = if m <= 2 { y.checked_sub(1)? } else { y };
    let era = if y >= 0 { y } else { y.checked_sub(399)? } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m as i64 + 9) % 12; // [0, 11]
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era.checked_mul(146_097)?.checked_add(doe - 719_468)
}

/// Civil date for days since 1970-01-01.
pub fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Build an epoch-seconds timestamp from civil components; `None` when
/// it overflows `i64`.
pub fn timestamp_from_parts(y: i64, mo: u32, d: u32, h: u32, mi: u32, s: u32) -> Option<i64> {
    days_from_civil(y, mo, d)?
        .checked_mul(86_400)?
        .checked_add((h as i64) * 3600 + (mi as i64) * 60 + s as i64)
}

/// Parse `'YYYY-MM-DD[ HH:MM[:SS]]'` (also accepting `/` as date separator,
/// as in the paper's Table 6).
pub fn parse_timestamp(s: &str) -> Result<i64> {
    let s = s.trim();
    let bad = || SqlError::Type(format!("invalid timestamp literal '{s}'"));
    let (date_part, time_part) = match s.split_once([' ', 'T']) {
        Some((d, t)) => (d, Some(t)),
        None => (s, None),
    };
    let sep = if date_part.contains('/') { '/' } else { '-' };
    let mut dp = date_part.split(sep);
    let y: i64 = dp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let mo: u32 = dp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let d: u32 = dp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    if dp.next().is_some() || !(1..=12).contains(&mo) || !(1..=31).contains(&d) {
        return Err(bad());
    }
    let (mut h, mut mi, mut sec) = (0u32, 0u32, 0u32);
    if let Some(t) = time_part {
        let mut tp = t.split(':');
        h = tp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        mi = tp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        if let Some(sv) = tp.next() {
            sec = sv
                .split('.')
                .next()
                .unwrap_or("0")
                .parse()
                .map_err(|_| bad())?;
        }
        if tp.next().is_some() || h > 23 || mi > 59 || sec > 59 {
            return Err(bad());
        }
    }
    timestamp_from_parts(y, mo, d, h, mi, sec)
        .ok_or_else(|| SqlError::Execution(format!("timestamp out of range: \"{s}\"")))
}

/// Format an epoch-seconds timestamp as `YYYY-MM-DD HH:MM:SS`.
pub fn format_timestamp(secs: i64) -> String {
    let days = secs.div_euclid(86_400);
    let rem = secs.rem_euclid(86_400);
    let (y, m, d) = civil_from_days(days);
    let (h, mi, s) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    format!("{y:04}-{m:02}-{d:02} {h:02}:{mi:02}:{s:02}")
}

/// Parse an interval literal: `'N hour[s]' | 'N minute[s]' | 'N second[s]'
/// | 'N day[s]'` or combinations like `'1 day 2 hours'`.
pub fn parse_interval(s: &str) -> Result<i64> {
    let bad = || SqlError::Type(format!("invalid interval literal '{s}'"));
    let mut total = 0i64;
    let mut parts = s.split_whitespace().peekable();
    let mut any = false;
    while let Some(num) = parts.next() {
        let n: i64 = num.parse().map_err(|_| bad())?;
        let unit = parts.next().ok_or_else(bad)?;
        let mult = match unit.trim_end_matches('s') {
            "second" | "sec" => 1,
            "minute" | "min" => 60,
            "hour" => 3600,
            "day" => 86_400,
            "week" => 7 * 86_400,
            _ => return Err(bad()),
        };
        total = n
            .checked_mul(mult)
            .and_then(|v| total.checked_add(v))
            .ok_or_else(|| {
                SqlError::Execution(format!("interval field value out of range: \"{s}\""))
            })?;
        any = true;
    }
    if !any {
        return Err(bad());
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_type_parsing() {
        assert_eq!(DataType::parse("INTEGER").unwrap(), DataType::Int);
        assert_eq!(DataType::parse("double").unwrap(), DataType::Float);
        assert_eq!(DataType::parse("TIMESTAMP").unwrap(), DataType::Timestamp);
        assert_eq!(DataType::parse("variant").unwrap(), DataType::Variant);
        assert!(DataType::parse("blob").is_err());
    }

    #[test]
    fn civil_date_round_trip() {
        // Spot checks.
        assert_eq!(days_from_civil(1970, 1, 1), Some(0));
        assert_eq!(days_from_civil(2015, 2, 1), Some(16467));
        for z in [-1000, 0, 1, 16467, 20000, 30000] {
            let (y, m, d) = civil_from_days(z);
            assert_eq!(days_from_civil(y, m, d), Some(z));
        }
    }

    #[test]
    fn timestamp_parse_and_format() {
        let t = parse_timestamp("2015-02-01 00:00").unwrap();
        assert_eq!(format_timestamp(t), "2015-02-01 00:00:00");
        // Paper Table 6 uses slashes.
        let t2 = parse_timestamp("2015/02/01 01:00").unwrap();
        assert_eq!(t2 - t, 3600);
        let t3 = parse_timestamp("2018/04/04 08:30").unwrap();
        assert_eq!(format_timestamp(t3), "2018-04-04 08:30:00");
        // Date-only form.
        assert_eq!(
            format_timestamp(parse_timestamp("2015-01-02").unwrap()),
            "2015-01-02 00:00:00"
        );
        assert!(parse_timestamp("not a date").is_err());
        assert!(parse_timestamp("2015-13-01").is_err());
        assert!(parse_timestamp("2015-02-01 25:00").is_err());
    }

    #[test]
    fn interval_parsing() {
        assert_eq!(parse_interval("1 hour").unwrap(), 3600);
        assert_eq!(parse_interval("30 minutes").unwrap(), 1800);
        assert_eq!(parse_interval("2 days").unwrap(), 172_800);
        assert_eq!(parse_interval("1 day 2 hours").unwrap(), 93_600);
        assert!(parse_interval("banana").is_err());
        assert!(parse_interval("5").is_err());
    }

    #[test]
    fn coercions() {
        assert_eq!(
            Value::Int(3).coerce_to(DataType::Float).unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(
            Value::Float(4.0).coerce_to(DataType::Int).unwrap(),
            Value::Int(4)
        );
        assert!(Value::Float(4.5).coerce_to(DataType::Int).is_err());
        assert_eq!(
            Value::Text("2015-02-01 00:00".into())
                .coerce_to(DataType::Timestamp)
                .unwrap(),
            Value::Timestamp(parse_timestamp("2015-02-01 00:00").unwrap())
        );
        // Variant accepts anything and keeps the original type.
        let v = Value::Bool(true).coerce_to(DataType::Variant).unwrap();
        assert_eq!(v.data_type(), DataType::Bool);
        assert_eq!(Value::Null.coerce_to(DataType::Int).unwrap(), Value::Null);
    }

    #[test]
    fn casts() {
        assert_eq!(
            Value::Float(4.6).cast_to(DataType::Int).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            Value::Text("42".into()).cast_to(DataType::Int).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            Value::Text("2.5".into()).cast_to(DataType::Float).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(
            Value::Int(7).cast_to(DataType::Text).unwrap(),
            Value::Text("7".into())
        );
        assert_eq!(
            Value::Text("true".into()).cast_to(DataType::Bool).unwrap(),
            Value::Bool(true)
        );
        assert!(Value::Text("maybe".into()).cast_to(DataType::Bool).is_err());
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Int(2).as_f64().unwrap(), 2.0);
        assert_eq!(Value::Bool(true).as_f64().unwrap(), 1.0);
        assert!(Value::Text("x".into()).as_f64().is_err());
        assert_eq!(Value::Float(5.0).as_i64().unwrap(), 5);
        assert!(Value::Float(5.5).as_i64().is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bool(true).to_string(), "t");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        assert_eq!(
            Value::Timestamp(parse_timestamp("2015-02-28 08:00").unwrap()).to_string(),
            "2015-02-28 08:00:00"
        );
    }
}
