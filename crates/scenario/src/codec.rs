//! The one scenario codec: every value a scenario file, a `[[...]]`
//! entry, or a sweep axis carries is read through the same string form
//! `--set` takes.
//!
//! A file scalar becomes its text ([`scalar_text`]: `null` reads as
//! `"none"`), and [`read_table`] hands that text to the table's
//! string-keyed [`Table::set`] — the surface `Scenario::set` routes
//! `--set` keys into — so the file schema and the override schema cannot
//! drift. Only values that have no `--set` spelling (lists, nested
//! tables, and the top-level `seed`) are read per type, through
//! [`Table::read`].

use serde::Value;

use crate::ScenarioError;

/// A scenario table (or the scenario itself) whose scalar keys read
/// through `set`.
pub(crate) trait Table: Sized {
    /// The table's dotted path in error fields (`""` at top level).
    const PATH: &'static str;

    /// Keys an entry must carry (checked after every key is read).
    const REQUIRED: &'static [&'static str] = &[];

    /// Sets one key from its `--set` text.
    fn set(&mut self, key: &str, value: &str) -> Result<(), ScenarioError>;

    /// Reads a key whose value has no `--set` text (a list or a nested
    /// table), or which a file reads differently; `None` hands the value
    /// to [`set`](Self::set) through its text.
    fn read(&mut self, _key: &str, _value: &Value) -> Option<Result<(), ScenarioError>> {
        None
    }

    /// Reads a file table over this type's defaults.
    fn from_value(value: &Value) -> Result<Self, ScenarioError>
    where
        Self: Default,
    {
        let mut table = Self::default();
        read_table(&mut table, value)?;
        Ok(table)
    }
}

/// Reads a file table into `table`, key by key in file order.
///
/// # Errors
///
/// [`ScenarioError::Parse`] when `value` is not a table, and whatever
/// [`Table::set`]/[`Table::read`] return for its keys.
pub(crate) fn read_table<T: Table>(table: &mut T, value: &Value) -> Result<(), ScenarioError> {
    let Value::Object(fields) = value else {
        let name = if T::PATH.is_empty() { "scenario" } else { T::PATH };
        return Err(ScenarioError::Parse {
            message: format!("{name}: expected a table, got {value:?}"),
        });
    };
    for (key, v) in fields {
        if let Some(read) = table.read(key, v) {
            read?;
            continue;
        }
        let text = scalar_text(v).ok_or_else(|| ScenarioError::UnknownValue {
            field: path(T::PATH, key),
            value: format!("{v:?}"),
            expected: "a scalar".into(),
        })?;
        table.set(key, &text)?;
    }
    match T::REQUIRED.iter().find(|key| value.get(key).is_none()) {
        Some(key) => Err(ScenarioError::InvalidValue {
            field: T::PATH.into(),
            message: format!("every [[{}]] needs {key}", T::PATH),
        }),
        None => Ok(()),
    }
}

/// Reads an array of `[[...]]` entries, each from its default.
pub(crate) fn read_entries<T: Table + Default>(value: &Value) -> Result<Vec<T>, ScenarioError> {
    let Value::Array(items) = value else {
        return Err(ScenarioError::Parse {
            message: format!("{}: expected an array, got {value:?}", T::PATH),
        });
    };
    items.iter().map(T::from_value).collect()
}

/// The `--set` text of a file scalar (`null` reads as `"none"`); `None`
/// for arrays and tables.
pub(crate) fn scalar_text(value: &Value) -> Option<String> {
    Some(match value {
        Value::Null => "none".into(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        // `{:?}` keeps `.0` on integral floats, so an integer key rejects
        // `8.0` in a file exactly as `--set` does.
        Value::Float(f) => format!("{f:?}"),
        Value::Str(s) => s.clone(),
        Value::Array(_) | Value::Object(_) => return None,
    })
}

/// Parses one `--set` value of `table.key`, naming that field on failure.
pub(crate) fn parse<T: std::str::FromStr>(
    table: &str,
    key: &str,
    value: &str,
) -> Result<T, ScenarioError>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| ScenarioError::UnknownValue {
        field: path(table, key),
        value: value.into(),
        expected: format!("{e}"),
    })
}

/// [`parse`] for an optional field: `"none"` clears it.
pub(crate) fn parse_opt<T: std::str::FromStr>(
    table: &str,
    key: &str,
    value: &str,
) -> Result<Option<T>, ScenarioError>
where
    T::Err: std::fmt::Display,
{
    if value == "none" {
        Ok(None)
    } else {
        parse(table, key, value).map(Some)
    }
}

/// `table.key`, or `key` at top level.
pub(crate) fn path(table: &str, key: &str) -> String {
    if table.is_empty() {
        key.into()
    } else {
        format!("{table}.{key}")
    }
}
