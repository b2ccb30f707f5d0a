//! Typed scenario errors: every way a scenario can fail to describe a
//! runnable experiment, with a message good enough to fix the file.

use llmss_core::ConfigError;
use llmss_sched::WorkloadError;

/// Why a scenario could not be parsed, validated, built, or run.
///
/// The CLI exits with these messages directly; bad flag combinations and
/// bad scenario files fail here, at build time, instead of panicking deep
/// inside a simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The named model is not in the catalog.
    UnknownModel {
        /// The requested model name.
        name: String,
    },
    /// A field's value does not parse or names an unknown variant.
    UnknownValue {
        /// The scenario field.
        field: String,
        /// The offending value.
        value: String,
        /// What would have been accepted.
        expected: String,
    },
    /// A field's value parsed but is out of its valid range.
    InvalidValue {
        /// The scenario field.
        field: String,
        /// What is wrong with it.
        message: String,
    },
    /// Two valid fields that cannot be combined.
    Conflict {
        /// The cross-field constraint that failed.
        message: String,
    },
    /// A key that is not part of the scenario schema (a typo in a file,
    /// an unknown `--set`, or a stale sweep axis).
    UnknownKey {
        /// The unrecognized key.
        key: String,
    },
    /// The underlying simulator configuration could not be realized
    /// (invalid parallelism, model does not fit in memory, ...).
    Config(ConfigError),
    /// The workload could not be materialized.
    Workload(WorkloadError),
    /// A scenario/sweep file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The filesystem error.
        message: String,
    },
    /// A scenario/sweep document is not valid TOML/JSON or does not
    /// match the schema.
    Parse {
        /// The codec's description of the failure.
        message: String,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::UnknownModel { name } => write!(f, "unknown model '{name}'"),
            ScenarioError::UnknownValue { field, value, expected } => {
                write!(f, "{field}: unknown value '{value}' (expected {expected})")
            }
            ScenarioError::InvalidValue { field, message } => write!(f, "{field}: {message}"),
            ScenarioError::Conflict { message } => write!(f, "conflicting scenario: {message}"),
            ScenarioError::UnknownKey { key } => {
                write!(f, "unknown scenario key '{key}' (see `Scenario::KEYS` for the schema)")
            }
            ScenarioError::Config(e) => write!(f, "{e}"),
            ScenarioError::Workload(e) => write!(f, "{e}"),
            ScenarioError::Io { path, message } => write!(f, "{path}: {message}"),
            ScenarioError::Parse { message } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<ConfigError> for ScenarioError {
    fn from(e: ConfigError) -> Self {
        match e.field() {
            // One scenario key carries each such field under its name.
            Some(field) => {
                ScenarioError::InvalidValue { field: field.into(), message: e.message().into() }
            }
            None => ScenarioError::Config(e),
        }
    }
}

impl From<WorkloadError> for ScenarioError {
    fn from(e: WorkloadError) -> Self {
        ScenarioError::Workload(e)
    }
}
