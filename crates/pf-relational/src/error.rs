//! Error type for the relational engine.

use std::fmt;

use crate::table::ColId;

/// Result alias for relational operations.
pub type RelResult<T> = Result<T, RelError>;

/// An error raised by a physical operator (unknown column, arity mismatch,
/// type error in an arithmetic operation, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelError {
    /// Description of the failure.
    pub message: String,
}

impl RelError {
    /// Create a new error.
    pub fn new(message: impl Into<String>) -> Self {
        RelError {
            message: message.into(),
        }
    }

    /// The canonical "unknown column" error, listing the schema the lookup
    /// searched.  Every column lookup — [`crate::Table::column`] as well as
    /// the fused pipeline kernels, which resolve columns against a virtual
    /// schema that never materializes as a `Table` — reports misses through
    /// this constructor, so the message (including the available-column
    /// listing) is identical on the fused and unfused execution paths.
    pub fn unknown_column(id: ColId, available: impl Iterator<Item = ColId>) -> Self {
        let ids: Vec<String> = available.map(|c| format!("`{c}`")).collect();
        let schema = if ids.is_empty() {
            "no columns".to_string()
        } else {
            ids.join(", ")
        };
        RelError::new(format!("unknown column `{id}` (available: {schema})"))
    }
}

impl fmt::Display for RelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "relational engine error: {}", self.message)
    }
}

impl std::error::Error for RelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_message() {
        let err = RelError::new("unknown column `item`");
        assert!(err.to_string().contains("unknown column `item`"));
    }
}
