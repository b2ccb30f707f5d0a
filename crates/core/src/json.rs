//! Helpers for hand-assembled JSON [`Value`] trees.
//!
//! The vendored `serde_json` renders and parses through typed
//! `Serialize`/`Deserialize` impls; reports instead build [`Value`]
//! trees directly (their shapes are data-driven — maps of replica
//! sections, optional blocks) and render them with
//! `serde_json::value_to_string_pretty`. [`obj`] keeps construction
//! sites readable and [`parse`] reads a tree back.

use serde::Value;

/// Builds an object value from `(key, value)` pairs, preserving order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Parses JSON text into a value tree.
///
/// # Errors
///
/// Returns the parser's message on malformed input.
pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::parse_value(text).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_tree() {
        let v = obj(vec![
            ("a", Value::Int(1)),
            ("b", Value::Array(vec![Value::Float(0.5), Value::Str("x".into())])),
            ("c", Value::Null),
        ]);
        let text = serde_json::value_to_string_pretty(&v);
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{nope").is_err());
    }
}
