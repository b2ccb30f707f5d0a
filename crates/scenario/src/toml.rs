//! A small TOML codec over the workspace's serde value tree.
//!
//! Scenario files are TOML; the build environment vendors no TOML crate,
//! so this module implements the subset the scenario schema uses —
//! tables (`[workload]`, `[kv_bucket]`, dotted paths), arrays of tables
//! (`[[fleet.replica]]`), bare/dotted keys, basic strings, integers,
//! floats, booleans, single- or multi-line arrays, inline tables, and
//! `#` comments — parsing into the same [`Value`] tree the JSON codec
//! uses, so one `from_value`/`to_value` pair serves both formats.
//!
//! Emission is the inverse: scalars and arrays first, then one `[table]`
//! section per nested object, preserving field order. Objects inside
//! arrays emit as inline tables (`replica = [{ role = "prefill" }]`),
//! which the parser accepts alongside the `[[...]]` form. `Null` values
//! are skipped (TOML has no null; optional scenario fields simply stay
//! absent).

use serde::Value;

/// Parses TOML text into a [`Value::Object`] tree.
///
/// # Errors
///
/// Returns a line-qualified message on syntax errors, duplicate keys, or
/// constructs outside the supported subset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut root = Value::Object(Vec::new());
    let mut table_path: Vec<String> = Vec::new();
    // Whether `table_path` addresses the last element of an array of
    // tables (`[[path]]`) instead of a plain table.
    let mut in_array_item = false;
    let mut lines = text.lines().enumerate().peekable();
    while let Some((line_no, raw)) = lines.next() {
        let line = strip_comment(raw);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| format!("TOML line {}: {msg}", line_no + 1);
        if let Some(header) = line.strip_prefix('[') {
            if let Some(aot) = header.strip_prefix('[') {
                // `[[a.b]]`: append a fresh table to the array at a.b.
                let aot = aot
                    .strip_suffix("]]")
                    .ok_or_else(|| err("unterminated array-of-tables header".into()))?;
                table_path = parse_key_path(aot).map_err(&err)?;
                in_array_item = true;
                let (key, parent_path) = split_key(&table_path).map_err(&err)?;
                let parent = ensure_table(&mut root, parent_path).map_err(&err)?;
                let Value::Object(fields) = parent else {
                    unreachable!("ensure_table returns objects")
                };
                match fields.iter_mut().find(|(k, _)| k == key) {
                    Some((_, Value::Array(items))) => items.push(Value::Object(Vec::new())),
                    Some(_) => {
                        return Err(err(format!(
                            "array-of-tables `{key}` redefines a non-array value"
                        )))
                    }
                    None => fields
                        .push((key.clone(), Value::Array(vec![Value::Object(Vec::new())]))),
                }
                continue;
            }
            let header = header
                .strip_suffix(']')
                .ok_or_else(|| err("unterminated table header".into()))?;
            table_path = parse_key_path(header).map_err(err)?;
            in_array_item = false;
            // Materialize the table so empty sections still round-trip.
            ensure_table(&mut root, &table_path).map_err(err)?;
            continue;
        }
        let (key_text, value_text) = line
            .split_once('=')
            .ok_or_else(|| err("expected `key = value` or `[table]`".into()))?;
        let key_path = parse_key_path(key_text).map_err(&err)?;
        // Multi-line arrays: keep consuming lines until brackets balance.
        let mut value_text = value_text.trim().to_owned();
        while bracket_depth(&value_text) > 0 {
            let Some((_, next)) = lines.next() else {
                return Err(err("unterminated array".into()));
            };
            value_text.push(' ');
            value_text.push_str(strip_comment(next).trim());
        }
        let value = parse_value(value_text.trim()).map_err(&err)?;
        let (key, parent_path) = split_key(&key_path).map_err(&err)?;
        let section = if in_array_item {
            array_last_item(&mut root, &table_path).map_err(&err)?
        } else {
            ensure_table(&mut root, &table_path).map_err(&err)?
        };
        let table = ensure_table(section, parent_path).map_err(&err)?;
        let Value::Object(fields) = table else { unreachable!("ensure_table returns objects") };
        if fields.iter().any(|(k, _)| k == key) {
            return Err(err(format!("duplicate key `{key}`")));
        }
        fields.push((key.clone(), value));
    }
    Ok(root)
}

/// Walks to the last element of the array of tables at `path` (which
/// must exist — a `[[path]]` header created it).
fn array_last_item<'a>(root: &'a mut Value, path: &[String]) -> Result<&'a mut Value, String> {
    let (key, parent_path) = split_key(path)?;
    let parent = ensure_table(root, parent_path)?;
    let Value::Object(fields) = parent else { unreachable!("ensure_table returns objects") };
    let Some((_, Value::Array(items))) = fields.iter_mut().find(|(k, _)| k == key) else {
        return Err(format!("`{key}` is not an array of tables"));
    };
    items.last_mut().ok_or_else(|| format!("array of tables `{key}` is empty"))
}

/// The last segment of a key path and the path to its parent table.
fn split_key(path: &[String]) -> Result<(&String, &[String]), String> {
    path.split_last().ok_or_else(|| "empty key".to_owned())
}

/// Serializes a [`Value::Object`] tree as TOML.
///
/// # Errors
///
/// Returns a message when the value is not an object or holds a null
/// inside an array (TOML has no null).
pub fn emit(value: &Value) -> Result<String, String> {
    let Value::Object(_) = value else {
        return Err("top-level TOML value must be a table".into());
    };
    let mut out = String::new();
    emit_table(value, &mut Vec::new(), &mut out)?;
    Ok(out)
}

/// Removes a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string => {
                escaped = !escaped;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

/// Net `[` depth outside strings (positive: an array continues).
fn bracket_depth(text: &str) -> i32 {
    let mut depth = 0;
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        match c {
            '\\' if in_string => {
                escaped = !escaped;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => depth -= 1,
            _ => {}
        }
        escaped = false;
    }
    depth
}

/// Splits `a.b.c` into path segments (bare or quoted; a quoted segment
/// may itself contain dots — `"fleet.max_replicas" = ...` is one key).
fn parse_key_path(text: &str) -> Result<Vec<String>, String> {
    // Each part carries whether any of it came from inside quotes, so
    // validation is per segment: quoted segments are taken verbatim,
    // bare segments must stick to the bare-key alphabet.
    let mut parts: Vec<(String, bool)> = Vec::new();
    let mut current = String::new();
    let mut quoted = false;
    let mut in_string = false;
    for c in text.chars() {
        match c {
            '"' => {
                in_string = !in_string;
                quoted = true;
            }
            '.' if !in_string => {
                parts.push((std::mem::take(&mut current), quoted));
                quoted = false;
            }
            c => current.push(c),
        }
    }
    if in_string {
        return Err(format!("unterminated key `{text}`"));
    }
    parts.push((current, quoted));
    let mut out = Vec::new();
    for (part, quoted) in parts {
        // Whitespace around a segment (outside any quotes) is
        // insignificant; schema keys never carry significant edge
        // whitespace inside quotes either.
        let part = part.trim();
        if part.is_empty() && !quoted {
            return Err(format!("invalid key `{text}`"));
        }
        if !quoted && !part.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-') {
            return Err(format!("invalid key `{text}`"));
        }
        out.push(part.to_owned());
    }
    Ok(out)
}

/// Walks (creating as needed) to the object at `path`.
fn ensure_table<'a>(root: &'a mut Value, path: &[String]) -> Result<&'a mut Value, String> {
    let mut current = root;
    for key in path {
        let Value::Object(fields) = current else {
            return Err(format!("key `{key}` redefines a non-table value"));
        };
        let idx = match fields.iter().position(|(k, _)| k == key) {
            Some(i) => i,
            None => {
                fields.push((key.clone(), Value::Object(Vec::new())));
                fields.len() - 1
            }
        };
        current = &mut fields[idx].1;
        if !matches!(current, Value::Object(_)) {
            return Err(format!("key `{key}` is not a table"));
        }
    }
    Ok(current)
}

fn parse_value(text: &str) -> Result<Value, String> {
    let mut chars = Cursor { bytes: text.as_bytes(), pos: 0 };
    let value = chars.value()?;
    chars.skip_ws();
    if chars.pos != chars.bytes.len() {
        return Err(format!("trailing characters after value in `{text}`"));
    }
    Ok(value)
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek().ok_or("missing value")? {
            b'"' => self.string().map(Value::Str),
            b'[' => self.array(),
            b'{' => self.inline_table(),
            b't' | b'f' => self.boolean(),
            _ => match self.special_float() {
                Some(f) => Ok(Value::Float(f)),
                None => self.number(),
            },
        }
    }

    /// TOML's `inf` and `nan`, optionally signed.
    fn special_float(&mut self) -> Option<f64> {
        let rest = &self.bytes[self.pos..];
        let (sign, unsigned) = match rest.first() {
            Some(b'-') => (-1.0, &rest[1..]),
            Some(b'+') => (1.0, &rest[1..]),
            _ => (1.0, rest),
        };
        let f = if unsigned.starts_with(b"inf") {
            sign * f64::INFINITY
        } else if unsigned.starts_with(b"nan") {
            f64::NAN
        } else {
            return None;
        };
        self.pos += rest.len() - unsigned.len() + 3;
        Some(f)
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.bytes.get(self.pos).ok_or("bad escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        other => return Err(format!("unknown escape \\{}", *other as char)),
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid UTF-8 in string")?,
                    );
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.pos += 1; // `[`
        let mut items = Vec::new();
        loop {
            match self.peek().ok_or("unterminated array")? {
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                b',' => self.pos += 1,
                _ => items.push(self.value()?),
            }
        }
    }

    fn inline_table(&mut self) -> Result<Value, String> {
        self.pos += 1; // `{`
        let mut fields: Vec<(String, Value)> = Vec::new();
        loop {
            match self.peek().ok_or("unterminated inline table")? {
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                b',' => self.pos += 1,
                _ => {
                    let start = self.pos;
                    while !matches!(self.bytes.get(self.pos), None | Some(b'=')) {
                        self.pos += 1;
                    }
                    let key = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8 in key")?
                        .trim()
                        .to_owned();
                    if key.is_empty() {
                        return Err("empty key in inline table".into());
                    }
                    self.pos += 1; // `=`
                    let value = self.value()?;
                    fields.push((key, value));
                }
            }
        }
    }

    fn boolean(&mut self) -> Result<Value, String> {
        for (kw, v) in [("true", true), ("false", false)] {
            if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
                self.pos += kw.len();
                return Ok(Value::Bool(v));
            }
        }
        Err("expected `true` or `false`".into())
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' | b'+' | b'-' | b'_' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text: String = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number")?
            .chars()
            .filter(|&c| c != '_')
            .collect();
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| format!("bad float `{text}`: {e}"))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|e| format!("bad integer `{text}`: {e}"))
        }
    }
}

fn emit_table(value: &Value, path: &mut Vec<String>, out: &mut String) -> Result<(), String> {
    let Value::Object(fields) = value else { unreachable!("callers pass objects") };
    let mut tables: Vec<(&String, &Value)> = Vec::new();
    for (key, v) in fields {
        match v {
            // TOML has no null: optional fields are simply absent.
            Value::Null => {}
            Value::Object(_) => tables.push((key, v)),
            other => {
                out.push_str(&emit_key(key));
                out.push_str(" = ");
                emit_inline(other, out)?;
                out.push('\n');
            }
        }
    }
    for (key, table) in tables {
        path.push(key.clone());
        if !out.is_empty() {
            out.push('\n');
        }
        out.push('[');
        out.push_str(&path.iter().map(|k| emit_key(k)).collect::<Vec<_>>().join("."));
        out.push_str("]\n");
        emit_table(table, path, out)?;
        path.pop();
    }
    Ok(())
}

fn emit_key(key: &str) -> String {
    let bare = !key.is_empty()
        && key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    if bare {
        key.to_owned()
    } else {
        format!("\"{}\"", key.replace('\\', "\\\\").replace('"', "\\\""))
    }
}

fn emit_inline(value: &Value, out: &mut String) -> Result<(), String> {
    match value {
        Value::Null => return Err("null has no TOML form".into()),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) if f.is_nan() => out.push_str("nan"),
        Value::Float(f) => {
            // `{:?}` keeps a trailing `.0` on integral floats, so the
            // value re-parses as a float — required for losslessness. It
            // spells the infinities `inf`/`-inf`, as TOML does.
            out.push_str(&format!("{f:?}"));
        }
        Value::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                emit_inline(item, out)?;
            }
            out.push(']');
        }
        Value::Object(fields) => {
            // Only reachable inside arrays: emit the inline-table form
            // (`{ k = v, ... }`), which `parse` accepts alongside the
            // `[[...]]` array-of-tables spelling. Nulls stay absent,
            // matching table emission.
            out.push_str("{ ");
            let mut first = true;
            for (key, v) in fields {
                if matches!(v, Value::Null) {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                out.push_str(&emit_key(key));
                out.push_str(" = ");
                emit_inline(v, out)?;
            }
            out.push_str(" }");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_tables_and_arrays() {
        let text = r#"
# a scenario-ish document
model = "gpt2"   # trailing comment
npus = 16
rate = 4.5
sub_batch = false
light = [32, 8]

[workload]
kind = "bursty"
heavy = [512, 64]

[deep.nested]
x = 1
"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("model"), Some(&Value::Str("gpt2".into())));
        assert_eq!(v.get("npus"), Some(&Value::Int(16)));
        assert_eq!(v.get("rate"), Some(&Value::Float(4.5)));
        assert_eq!(v.get("sub_batch"), Some(&Value::Bool(false)));
        assert_eq!(v.get("light"), Some(&Value::Array(vec![Value::Int(32), Value::Int(8)])));
        let workload = v.get("workload").unwrap();
        assert_eq!(workload.get("kind"), Some(&Value::Str("bursty".into())));
        assert_eq!(
            v.get("deep").unwrap().get("nested").unwrap().get("x"),
            Some(&Value::Int(1))
        );
    }

    #[test]
    fn parses_multiline_arrays_and_inline_tables() {
        let text = "grid = [\n  1,\n  2, # comment\n  3\n]\npoint = { x = 1, y = \"a\" }\n";
        let v = parse(text).unwrap();
        assert_eq!(
            v.get("grid"),
            Some(&Value::Array(vec![Value::Int(1), Value::Int(2), Value::Int(3)]))
        );
        assert_eq!(v.get("point").unwrap().get("y"), Some(&Value::Str("a".into())));
    }

    #[test]
    fn rejects_garbage_with_line_numbers() {
        assert!(parse("= 3").unwrap_err().contains("line 1"));
        assert!(parse("a = ").unwrap_err().contains("line 1"));
        assert!(parse("x = 1\nx = 2").unwrap_err().contains("duplicate"));
        assert!(parse("[[aot]").unwrap_err().contains("unterminated"));
        assert!(parse("x = 1\n[[x]]").unwrap_err().contains("non-array"));
        // A bare segment stays bare-validated even when another segment
        // of the same key is quoted.
        assert!(parse("bad key.\"x\" = 1").unwrap_err().contains("invalid key"));
        assert!(parse("k = [1, 2").unwrap_err().contains("unterminated"));
        assert!(parse("k = 1 2").unwrap_err().contains("trailing"));
    }

    #[test]
    fn emit_then_parse_is_identity() {
        let v = Value::Object(vec![
            ("model".into(), Value::Str("gpt2\"x".into())),
            ("n".into(), Value::Int(-3)),
            ("rate".into(), Value::Float(4.0)),
            ("half".into(), Value::Float(0.5)),
            ("flag".into(), Value::Bool(true)),
            ("skip".into(), Value::Null),
            ("pair".into(), Value::Array(vec![Value::Int(1), Value::Int(2)])),
            (
                "workload".into(),
                Value::Object(vec![("kind".into(), Value::Str("synthetic".into()))]),
            ),
        ]);
        let text = emit(&v).unwrap();
        let back = parse(&text).unwrap();
        // Null is dropped on emit; everything else survives in order.
        assert_eq!(back.get("model"), Some(&Value::Str("gpt2\"x".into())));
        assert_eq!(back.get("n"), Some(&Value::Int(-3)));
        assert_eq!(back.get("rate"), Some(&Value::Float(4.0)));
        assert_eq!(back.get("half"), Some(&Value::Float(0.5)));
        assert_eq!(back.get("flag"), Some(&Value::Bool(true)));
        assert_eq!(back.get("skip"), None);
        assert_eq!(
            back.get("workload").unwrap().get("kind"),
            Some(&Value::Str("synthetic".into()))
        );
        // And the emitted text itself is stable (canonical form).
        assert_eq!(emit(&back).unwrap(), text);
    }

    #[test]
    fn arrays_of_tables_parse_and_round_trip_inline() {
        // Both spellings parse to the same tree...
        let headers = "[fleet]\ncontrol = \"flex\"\n\n[[fleet.replica]]\nrole = \"prefill\"\n\
                       npus = 1\n\n[[fleet.replica]]\nrole = \"decode\"\n";
        let inline = "[fleet]\ncontrol = \"flex\"\nreplica = [{ role = \"prefill\", \
                      npus = 1 }, { role = \"decode\" }]\n";
        let a = parse(headers).unwrap();
        let b = parse(inline).unwrap();
        let fleet = a.get("fleet").unwrap();
        let Some(Value::Array(items)) = fleet.get("replica") else {
            panic!("replica is not an array: {fleet:?}")
        };
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("npus"), Some(&Value::Int(1)));
        assert_eq!(items[1].get("role"), Some(&Value::Str("decode".into())));
        // ...modulo field order, which both spellings preserve.
        assert_eq!(
            a.get("fleet").unwrap().get("replica"),
            b.get("fleet").unwrap().get("replica")
        );
        // ...and the emitted canonical (inline) form re-parses identically.
        let text = emit(&a).unwrap();
        assert_eq!(parse(&text).unwrap(), a, "{text}");
    }

    #[test]
    fn non_finite_floats_use_the_toml_spellings() {
        let v = Value::Object(vec![
            ("a".into(), Value::Float(f64::INFINITY)),
            ("b".into(), Value::Float(f64::NEG_INFINITY)),
            ("c".into(), Value::Float(f64::NAN)),
        ]);
        let text = emit(&v).unwrap();
        assert_eq!(text, "a = inf\nb = -inf\nc = nan\n");
        let back = parse(&text).unwrap();
        assert_eq!(back.get("a"), Some(&Value::Float(f64::INFINITY)));
        assert_eq!(back.get("b"), Some(&Value::Float(f64::NEG_INFINITY)));
        assert!(matches!(back.get("c"), Some(Value::Float(f)) if f.is_nan()));
        assert_eq!(parse("x = +inf").unwrap().get("x"), Some(&Value::Float(f64::INFINITY)));
        assert!(parse("x = info").is_err());
    }

    #[test]
    fn strings_with_hashes_and_escapes_survive() {
        let v =
            Value::Object(vec![("s".into(), Value::Str("a # not a comment\t\"q\"".into()))]);
        let text = emit(&v).unwrap();
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
    }
}
