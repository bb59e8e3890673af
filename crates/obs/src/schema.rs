//! A minimal JSON-Schema subset validator.
//!
//! CI validates every emitted run manifest against the checked-in
//! `docs/manifest.schema.json`, and the serve daemon validates every
//! request against `docs/serve.schema.json` before serving it, without
//! network access or external tooling, so the repository carries its own
//! validator. Its messages (`json-pointer: message`) are the daemon's
//! in-band refusals. The supported subset — `type`, `required`, `properties`,
//! `additionalProperties`, `items`, `enum`, `minimum`, `maximum` — is
//! exactly what those two schemas use; unknown keywords are ignored, as
//! JSON Schema prescribes, so a schema that needs another keyword needs
//! it added here first.

use serde::Value;

/// Validates `doc` against `schema`. Returns every violation found, each
/// as `json-pointer: message`; an empty error list means the document
/// conforms.
///
/// # Errors
///
/// The collected violations, most-shallow first.
pub fn validate(schema: &Value, doc: &Value) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    check(schema, doc, "", &mut errors);
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn check(schema: &Value, doc: &Value, path: &str, errors: &mut Vec<String>) {
    let Value::Map(rules) = schema else {
        return; // a non-object schema constrains nothing
    };
    let rule = |name: &str| rules.iter().find(|(k, _)| k == name).map(|(_, v)| v);

    if let Some(ty) = rule("type") {
        if !type_matches(ty, doc) {
            errors.push(format!(
                "{}: expected type {}, got {}",
                pointer(path),
                type_name(ty),
                value_kind(doc)
            ));
            return; // further keyword checks would only cascade
        }
    }

    if let Some(Value::Seq(allowed)) = rule("enum") {
        if !allowed.iter().any(|v| json_eq(v, doc)) {
            errors.push(format!("{}: value not in enum", pointer(path)));
        }
    }

    if let Some(min) = rule("minimum") {
        if let (Some(bound), Some(actual)) = (as_f64(min), as_f64(doc)) {
            if actual < bound {
                errors.push(format!("{}: {actual} below minimum {bound}", pointer(path)));
            }
        }
    }

    if let Some(max) = rule("maximum") {
        if let (Some(bound), Some(actual)) = (as_f64(max), as_f64(doc)) {
            if actual > bound {
                errors.push(format!("{}: {actual} above maximum {bound}", pointer(path)));
            }
        }
    }

    if let Value::Map(fields) = doc {
        if let Some(Value::Seq(required)) = rule("required") {
            for req in required {
                if let Value::Str(name) = req {
                    if !fields.iter().any(|(k, _)| k == name) {
                        errors.push(format!(
                            "{}: missing required property \"{name}\"",
                            pointer(path)
                        ));
                    }
                }
            }
        }
        let props = rule("properties");
        for (key, value) in fields {
            let sub = props.and_then(|p| match p {
                Value::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            });
            let child_path = format!("{path}/{key}");
            match sub {
                Some(s) => check(s, value, &child_path, errors),
                None => match rule("additionalProperties") {
                    Some(Value::Bool(false)) => {
                        errors.push(format!("{}: unexpected property \"{key}\"", pointer(path)))
                    }
                    Some(s @ Value::Map(_)) => check(s, value, &child_path, errors),
                    _ => {}
                },
            }
        }
    }

    if let (Value::Seq(items), Some(item_schema)) = (doc, rule("items")) {
        for (i, item) in items.iter().enumerate() {
            check(item_schema, item, &format!("{path}/{i}"), errors);
        }
    }
}

fn type_matches(ty: &Value, doc: &Value) -> bool {
    match ty {
        Value::Str(name) => match name.as_str() {
            "object" => matches!(doc, Value::Map(_)),
            "array" => matches!(doc, Value::Seq(_)),
            "string" => matches!(doc, Value::Str(_)),
            "boolean" => matches!(doc, Value::Bool(_)),
            "null" => matches!(doc, Value::Null),
            "number" => as_f64(doc).is_some(),
            "integer" => match doc {
                Value::Int(_) | Value::UInt(_) => true,
                Value::Float(f) => f.fract() == 0.0,
                _ => false,
            },
            _ => true, // unknown type names constrain nothing
        },
        // e.g. "type": ["number", "null"]
        Value::Seq(alternatives) => alternatives.iter().any(|t| type_matches(t, doc)),
        _ => true,
    }
}

fn type_name(ty: &Value) -> String {
    match ty {
        Value::Str(s) => s.clone(),
        Value::Seq(ts) => ts.iter().map(type_name).collect::<Vec<_>>().join("|"),
        _ => "?".to_string(),
    }
}

fn value_kind(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "boolean",
        Value::Int(_) | Value::UInt(_) => "integer",
        Value::Float(_) => "number",
        Value::Str(_) => "string",
        Value::Seq(_) => "array",
        Value::Map(_) => "object",
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn json_eq(a: &Value, b: &Value) -> bool {
    match (as_f64(a), as_f64(b)) {
        (Some(x), Some(y)) => x == y,
        _ => match (a, b) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(x), Value::Bool(y)) => x == y,
            (Value::Str(x), Value::Str(y)) => x == y,
            (Value::Seq(x), Value::Seq(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(a, b)| json_eq(a, b))
            }
            (Value::Map(x), Value::Map(y)) => {
                x.len() == y.len()
                    && x.iter()
                        .all(|(k, v)| y.iter().any(|(k2, v2)| k == k2 && json_eq(v, v2)))
            }
            _ => false,
        },
    }
}

fn pointer(path: &str) -> &str {
    if path.is_empty() {
        "/"
    } else {
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Value {
        serde_json::from_str::<Value>(s).unwrap()
    }

    #[test]
    fn accepts_conforming_document() {
        let schema = parse(
            r#"{
                "type": "object",
                "required": ["schema_version", "tool"],
                "properties": {
                    "schema_version": {"type": "integer", "minimum": 1},
                    "tool": {
                        "type": "object",
                        "required": ["name"],
                        "properties": {"name": {"type": "string"}}
                    },
                    "spans": {"type": "array", "items": {"type": "object"}},
                    "digest": {"type": ["string", "null"]}
                },
                "additionalProperties": false
            }"#,
        );
        let doc = parse(
            r#"{"schema_version": 1,
                "tool": {"name": "sta-repro", "extra": true},
                "spans": [{}, {}],
                "digest": null}"#,
        );
        assert_eq!(validate(&schema, &doc), Ok(()));
    }

    #[test]
    fn reports_each_violation_with_a_pointer() {
        let schema = parse(
            r#"{
                "type": "object",
                "required": ["tool"],
                "properties": {
                    "schema_version": {"type": "integer", "minimum": 1},
                    "mode": {"enum": ["human", "json"]}
                },
                "additionalProperties": false
            }"#,
        );
        let doc = parse(r#"{"schema_version": 0, "mode": "xml", "bogus": 1}"#);
        let errs = validate(&schema, &doc).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.contains("missing required property \"tool\"")));
        assert!(errs
            .iter()
            .any(|e| e.contains("/schema_version") && e.contains("minimum")));
        assert!(errs
            .iter()
            .any(|e| e.contains("/mode") && e.contains("enum")));
        assert!(errs
            .iter()
            .any(|e| e.contains("unexpected property \"bogus\"")));
    }

    #[test]
    fn type_mismatch_stops_cascading() {
        let schema = parse(
            r#"{"type": "object", "properties": {"spans": {"type": "array", "items": {"type": "object", "required": ["name"]}}}}"#,
        );
        let doc = parse(r#"{"spans": [{"name": "a"}, {"nope": 1}, 3]}"#);
        let errs = validate(&schema, &doc).unwrap_err();
        assert_eq!(errs.len(), 2);
        assert!(errs.iter().any(|e| e.starts_with("/spans/1:")));
        assert!(errs.iter().any(|e| e.starts_with("/spans/2:")));
    }

    #[test]
    fn maximum_is_inclusive() {
        let schema = parse(r#"{"type": "integer", "minimum": 1, "maximum": 64}"#);
        assert_eq!(validate(&schema, &parse("1")), Ok(()));
        assert_eq!(validate(&schema, &parse("64")), Ok(()));
        let errs = validate(&schema, &parse("65")).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("above maximum 64")),
            "{errs:?}"
        );
        assert!(validate(&schema, &parse("0")).is_err());
    }

    #[test]
    fn integer_accepts_whole_floats() {
        let schema = parse(r#"{"type": "integer"}"#);
        assert_eq!(validate(&schema, &parse("3.0")), Ok(()));
        assert!(validate(&schema, &parse("3.5")).is_err());
    }
}
