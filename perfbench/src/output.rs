//! Metric naming rules and the result line.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A metric name: starts with a letter or digit, at most 64 of letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(s: &str) -> bool {
    (1..=64).contains(&s.len())
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result object: `correct`, `attempted`, `failed`, and every metric
/// as `{"value", "unit"}`, values with all their digits.
///
/// # Panics
///
/// Panics on an invalid or repeated name, an invalid unit or a
/// non-finite value — a malformed result is never printed.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut seen = std::collections::BTreeSet::new();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(valid_name(&m.name), "invalid metric name {:?}", m.name);
            assert!(
                valid_unit(m.unit),
                "invalid unit {:?} of {}",
                m.unit,
                m.name
            );
            assert!(m.value.is_finite(), "{} is not finite: {}", m.name, m.value);
            assert!(seen.insert(&m.name), "metric {} reported twice", m.name);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                m.value,
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The human-readable table: one `name value unit` line per metric.
pub fn table(metrics: &[Metric]) -> String {
    let w = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    metrics
        .iter()
        .map(|m| format!("  {:<w$}  {:>16.6}  {}\n", m.name, m.value, m.unit))
        .collect()
}
