//! Reporting and JSON export: the workspace's one JSON string writer
//! ([`quote`]), the diagnostics core shared by the scenario lint
//! (`massf-lint`, `MC*` codes) and the source lint (`massf-srclint`, `SA*`
//! codes), and the text tables and JSON export of the figure/table
//! regenerators ([`ResultTable`]).
//!
//! JSON is emitted by hand (no serde available offline), so key order and
//! whitespace stay fully under the writer's control. [`ResultTable`] uses
//! a 2-space pretty format with `f64` values printed with `{:?}` so whole
//! numbers keep a trailing `.0` (matching `serde_json::to_string_pretty`
//! output).

/// Escapes `s` per JSON string rules and wraps it in double quotes:
/// quotes, backslashes, `\n`, `\r`, `\t`, and every other control
/// character as `\u00XX`. Every JSON document the workspace writes quotes
/// its strings here.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// How serious a diagnostic is, in both lint layers.
///
/// Ordered `Note < Warn < Error` so `max()` over a report gives the
/// overall outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; never fails a check.
    Note,
    /// Suspicious input that degrades partition quality or determinism;
    /// fails only under `--deny-warnings`.
    Warn,
    /// Malformed or degenerate input, or a determinism hazard; the check
    /// fails and the pipeline refuses to proceed.
    Error,
}

impl Severity {
    /// Lower-case label used by every renderer (`error`, `warning`, `note`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warn => "warning",
            Severity::Error => "error",
        }
    }
}

/// One diagnostic as the shared renderers see it. Each report container
/// keeps its own storage, caps and typed sort key; the location is
/// rendered only when a report is written.
pub trait Finding {
    /// How serious the finding is.
    fn severity(&self) -> Severity;
    /// The stable code string (`MC001`, `SA002`, ...).
    fn code(&self) -> &'static str;
    /// Where the finding points, rendered for output.
    fn location(&self) -> String;
    /// Human-readable explanation.
    fn message(&self) -> &str;
}

/// The count phrase of every summary line:
/// `E error(s), W warning(s), N note(s)`.
pub fn count_phrase(errors: usize, warnings: usize, notes: usize) -> String {
    format!("{errors} error(s), {warnings} warning(s), {notes} note(s)")
}

/// One finding as a compiler-style `severity[CODE] location: message`
/// line, without indent or newline.
pub fn finding_line(severity: &str, code: &str, location: &str, message: &str) -> String {
    format!("{severity}[{code}] {location}: {message}")
}

/// The human report body: one [`finding_line`] per finding, in order.
pub fn finding_lines<F: Finding>(findings: &[F]) -> String {
    let mut out = String::new();
    for f in findings {
        let line = finding_line(f.severity().label(), f.code(), &f.location(), f.message());
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Number of `findings` at exactly `severity`.
fn count<F: Finding>(findings: &[F], severity: Severity) -> usize {
    findings.iter().filter(|f| f.severity() == severity).count()
}

/// Opens a diagnostics JSON report (format 1): `tool`, `format`, the
/// `summary` block (severity counts, then the `extra` fields, then
/// `passes_run`) and the `diagnostics` array. The object is left open
/// after `"diagnostics": [...],` for the caller's tail key.
pub fn diagnostics_json<F: Finding>(
    tool: &str,
    findings: &[F],
    extra: &[(&str, usize)],
    passes_run: usize,
) -> String {
    let mut out = format!("{{\n  \"tool\": {},\n  \"format\": 1,\n", quote(tool));
    out.push_str("  \"summary\": {\n");
    let counts = [
        ("errors", count(findings, Severity::Error)),
        ("warnings", count(findings, Severity::Warn)),
        ("notes", count(findings, Severity::Note)),
    ];
    for (key, n) in counts.iter().chain(extra) {
        out.push_str(&format!("    \"{key}\": {n},\n"));
    }
    out.push_str(&format!("    \"passes_run\": {passes_run}\n  }},\n"));
    out.push_str("  \"diagnostics\": [");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\n      \"code\": {},\n      \"severity\": {},\n      \
             \"location\": {},\n      \"message\": {}\n    }}",
            quote(f.code()),
            quote(f.severity().label()),
            quote(&f.location()),
            quote(f.message())
        ));
    }
    out.push_str(if findings.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    out
}

/// One cell value in a result table.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Row label (e.g. topology or metric name).
    pub row: String,
    /// Column label (e.g. "TOP", "PLACE", "PROFILE").
    pub col: String,
    /// Value.
    pub value: f64,
}

/// A named grid of results, rendered as text or JSON.
#[derive(Debug, Clone)]
pub struct ResultTable {
    /// Table/figure id, e.g. "fig4".
    pub id: String,
    /// Caption printed above the table.
    pub caption: String,
    /// Row label order.
    pub rows: Vec<String>,
    /// Column label order.
    pub cols: Vec<String>,
    /// Cells (sparse; missing cells print as "-").
    pub cells: Vec<Cell>,
}

impl ResultTable {
    /// Creates an empty table.
    pub fn new(id: impl Into<String>, caption: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            caption: caption.into(),
            rows: vec![],
            cols: vec![],
            cells: vec![],
        }
    }

    /// Inserts (or overwrites) a cell, registering its row/column labels.
    pub fn set(&mut self, row: impl Into<String>, col: impl Into<String>, value: f64) {
        let row = row.into();
        let col = col.into();
        if !self.rows.contains(&row) {
            self.rows.push(row.clone());
        }
        if !self.cols.contains(&col) {
            self.cols.push(col.clone());
        }
        if let Some(c) = self.cells.iter_mut().find(|c| c.row == row && c.col == col) {
            c.value = value;
        } else {
            self.cells.push(Cell { row, col, value });
        }
    }

    /// Looks up a cell.
    pub fn get(&self, row: &str, col: &str) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.row == row && c.col == col)
            .map(|c| c.value)
    }

    /// Renders an aligned text table with `precision` decimals.
    pub fn render(&self, precision: usize) -> String {
        let mut out = format!("== {} — {} ==\n", self.id, self.caption);
        let width = self
            .cols
            .iter()
            .map(|c| c.len())
            .chain(
                self.cells
                    .iter()
                    .map(|c| format!("{:.precision$}", c.value).len()),
            )
            .max()
            .unwrap_or(8)
            .max(8);
        let row_w = self
            .rows
            .iter()
            .map(String::len)
            .max()
            .unwrap_or(10)
            .max(10);
        out.push_str(&format!("{:row_w$}", ""));
        for c in &self.cols {
            out.push_str(&format!(" {c:>width$}"));
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!("{r:row_w$}"));
            for c in &self.cols {
                match self.get(r, c) {
                    Some(v) => out.push_str(&format!(" {:>width$.precision$}", v)),
                    None => out.push_str(&format!(" {:>width$}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Serializes to pretty JSON (for EXPERIMENTS.md bookkeeping).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"id\": {},\n", quote(&self.id)));
        out.push_str(&format!("  \"caption\": {},\n", quote(&self.caption)));
        out.push_str(&format!("  \"rows\": {},\n", pretty_array(&self.rows, 2)));
        out.push_str(&format!("  \"cols\": {},\n", pretty_array(&self.cols, 2)));
        if self.cells.is_empty() {
            out.push_str("  \"cells\": []\n");
        } else {
            out.push_str("  \"cells\": [\n");
            for (i, c) in self.cells.iter().enumerate() {
                out.push_str("    {\n");
                out.push_str(&format!("      \"row\": {},\n", quote(&c.row)));
                out.push_str(&format!("      \"col\": {},\n", quote(&c.col)));
                out.push_str(&format!("      \"value\": {}\n", json_f64(c.value)));
                out.push_str(if i + 1 < self.cells.len() {
                    "    },\n"
                } else {
                    "    }\n"
                });
            }
            out.push_str("  ]\n");
        }
        out.push('}');
        out
    }
}

/// Emits an f64 the way serde_json does: `2.0` not `2`, and non-finite
/// values as `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Pretty-prints a string array at the given indent depth (spaces).
fn pretty_array(items: &[String], indent: usize) -> String {
    if items.is_empty() {
        return "[]".to_string();
    }
    let pad = " ".repeat(indent);
    let inner: Vec<String> = items
        .iter()
        .map(|s| format!("{pad}  {}", quote(s)))
        .collect();
    format!("[\n{}\n{pad}]", inner.join(",\n"))
}

/// Renders a simple horizontal bar chart line (for series figures in a
/// terminal), scaled to `max_width` characters.
pub fn bar(value: f64, max_value: f64, max_width: usize) -> String {
    if max_value <= 0.0 {
        return String::new();
    }
    let w = ((value / max_value) * max_width as f64).round() as usize;
    "#".repeat(w.min(max_width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_overwrite() {
        let mut t = ResultTable::new("fig4", "Load imbalance");
        t.set("Campus", "TOP", 0.5);
        t.set("Campus", "TOP", 0.6);
        assert_eq!(t.get("Campus", "TOP"), Some(0.6));
        assert_eq!(t.cells.len(), 1);
        assert_eq!(t.get("Campus", "PLACE"), None);
    }

    #[test]
    fn render_contains_all_labels() {
        let mut t = ResultTable::new("t", "c");
        t.set("Campus", "TOP", 1.0);
        t.set("Brite", "PROFILE", 0.25);
        let s = t.render(3);
        for needle in ["Campus", "Brite", "TOP", "PROFILE", "1.000", "0.250", "-"] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }

    #[test]
    fn json_roundtrips_labels() {
        let mut t = ResultTable::new("fig5", "x");
        t.set("r", "c", 2.0);
        let j = t.to_json();
        assert!(j.contains("\"fig5\""));
        assert!(j.contains("\"value\": 2.0"));
    }

    #[test]
    fn json_matches_golden() {
        let mut t = ResultTable::new("golden", "a \"quoted\"\tcaption");
        t.set("row\\a\n\u{1}", "TOP", 2.0);
        t.set("row\\a\n\u{1}", "PLACE", 0.125);
        t.set("b", "TOP", f64::NAN);
        let golden = include_str!("../tests/golden/result_table.json");
        assert_eq!(t.to_json(), golden, "escapes, integers and NaN pinned");
    }

    #[test]
    fn quote_escapes() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn bars_scale() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(20.0, 10.0, 10), "##########", "clamped");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }
}
