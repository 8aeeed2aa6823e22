//! Report renderers: human text and byte-deterministic JSON.
//!
//! Both formats share `massf-lint`'s finding line, count phrase and JSON
//! head (`massf_metrics::report`), so tooling that already consumes
//! `massf check` output can consume `massf srclint` output with only the
//! `tool` field and the `files_scanned` summary key changing. Repeated
//! runs over the same tree are byte-identical.

use crate::{Report, Severity};
use massf_metrics::report::{count_phrase, diagnostics_json, finding_lines, quote};

/// Renders the human-readable report. Call [`Report::finish`] first.
pub fn render_human(report: &Report) -> String {
    let mut out = finding_lines(&report.findings);
    for a in &report.allows {
        out.push_str(&format!(
            "allow[{}] {}: {} acknowledged site(s)\n",
            a.code, a.path, a.count
        ));
    }
    let counts = count_phrase(
        report.count(Severity::Error),
        report.count(Severity::Warn),
        report.count(Severity::Note),
    );
    out.push_str(&format!(
        "srclint: {counts} \u{2014} {} file(s) scanned, {} passes run\n",
        report.files_scanned,
        Report::PASSES_RUN
    ));
    out
}

/// Renders the byte-deterministic JSON report: the shared diagnostics
/// head (plus `files_scanned`), then the acknowledged sites. Call
/// [`Report::finish`] first.
pub fn render_json(report: &Report) -> String {
    let extra = [("files_scanned", report.files_scanned)];
    let mut out = diagnostics_json(
        "massf-srclint",
        &report.findings,
        &extra,
        Report::PASSES_RUN,
    );
    out.push_str("  \"allows\": [");
    for (i, a) in report.allows.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\n      \"code\": {},\n      \"path\": {},\n      \"count\": {}\n    }}",
            quote(a.code.as_str()),
            quote(&a.path),
            a.count
        ));
    }
    out.push_str(if report.allows.is_empty() {
        "]\n}\n"
    } else {
        "\n  ]\n}\n"
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_sources, SourceFile};

    fn dirty_report() -> Report {
        lint_sources(&[SourceFile {
            path: "crates/engine/src/dirty.rs".into(),
            text: "fn f() { let t = std::time::Instant::now(); drop(t); }\n\
                   fn g() { println!(\"x\"); }\n"
                .into(),
        }])
    }

    #[test]
    fn human_lines_and_summary() {
        let r = dirty_report();
        let h = render_human(&r);
        assert!(h.contains("error[SA002] crates/engine/src/dirty.rs:1:"));
        assert!(h.contains("warning[SA005] crates/engine/src/dirty.rs:2:"));
        assert!(h.ends_with("passes run\n"));
        assert!(h.contains("srclint: 1 error(s), 1 warning(s), 0 note(s)"));
    }

    #[test]
    fn json_is_parseable_shape_and_repeatable() {
        let r = dirty_report();
        let j1 = render_json(&r);
        let j2 = render_json(&dirty_report());
        assert_eq!(j1, j2, "byte-identical across runs");
        assert!(j1.contains("\"tool\": \"massf-srclint\""));
        assert!(j1.contains("\"format\": 1"));
        assert!(j1.contains("\"errors\": 1"));
        assert!(j1.contains("\"location\": \"crates/engine/src/dirty.rs:1\""));
        assert!(j1.ends_with("}\n"));
    }

    #[test]
    fn empty_report_renders_compact_arrays() {
        let r = lint_sources(&[]);
        let j = render_json(&r);
        assert!(j.contains("\"diagnostics\": [],"));
        assert!(j.contains("\"allows\": []\n"));
        let h = render_human(&r);
        assert_eq!(
            h,
            "srclint: 0 error(s), 0 warning(s), 0 note(s) \u{2014} 0 file(s) scanned, 8 passes run\n"
        );
    }
}
