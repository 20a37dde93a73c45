//! Versioned JSON report for a lint run, following the same
//! `format_version`-stamped shape as the chaos harness reports.

use crate::baseline::{json_string, RatchetDiff, FORMAT_VERSION};
use crate::rules::AnalysisOutput;
use std::fmt::Write as _;

/// Renders the full machine-readable report.
pub fn render_json(out: &AnalysisOutput, diff: &RatchetDiff) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"format_version\": {FORMAT_VERSION},");
    let _ = writeln!(s, "  \"files_scanned\": {},", out.files_scanned);
    let _ = writeln!(s, "  \"suppressions_used\": {},", out.suppressions_used);
    let _ = writeln!(s, "  \"findings\": [");
    for (i, f) in out.findings.iter().enumerate() {
        let comma = if i + 1 < out.findings.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{ \"rule\": {}, \"path\": {}, \"line\": {}, \"column\": {}, \"message\": {} }}{comma}",
            json_string(&f.rule),
            json_string(&f.path),
            f.line,
            f.column,
            json_string(&f.message)
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"ratchet\": {{");
    let _ = write_deltas(&mut s, "regressions", &diff.regressions, true);
    let _ = write_deltas(&mut s, "improvements", &diff.improvements, false);
    let _ = writeln!(s, "  }}");
    let _ = writeln!(s, "}}");
    s
}

fn write_deltas(
    s: &mut String,
    key: &str,
    deltas: &[crate::baseline::Delta],
    trailing_comma: bool,
) -> std::fmt::Result {
    writeln!(s, "    \"{key}\": [")?;
    for (i, d) in deltas.iter().enumerate() {
        let comma = if i + 1 < deltas.len() { "," } else { "" };
        writeln!(
            s,
            "      {{ \"rule\": {}, \"path\": {}, \"baseline\": {}, \"current\": {} }}{comma}",
            json_string(&d.rule),
            json_string(&d.path),
            d.baseline,
            d.current
        )?;
    }
    writeln!(s, "    ]{}", if trailing_comma { "," } else { "" })?;
    Ok(())
}

/// Renders the human-readable summary printed to stdout.
pub fn render_human(out: &AnalysisOutput, diff: &RatchetDiff) -> String {
    let mut s = String::new();
    for f in &out.findings {
        let _ = writeln!(s, "{}:{}:{}: [{}] {}", f.path, f.line, f.column, f.rule, f.message);
    }
    let _ = writeln!(
        s,
        "star-lint: {} file(s) scanned, {} finding(s), {} suppression(s) used",
        out.files_scanned,
        out.findings.len(),
        out.suppressions_used
    );
    for d in &diff.regressions {
        let _ = writeln!(
            s,
            "RATCHET REGRESSION: {} in {} ({} -> {} findings)",
            d.rule, d.path, d.baseline, d.current
        );
    }
    for d in &diff.improvements {
        let _ = writeln!(
            s,
            "ratchet improvement: {} in {} ({} -> {}); rerun with --write-baseline to lock it in",
            d.rule, d.path, d.baseline, d.current
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{Baseline, JsonValue};
    use crate::rules::Finding;

    #[test]
    fn report_json_is_parseable_and_versioned() {
        let out = AnalysisOutput {
            findings: vec![Finding {
                path: "crates/x/src/lib.rs".into(),
                line: 3,
                column: 7,
                rule: "determinism::instant-now".into(),
                message: "a \"quoted\" message".into(),
            }],
            files_scanned: 2,
            suppressions_used: 1,
            ..AnalysisOutput::default()
        };
        let diff = Baseline::default().diff(&out.findings);
        let json = render_json(&out, &diff);
        let v = JsonValue::parse(&json).expect("report must be valid JSON");
        let obj = v.as_object().unwrap();
        assert_eq!(obj["format_version"].as_u64(), Some(u64::from(FORMAT_VERSION)));
        assert_eq!(obj["findings"].as_array().unwrap().len(), 1);
        let ratchet = obj["ratchet"].as_object().unwrap();
        assert_eq!(ratchet["regressions"].as_array().unwrap().len(), 1);
    }
}
