//! Structured diagnostics: rule id, location, message, fix hint.

use std::fmt;
use std::path::PathBuf;

/// Names of every rule `gt-lint` knows about, in reporting order.
///
/// These double as the identifiers accepted by `--rules` and by the
/// `// gt-lint: allow(<rule>, "reason")` escape hatch.
pub const ALL_RULES: &[&str] = &[
    "dead-counter",
    "unsurfaced-counter",
    "atomic-ordering",
    "blocking-in-dispatcher",
];

/// One finding: where, which rule, what is wrong, and how to fix it.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule identifier (one of [`ALL_RULES`]).
    pub rule: &'static str,
    /// File the finding is anchored to.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix it (or how to allow it with a reason).
    pub hint: String,
}

impl Diagnostic {
    /// Build a diagnostic for `rule` at `file:line`.
    pub fn new(
        rule: &'static str,
        file: impl Into<PathBuf>,
        line: u32,
        message: impl Into<String>,
        hint: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule,
            file: file.into(),
            line,
            message: message.into(),
            hint: hint.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )?;
        write!(f, "    hint: {}", self.hint)
    }
}

/// Escape a string for a JSON string literal (quotes not included).
fn json_esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Normalized (forward-slash) path for machine output.
fn norm_path(d: &Diagnostic) -> String {
    d.file.to_string_lossy().replace('\\', "/")
}

/// Render diagnostics as a JSON array (hand-rolled: the workspace is
/// offline, so no serde). Stable field order, one object per line, for
/// golden tests and CI consumption.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[\n");
    for (i, d) in diags.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\",\"hint\":\"{}\"}}{}\n",
            json_esc(d.rule),
            json_esc(&norm_path(d)),
            d.line,
            json_esc(&d.message),
            json_esc(&d.hint),
            if i + 1 < diags.len() { "," } else { "" },
        ));
    }
    out.push(']');
    out
}

/// Render diagnostics as a minimal SARIF 2.1.0 log (one run, one result
/// per finding) — enough for code-scanning upload and IDE ingestion.
pub fn render_sarif(diags: &[Diagnostic]) -> String {
    let mut rules_seen: Vec<&str> = diags.iter().map(|d| d.rule).collect();
    rules_seen.sort_unstable();
    rules_seen.dedup();
    let rules_json = rules_seen
        .iter()
        .map(|r| format!("{{\"id\":\"{}\"}}", json_esc(r)))
        .collect::<Vec<_>>()
        .join(",");
    let results = diags
        .iter()
        .map(|d| {
            format!(
                "{{\"ruleId\":\"{}\",\"level\":\"error\",\"message\":{{\"text\":\"{}\"}},\
                 \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":\
                 {{\"uri\":\"{}\"}},\"region\":{{\"startLine\":{}}}}}}}]}}",
                json_esc(d.rule),
                json_esc(&d.message),
                json_esc(&norm_path(d)),
                d.line
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":{{\"name\":\"gt-lint\",\
         \"rules\":[{rules_json}]}}}},\"results\":[{results}]}}]}}"
    )
}

/// Render diagnostics as GitHub Actions workflow annotations
/// (`::error file=…,line=…,title=…::message`). The message collapses to
/// one line; the hint rides along after ` — `.
pub fn render_github(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(|d| {
            let text = format!("{} — {}", d.message, d.hint)
                .replace('%', "%25")
                .replace('\r', "%0D")
                .replace('\n', "%0A");
            format!(
                "::error file={},line={},title=gt-lint[{}]::{}",
                norm_path(d),
                d.line,
                d.rule,
                text
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d() -> Diagnostic {
        Diagnostic::new("dead-counter", "crates/x.rs", 7, "says \"hi\"", "drop it")
    }

    #[test]
    fn json_escapes_and_shapes() {
        let s = render_json(&[d()]);
        assert!(s.starts_with('['), "{s}");
        assert!(s.contains("\"rule\":\"dead-counter\""));
        assert!(s.contains("says \\\"hi\\\""));
        assert!(s.trim_end().ends_with(']'));
        assert_eq!(render_json(&[]), "[\n]");
    }

    #[test]
    fn sarif_has_schema_and_result() {
        let s = render_sarif(&[d()]);
        assert!(s.contains("\"version\":\"2.1.0\""));
        assert!(s.contains("\"ruleId\":\"dead-counter\""));
        assert!(s.contains("\"startLine\":7"));
    }

    #[test]
    fn github_annotations_escape_newlines() {
        let mut diag = d();
        diag.message = "line1\nline2".into();
        let s = render_github(&[diag]);
        assert!(s.starts_with("::error file=crates/x.rs,line=7,title=gt-lint[dead-counter]::"));
        assert!(s.contains("line1%0Aline2"));
    }
}
