//! The workspace allowlist for justified lint suppressions.
//!
//! Suppressing a violation takes *two* coordinated artifacts:
//!
//! 1. an inline `// lint: allow(<rule>)` marker on the offending line, and
//! 2. a registration here — one line per file/rule pair in
//!    `crates/xtask/allow.list`, carrying the justification.
//!
//! The checker reconciles the two directions: a marker with no
//! registration is an `allow_unlisted` violation, and a registration whose
//! file no longer carries a marker is `allow_stale`. This keeps the
//! allowlist an accurate, reviewed inventory of every sanctioned
//! exception.

use crate::rules::{InlineAllow, Rule, Violation};

/// One registered exception: a file/rule pair plus its justification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    /// The rule being allowed in that file.
    pub rule: Rule,
    /// Free-text reason recorded for reviewers.
    pub reason: String,
    /// 1-based line in `allow.list` (for error reporting).
    pub line: usize,
}

/// Parses the allowlist text.
///
/// Format: one entry per line, `<path> <rule> <reason…>`; blank lines and
/// `#` comments are skipped. Malformed lines are returned as violations
/// against the allowlist file itself.
#[must_use]
pub fn parse(text: &str, list_path: &str) -> (Vec<Entry>, Vec<Violation>) {
    let mut entries = Vec::new();
    let mut violations = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        let file = parts.next().unwrap_or("").to_owned();
        let rule_key = parts.next().unwrap_or("");
        let reason = parts.next().unwrap_or("").trim().to_owned();
        match Rule::from_key(rule_key) {
            Some(rule) if !reason.is_empty() => entries.push(Entry {
                file,
                rule,
                reason,
                line: i + 1,
            }),
            Some(_) => violations.push(Violation {
                rule: Rule::AllowStale,
                file: list_path.to_owned(),
                line: i + 1,
                message: "allowlist entry has no justification text".to_owned(),
            }),
            None => violations.push(Violation {
                rule: Rule::AllowStale,
                file: list_path.to_owned(),
                line: i + 1,
                message: format!("unknown rule `{rule_key}` in allowlist"),
            }),
        }
    }
    (entries, violations)
}

/// Cross-checks inline markers against registrations.
///
/// Returns `allow_unlisted` for markers without a registration and
/// `allow_stale` for registrations without a marker.
#[must_use]
pub fn reconcile(entries: &[Entry], allows: &[InlineAllow], list_path: &str) -> Vec<Violation> {
    let mut violations = Vec::new();
    for allow in allows {
        let registered = entries
            .iter()
            .any(|e| e.file == allow.file && e.rule == allow.rule);
        if !registered {
            violations.push(Violation {
                rule: Rule::AllowUnlisted,
                file: allow.file.clone(),
                line: allow.line,
                message: format!(
                    "inline `lint: allow({})` is not registered in {list_path}",
                    allow.rule.key()
                ),
            });
        }
    }
    for entry in entries {
        let used = allows
            .iter()
            .any(|a| a.file == entry.file && a.rule == entry.rule);
        if !used {
            violations.push(Violation {
                rule: Rule::AllowStale,
                file: list_path.to_owned(),
                line: entry.line,
                message: format!(
                    "stale allowlist entry: {} no longer carries `lint: allow({})`",
                    entry.file,
                    entry.rule.key()
                ),
            });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_and_comments() {
        let text = "# comment\n\ncrates/a/src/lib.rs float_eq structurally valid\n";
        let (entries, violations) = parse(text, "allow.list");
        assert_eq!(entries.len(), 1);
        assert!(violations.is_empty());
        assert_eq!(entries[0].rule, Rule::FloatEq);
        assert_eq!(entries[0].reason, "structurally valid");
    }

    #[test]
    fn rejects_missing_reason_and_unknown_rule() {
        let (entries, violations) = parse("a.rs float_eq\nb.rs bogus_rule why\n", "allow.list");
        assert!(entries.is_empty());
        assert_eq!(violations.len(), 2);
    }

    #[test]
    fn reconcile_finds_unlisted_and_stale() {
        let entries = vec![Entry {
            file: "a.rs".into(),
            rule: Rule::FloatEq,
            reason: "ok".into(),
            line: 1,
        }];
        let allows = vec![InlineAllow {
            file: "b.rs".into(),
            line: 3,
            rule: Rule::FloatEq,
        }];
        let violations = reconcile(&entries, &allows, "allow.list");
        assert_eq!(violations.len(), 2);
        assert!(violations.iter().any(|v| v.rule == Rule::AllowUnlisted));
        assert!(violations.iter().any(|v| v.rule == Rule::AllowStale));
    }

    #[test]
    fn matched_pairs_are_clean() {
        let entries = vec![Entry {
            file: "a.rs".into(),
            rule: Rule::FloatEq,
            reason: "ok".into(),
            line: 1,
        }];
        let allows = vec![InlineAllow {
            file: "a.rs".into(),
            line: 9,
            rule: Rule::FloatEq,
        }];
        assert!(reconcile(&entries, &allows, "allow.list").is_empty());
    }
}
