//! The ordering-minimization audit: machine-readable verdicts for every
//! `Ordering::` site that the bounded model-checking suites can reach.
//!
//! `crates/check`'s `ordering_audit` binary re-runs the relevant bounded
//! suites with each site weakened one step down the ladder
//! (`SeqCst → AcqRel → Acquire/Release → Relaxed`, in both SC and x86-TSO
//! store-buffer modes) and writes one `[[verdict]]` per site group to
//! `ORDERING_VERDICTS.toml`:
//!
//! - `required` — some one-step-weaker candidate was refuted (an assertion
//!   or race fired), so the declared ordering is load-bearing at the
//!   explored bounds.
//! - `weakenable` — every one-step-weaker candidate survived exhaustive
//!   bounded exploration; the site is a minimization candidate and must be
//!   either weakened (and re-proved) or kept with a justification in
//!   `MINIMIZE.toml`.
//! - `minimal` — already `Relaxed`; there is nothing weaker to try.
//! - `unexercised` — no covering suite ever executed the site, so the
//!   audit proved nothing; this is a hard failure (grow a suite or drop
//!   the site from [`COVERED_FILES`]).
//!
//! This module cross-checks the committed verdicts against the live tree:
//! every site group in a covered file needs a fresh verdict, stale
//! verdicts must go, and `weakenable` verdicts must be justified.

use crate::manifest::SiteKey;
use crate::model::{Finding, Rule, SourceFile};
use crate::toml::{self, quote};
use std::collections::BTreeMap;

/// Files whose ordering sites are reachable from the `crates/check`
/// bounded suites (the `#[path]`-included model-checked sources). Sites
/// elsewhere (e.g. the runtime's worker loop) have no bounded harness and
/// are out of the audit's scope.
pub const COVERED_FILES: &[&str] = &[
    "crates/deque/src/chase_lev.rs",
    "crates/deque/src/fence_free.rs",
    "crates/deque/src/pool.rs",
    "crates/deque/src/signal.rs",
    "crates/deque/src/the.rs",
    "crates/runtime/src/join.rs",
    "crates/runtime/src/submit.rs",
    "crates/strategy/src/controller.rs",
];

/// Name of the verdict report at the workspace root.
pub const VERDICTS_FILE: &str = "ORDERING_VERDICTS.toml";

/// Name of the weakenable-justification file at the workspace root.
pub const MINIMIZE_FILE: &str = "MINIMIZE.toml";

/// The verdict classes the audit binary may emit.
pub const VERDICT_KINDS: &[&str] = &["required", "weakenable", "minimal", "unexercised"];

/// One `[[verdict]]` from `ORDERING_VERDICTS.toml`.
#[derive(Debug, Clone)]
pub struct VerdictEntry {
    /// Site identity (same key space as `ORDERINGS.toml`).
    pub key: SiteKey,
    /// `required` | `weakenable` | `minimal` | `unexercised`.
    pub verdict: String,
    /// Number of times the site group executed in the baseline run.
    pub exercised: u64,
    /// Comma-separated covering suite names.
    pub suites: String,
    /// Human-readable evidence (which candidate failed how, or why not).
    pub detail: String,
    /// Line of the entry header in the verdicts file.
    pub line: u32,
}

/// One `[[keep]]` from `MINIMIZE.toml`: a deliberately-unweakened site.
#[derive(Debug, Clone)]
pub struct MinimizeEntry {
    /// Site identity.
    pub key: SiteKey,
    /// Why the stronger ordering is kept despite the `weakenable` verdict.
    pub why: String,
    /// Line of the entry header in `MINIMIZE.toml`.
    pub line: u32,
}

fn parse_key(t: &toml::Table, file_name: &str, findings: &mut Vec<Finding>) -> Option<SiteKey> {
    let file = t.get_str("file").unwrap_or_default().to_string();
    let symbol = t.get_str("symbol").unwrap_or_default().to_string();
    let ordering = t.get_str("ordering").unwrap_or_default().to_string();
    if file.is_empty() || symbol.is_empty() || ordering.is_empty() {
        findings.push(Finding {
            file: file_name.to_string(),
            line: t.line,
            col: 1,
            rule: Rule::Verdict,
            msg: "entry must set `file`, `symbol` and `ordering`".to_string(),
        });
        return None;
    }
    Some(SiteKey {
        file,
        symbol,
        ordering,
    })
}

/// Parse `ORDERING_VERDICTS.toml`. Structural problems become findings.
pub fn parse_verdicts(text: &str, findings: &mut Vec<Finding>) -> Vec<VerdictEntry> {
    let tables = match toml::parse(text) {
        Ok(t) => t,
        Err(e) => {
            findings.push(Finding {
                file: VERDICTS_FILE.to_string(),
                line: e.line,
                col: 1,
                rule: Rule::Verdict,
                msg: format!("parse error: {}", e.msg),
            });
            return Vec::new();
        }
    };
    let mut entries = Vec::new();
    for t in tables {
        if t.name != "verdict" {
            findings.push(Finding {
                file: VERDICTS_FILE.to_string(),
                line: t.line,
                col: 1,
                rule: Rule::Verdict,
                msg: format!("unknown table `[[{}]]` (expected `[[verdict]]`)", t.name),
            });
            continue;
        }
        let Some(key) = parse_key(&t, VERDICTS_FILE, findings) else {
            continue;
        };
        let verdict = t.get_str("verdict").unwrap_or_default().to_string();
        if !VERDICT_KINDS.contains(&verdict.as_str()) {
            findings.push(Finding {
                file: VERDICTS_FILE.to_string(),
                line: t.line,
                col: 1,
                rule: Rule::Verdict,
                msg: format!(
                    "unknown verdict `{verdict}` (expected one of {})",
                    VERDICT_KINDS.join(", ")
                ),
            });
            continue;
        }
        entries.push(VerdictEntry {
            key,
            verdict,
            exercised: t.get_int("exercised").unwrap_or(0),
            suites: t.get_str("suites").unwrap_or_default().to_string(),
            detail: t.get_str("detail").unwrap_or_default().to_string(),
            line: t.line,
        });
    }
    entries
}

/// Parse `MINIMIZE.toml`. Structural problems become findings.
pub fn parse_minimize(text: &str, findings: &mut Vec<Finding>) -> Vec<MinimizeEntry> {
    let tables = match toml::parse(text) {
        Ok(t) => t,
        Err(e) => {
            findings.push(Finding {
                file: MINIMIZE_FILE.to_string(),
                line: e.line,
                col: 1,
                rule: Rule::Minimize,
                msg: format!("parse error: {}", e.msg),
            });
            return Vec::new();
        }
    };
    let mut entries = Vec::new();
    for t in tables {
        if t.name != "keep" {
            findings.push(Finding {
                file: MINIMIZE_FILE.to_string(),
                line: t.line,
                col: 1,
                rule: Rule::Minimize,
                msg: format!("unknown table `[[{}]]` (expected `[[keep]]`)", t.name),
            });
            continue;
        }
        let Some(key) = parse_key(&t, MINIMIZE_FILE, findings) else {
            continue;
        };
        entries.push(MinimizeEntry {
            key,
            why: t.get_str("why").unwrap_or_default().to_string(),
            line: t.line,
        });
    }
    entries
}

/// Cross-check the committed verdicts (and `MINIMIZE.toml`) against the
/// `Ordering::` sites observed in the tree.
///
/// Hard failures: a covered site group with no verdict, a verdict for a
/// site that no longer exists, an `unexercised` verdict, a `weakenable`
/// verdict with neither an applied weakening nor a justified
/// `MINIMIZE.toml` entry, and stale or unjustified `MINIMIZE.toml`
/// entries.
pub fn check(
    sites: &BTreeMap<SiteKey, Vec<u32>>,
    verdicts: &[VerdictEntry],
    minimize: &[MinimizeEntry],
    findings: &mut Vec<Finding>,
) {
    let by_key: BTreeMap<&SiteKey, &VerdictEntry> = verdicts.iter().map(|v| (&v.key, v)).collect();
    let kept: BTreeMap<&SiteKey, &MinimizeEntry> = minimize.iter().map(|m| (&m.key, m)).collect();

    for (key, lines) in sites {
        if !COVERED_FILES.contains(&key.file.as_str()) {
            continue;
        }
        let Some(v) = by_key.get(key) else {
            findings.push(Finding {
                file: key.file.clone(),
                line: lines[0],
                col: 1,
                rule: Rule::Verdict,
                msg: format!(
                    "Ordering::{} in `{}` has no {VERDICTS_FILE} entry; run `cargo run -p adaptivetc-check --bin ordering_audit`",
                    key.ordering, key.symbol
                ),
            });
            continue;
        };
        match v.verdict.as_str() {
            "unexercised" => findings.push(Finding {
                file: key.file.clone(),
                line: lines[0],
                col: 1,
                rule: Rule::Verdict,
                msg: format!(
                    "Ordering::{} in `{}` is unexercised: no bounded suite reaches it — add coverage or drop the file from the audit scope",
                    key.ordering, key.symbol
                ),
            }),
            "weakenable" => match kept.get(key) {
                None => findings.push(Finding {
                    file: key.file.clone(),
                    line: lines[0],
                    col: 1,
                    rule: Rule::Minimize,
                    msg: format!(
                        "Ordering::{} in `{}` is weakenable at the explored bounds: weaken it (and re-run the audit) or justify keeping it in {MINIMIZE_FILE} (`--orderings-verify --bless` writes the skeleton)",
                        key.ordering, key.symbol
                    ),
                }),
                Some(m) if m.why.trim().is_empty() || m.why.trim_start().starts_with("TODO") => {
                    findings.push(Finding {
                        file: MINIMIZE_FILE.to_string(),
                        line: m.line,
                        col: 1,
                        rule: Rule::Minimize,
                        msg: format!(
                            "entry for {} `{}` Ordering::{} has no justification (`why`)",
                            key.file, key.symbol, key.ordering
                        ),
                    });
                }
                Some(_) => {}
            },
            _ => {}
        }
    }

    for v in verdicts {
        if !sites.contains_key(&v.key) {
            findings.push(Finding {
                file: VERDICTS_FILE.to_string(),
                line: v.line,
                col: 1,
                rule: Rule::Verdict,
                msg: format!(
                    "stale verdict: {} `{}` Ordering::{} no longer exists in the tree — re-run the audit",
                    v.key.file, v.key.symbol, v.key.ordering
                ),
            });
        }
    }

    for m in minimize {
        let still_weakenable = by_key
            .get(&m.key)
            .is_some_and(|v| v.verdict == "weakenable");
        if !still_weakenable {
            findings.push(Finding {
                file: MINIMIZE_FILE.to_string(),
                line: m.line,
                col: 1,
                rule: Rule::Minimize,
                msg: format!(
                    "stale entry: {} `{}` Ordering::{} has no `weakenable` verdict any more",
                    m.key.file, m.key.symbol, m.key.ordering
                ),
            });
        }
    }
}

/// Render `ORDERING_VERDICTS.toml` from audit results (used by the
/// `ordering_audit` binary so the file format lives next to its parser).
pub fn render_verdicts(entries: &[VerdictEntry]) -> String {
    let mut sorted: Vec<&VerdictEntry> = entries.iter().collect();
    sorted.sort_by(|a, b| a.key.cmp(&b.key));
    let mut out = String::new();
    out.push_str(
        "# ORDERING_VERDICTS.toml — machine-written by the ordering-minimization audit.\n\
         #\n\
         # One [[verdict]] per (file, symbol, ordering) group in the audit's\n\
         # covered files. Regenerate with:\n\
         #   cargo run -p adaptivetc-check --bin ordering_audit\n\
         # (check-shim build; see DESIGN.md §16 for verdict semantics).\n\
         # `cargo run -p adaptivetc-lint -- --orderings-verify` cross-checks\n\
         # this file against the live tree and fails on unexercised or\n\
         # unjustified-weakenable sites. Do not edit by hand.\n",
    );
    let mut last_file = String::new();
    for v in sorted {
        if v.key.file != last_file {
            out.push_str(&format!("\n# ---- {} ----\n", v.key.file));
            last_file = v.key.file.clone();
        }
        out.push('\n');
        out.push_str("[[verdict]]\n");
        out.push_str(&format!("file = {}\n", quote(&v.key.file)));
        out.push_str(&format!("symbol = {}\n", quote(&v.key.symbol)));
        out.push_str(&format!("ordering = {}\n", quote(&v.key.ordering)));
        out.push_str(&format!("verdict = {}\n", quote(&v.verdict)));
        out.push_str(&format!("exercised = {}\n", v.exercised));
        out.push_str(&format!("suites = {}\n", quote(&v.suites)));
        out.push_str(&format!("detail = {}\n", quote(&v.detail)));
    }
    out
}

/// Render a fresh `MINIMIZE.toml` holding one `[[keep]]` skeleton per
/// `weakenable` verdict, preserving existing justifications by key.
pub fn render_minimize(verdicts: &[VerdictEntry], old: &[MinimizeEntry]) -> String {
    let old_why: BTreeMap<&SiteKey, &str> = old
        .iter()
        .filter(|m| !m.why.trim().is_empty())
        .map(|m| (&m.key, m.why.as_str()))
        .collect();
    let mut weak: Vec<&VerdictEntry> = verdicts
        .iter()
        .filter(|v| v.verdict == "weakenable")
        .collect();
    weak.sort_by(|a, b| a.key.cmp(&b.key));
    let mut out = String::new();
    out.push_str(
        "# MINIMIZE.toml — justified decisions to KEEP orderings the audit\n\
         # proved weakenable at the explored bounds.\n\
         #\n\
         # One [[keep]] per `weakenable` verdict in ORDERING_VERDICTS.toml.\n\
         # `why` must say what the bounded exploration cannot see (larger\n\
         # thread counts, unbounded preemptions, non-TSO targets, ...) that\n\
         # makes the stronger ordering worth its cost. Regenerate skeletons\n\
         # (preserving justifications) with:\n\
         #   cargo run -p adaptivetc-lint -- --orderings-verify --bless\n",
    );
    for v in weak {
        out.push('\n');
        out.push_str("[[keep]]\n");
        out.push_str(&format!("file = {}\n", quote(&v.key.file)));
        out.push_str(&format!("symbol = {}\n", quote(&v.key.symbol)));
        out.push_str(&format!("ordering = {}\n", quote(&v.key.ordering)));
        let why = old_why.get(&v.key).copied().unwrap_or("");
        out.push_str(&format!("why = {}\n", quote(why)));
    }
    out
}

/// Collect the ordering sites of the covered files only — what the audit
/// binary iterates. Sites inside `#[cfg(test)]` context are dropped:
/// the bounded scenarios run the *product* protocol paths, and a unit
/// test's own atomics are exercised by that unit test, not the audit.
pub fn covered_sites(files: &[SourceFile]) -> BTreeMap<SiteKey, Vec<u32>> {
    let mut map = BTreeMap::new();
    for f in files {
        if !COVERED_FILES.contains(&f.rel.as_str()) {
            continue;
        }
        for (key, lines) in crate::manifest::collect_sites(std::slice::from_ref(f)) {
            let live: Vec<u32> = lines.into_iter().filter(|&l| !f.spans.in_test(l)).collect();
            if !live.is_empty() {
                map.insert(key, live);
            }
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(ordering: &str) -> SiteKey {
        SiteKey {
            file: "crates/deque/src/the.rs".to_string(),
            symbol: "steal".to_string(),
            ordering: ordering.to_string(),
        }
    }

    fn verdict(ordering: &str, kind: &str) -> VerdictEntry {
        VerdictEntry {
            key: key(ordering),
            verdict: kind.to_string(),
            exercised: 4,
            suites: "the_protocol".to_string(),
            detail: "d".to_string(),
            line: 1,
        }
    }

    #[test]
    fn missing_verdict_and_unexercised_are_hard_failures() {
        let mut sites = BTreeMap::new();
        sites.insert(key("SeqCst"), vec![10]);
        sites.insert(key("Acquire"), vec![20]);
        let verdicts = vec![verdict("Acquire", "unexercised")];
        let mut findings = Vec::new();
        check(&sites, &verdicts, &[], &mut findings);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings
            .iter()
            .any(|f| f.msg.contains("no ORDERING_VERDICTS.toml entry")));
        assert!(findings.iter().any(|f| f.msg.contains("unexercised")));
    }

    #[test]
    fn weakenable_requires_justified_keep() {
        let mut sites = BTreeMap::new();
        sites.insert(key("SeqCst"), vec![10]);
        let verdicts = vec![verdict("SeqCst", "weakenable")];
        let mut findings = Vec::new();
        check(&sites, &verdicts, &[], &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].msg.contains("weakenable"));

        let keep = MinimizeEntry {
            key: key("SeqCst"),
            why: "paper's proof assumes SC for this edge".to_string(),
            line: 3,
        };
        findings.clear();
        check(&sites, &verdicts, &[keep], &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn stale_verdict_and_stale_keep_are_flagged() {
        let sites = BTreeMap::new();
        let verdicts = vec![verdict("SeqCst", "required")];
        let keep = MinimizeEntry {
            key: key("Relaxed"),
            why: "w".to_string(),
            line: 9,
        };
        let mut findings = Vec::new();
        check(&sites, &verdicts, &[keep], &mut findings);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().any(|f| f.msg.contains("stale verdict")));
        assert!(findings.iter().any(|f| f.msg.contains("stale entry")));
    }

    #[test]
    fn minimize_roundtrip_preserves_why() {
        let verdicts = vec![verdict("SeqCst", "weakenable")];
        let old = vec![MinimizeEntry {
            key: key("SeqCst"),
            why: "kept for portability".to_string(),
            line: 1,
        }];
        let text = render_minimize(&verdicts, &old);
        let mut findings = Vec::new();
        let back = parse_minimize(&text, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].why, "kept for portability");
    }

    #[test]
    fn verdicts_roundtrip() {
        let entries = vec![verdict("SeqCst", "required"), verdict("Relaxed", "minimal")];
        let text = render_verdicts(&entries);
        let mut findings = Vec::new();
        let back = parse_verdicts(&text, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(back.len(), 2);
        assert!(back
            .iter()
            .any(|v| v.verdict == "required" && v.exercised == 4));
    }
}
