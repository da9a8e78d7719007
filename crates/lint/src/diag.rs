//! Diagnostics: stable rule identifiers, `file:line:col` rendering and the
//! machine-readable `--json` form.

use std::fmt;

/// The stable rule catalogue. IDs are append-only: a rule may be retired
/// but its number is never reused, so waivers stay meaningful across
/// versions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Iteration over a hash-ordered container in output-affecting code.
    Hl001,
    /// Wall-clock reads (`Instant::now` / `SystemTime`) in output-affecting code.
    Hl002,
    /// `unsafe` not immediately preceded by a `// SAFETY:` comment.
    Hl003,
    /// Direct `env::var` outside the sanctioned env registry.
    Hl004,
    /// `HEP_*` environment-variable name not present in the registry.
    Hl005,
    /// Registered knob never referenced anywhere in the workspace.
    Hl006,
    /// `unwrap()` / `expect(` / `panic!` in library code without a waiver.
    Hl007,
    /// Bench source not registered in the facade `Cargo.toml` (or vice versa).
    Hl008,
    /// Bench `Report` name without a matching `BENCH_<name>.json` (or vice versa).
    Hl009,
    /// Malformed or unknown-rule waiver comment.
    Hl010,
    /// Public library API transitively reaches a panic site or an
    /// unguarded parameter-derived slice index through workspace calls.
    Hl011,
    /// Untrusted data (binary headers, `bytes::*_le_at` decoders, env
    /// reads) reaches a narrowing cast, `with_capacity`, or an index
    /// without passing a checked/total helper.
    Hl012,
    /// Determinism hazard inside a closure passed to a `hep_par` entry
    /// point: non-associative float fold, captured hash-keyed collection
    /// mutation, or order-sensitive atomic RMW.
    Hl013,
    /// `let _ =` discarding a `Result` or `#[must_use]` value in library
    /// code.
    Hl014,
}

/// All rules, in catalogue order.
pub const ALL_RULES: &[Rule] = &[
    Rule::Hl001,
    Rule::Hl002,
    Rule::Hl003,
    Rule::Hl004,
    Rule::Hl005,
    Rule::Hl006,
    Rule::Hl007,
    Rule::Hl008,
    Rule::Hl009,
    Rule::Hl010,
    Rule::Hl011,
    Rule::Hl012,
    Rule::Hl013,
    Rule::Hl014,
];

impl Rule {
    /// The stable textual ID, e.g. `"HL001"`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Hl001 => "HL001",
            Rule::Hl002 => "HL002",
            Rule::Hl003 => "HL003",
            Rule::Hl004 => "HL004",
            Rule::Hl005 => "HL005",
            Rule::Hl006 => "HL006",
            Rule::Hl007 => "HL007",
            Rule::Hl008 => "HL008",
            Rule::Hl009 => "HL009",
            Rule::Hl010 => "HL010",
            Rule::Hl011 => "HL011",
            Rule::Hl012 => "HL012",
            Rule::Hl013 => "HL013",
            Rule::Hl014 => "HL014",
        }
    }

    /// Parses a textual ID back into a rule.
    pub fn from_id(id: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.id() == id)
    }

    /// One-line description used in `--help`-style output and DESIGN.md.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::Hl001 => "hash-ordered iteration in output-affecting code",
            Rule::Hl002 => "wall-clock read in output-affecting code",
            Rule::Hl003 => "unsafe without an immediately preceding SAFETY comment",
            Rule::Hl004 => "environment read bypassing hep_core::config::env_registry",
            Rule::Hl005 => "HEP_* name not present in the env registry",
            Rule::Hl006 => "registered env knob never referenced in the workspace",
            Rule::Hl007 => "unwrap/expect/panic! in library code without a waiver",
            Rule::Hl008 => "bench file and facade Cargo.toml [[bench]] list disagree",
            Rule::Hl009 => "bench Report name and BENCH_*.json artifacts disagree",
            Rule::Hl010 => "malformed hep-lint waiver comment",
            Rule::Hl011 => {
                "public API transitively reaches a panic or unguarded param-derived index"
            }
            Rule::Hl012 => "untrusted data reaches a narrowing cast, capacity, or index unchecked",
            Rule::Hl013 => "determinism hazard in a closure passed to a hep_par entry point",
            Rule::Hl014 => "`let _ =` swallows a Result or #[must_use] value in library code",
        }
    }

    /// Full rationale and waiver policy, printed by `--explain HLxxx`.
    /// The first line is always `HLxxx — <summary>`; DESIGN.md §8 carries
    /// the same IDs and summaries (drift-tested).
    pub fn explain(self) -> String {
        let body = match self {
            Rule::Hl001 => {
                "\
Hash-ordered iteration in an output-affecting crate can leak memory-layout\n\
order into the partition assignment, breaking the bit-identical-output\n\
invariant. Collect and sort, use a BTreeMap, or iterate a stable index.\n\
Waive only with a proof that the observed order cannot reach any output\n\
(e.g. the values are folded with a commutative, associative operation)."
            }
            Rule::Hl002 => {
                "\
Wall-clock reads in output-affecting code can steer partitioning decisions,\n\
making output depend on machine speed. Timing belongs in bench harnesses\n\
and reports. Waive measurement-only sites whose readings provably never\n\
feed back into an assignment decision."
            }
            Rule::Hl003 => {
                "\
Every `unsafe` block or function must carry its proof obligation as a\n\
`// SAFETY:` comment trailing the line or immediately above it. There is\n\
no waiver for this rule's spirit: write the proof. (The rule itself can be\n\
waived for tokens like `unsafe` appearing in prose-bearing code.)"
            }
            Rule::Hl004 => {
                "\
`std::env::var` outside `hep_ds::env_registry::read` bypasses knob\n\
registration, so the knob is invisible to bench-report provenance and the\n\
README knob table. Read knobs through the registry. Waive only inside the\n\
registry's own implementation or bootstrap code that provably runs before\n\
the registry exists."
            }
            Rule::Hl005 => {
                "\
A `HEP_*` string literal that is not a registered knob is either a typo or\n\
an undocumented knob; both undermine the env-registry contract. Register\n\
the name in `hep_ds::env_registry::KNOBS` or fix the spelling. Waive only\n\
for strings that merely *resemble* knob names (e.g. documentation prose)."
            }
            Rule::Hl006 => {
                "\
A registered knob that no workspace code references is dead documentation:\n\
the README table advertises a control that does nothing. Wire the knob up\n\
or remove the registration. Waivers are not applicable (the fix is always\n\
one of those two)."
            }
            Rule::Hl007 => {
                "\
`unwrap()`, `expect(…)` and `panic!` in library code turn recoverable\n\
conditions into aborts. Return a typed error, use a total helper\n\
(`hep_ds::sync`, `hep_ds::bytes`), or waive with the one-line invariant\n\
that makes the panic impossible (\"heap is non-empty: pushed above\")."
            }
            Rule::Hl008 => {
                "\
Every bench source must be a `[[bench]]` target in the facade Cargo.toml\n\
and vice versa; a drifted registration silently drops a bench from CI.\n\
Fix the manifest. Waivers are not applicable."
            }
            Rule::Hl009 => {
                "\
Each bench emits exactly one uniquely-named `Report::new(…)`; the\n\
BENCH_<name>.json artifact name derives from it. Collisions clobber\n\
another bench's report, orphan artifacts are stale outputs. Fix the name.\n\
Waivers are not applicable."
            }
            Rule::Hl010 => {
                "\
A malformed waiver (bad syntax, unknown rule, missing ` -- reason`) would\n\
silently fail to apply; that is worse than no waiver. Fix the waiver\n\
comment. HL010 is itself unwaivable."
            }
            Rule::Hl011 => {
                "\
A public library API must not panic on caller-supplied input: neither by\n\
transitively reaching an unwaived `unwrap`/`expect`/`panic!` through\n\
workspace calls, nor by letting a parameter-derived value select a slice\n\
index with no visible guard (a `len()`/`is_empty()` mention of the\n\
receiver, a comparison/`min`/`clamp`/`%` on the index, or an assert).\n\
Guard the index, propagate a typed error, or waive with the contract that\n\
makes out-of-range input impossible (\"fail-fast by contract: callers\n\
validate length\"). Waivers anchor at the reported site: the index site\n\
for parameter flows, the public fn for transitive panics."
            }
            Rule::Hl012 => {
                "\
Values decoded from untrusted bytes (`hep_ds::bytes::u32_le_at`-style\n\
decoders, binary-file headers) or read from the environment must pass a\n\
checked/total step (`try_from`/`try_into`, `checked_*`, `parse`, `min`/\n\
`clamp`, or a comparison guard) before reaching an `as` narrowing cast,\n\
`Vec::with_capacity`/`vec![…; n]`, or a slice index. A forged header\n\
field must produce a typed error, not a huge allocation or a wrapped\n\
cast. Waive only when the value is provably bounded upstream of the\n\
reported site."
            }
            Rule::Hl013 => {
                "\
Closures passed to `hep_par::{par_map, par_reduce, par_chunks,\n\
par_for_each, …}` must keep output bit-identical at any thread\n\
count: no non-associative float folding in a reduce, no mutation of a\n\
captured hash-keyed collection, no order-sensitive atomic RMW (`swap`,\n\
`compare_exchange`, `fetch_update`). Commutative RMW (`fetch_add`,\n\
`fetch_min`) is fine. Waive with the determinism proof (\"chunk\n\
boundaries are thread-count-invariant and the fold is chunk-ordered\")."
            }
            Rule::Hl014 => {
                "\
`let _ = …` silences the unused-Result warning and swallows the error\n\
path. Handle the Result, propagate it, or waive with the reason the\n\
outcome is genuinely irrelevant (\"both race outcomes converge to the\n\
same state\"). Applies to workspace fns returning Result or marked\n\
#[must_use], plus well-known fallible std methods."
            }
        };
        format!("{} — {}\n\n{}\n", self.id(), self.summary(), body)
    }
}

/// One finding: where, which rule, and a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path (`/`-separated on every platform).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Violated rule.
    pub rule: Rule,
    /// Explanation, specific to the site.
    pub msg: String,
}

impl Diagnostic {
    /// Sort key giving a deterministic report order.
    pub fn sort_key(&self) -> (String, u32, u32, Rule) {
        (self.file.clone(), self.line, self.col, self.rule)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}: {}: {}", self.file, self.line, self.col, self.rule.id(), self.msg)
    }
}

/// Escapes a string for inclusion in a JSON document. Shared with the
/// SARIF emitter.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the full diagnostic list as a stable JSON document. Hand-rolled
/// because the container is offline (no serde); the schema is small and
/// covered by tests.
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\n  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&d.file),
            d.line,
            d.col,
            d.rule.id(),
            json_escape(&d.msg)
        ));
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!("],\n  \"count\": {}\n}}\n", diags.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for &r in ALL_RULES {
            assert_eq!(Rule::from_id(r.id()), Some(r));
        }
        assert_eq!(Rule::from_id("HL999"), None);
        assert_eq!(Rule::from_id("hl001"), None, "IDs are case-sensitive");
    }

    #[test]
    fn display_is_clickable() {
        let d = Diagnostic {
            file: "crates/core/src/hep.rs".into(),
            line: 12,
            col: 5,
            rule: Rule::Hl007,
            msg: "`.unwrap()` in library code".into(),
        };
        assert_eq!(
            d.to_string(),
            "crates/core/src/hep.rs:12:5: HL007: `.unwrap()` in library code"
        );
    }

    #[test]
    fn json_escapes_and_counts() {
        let diags = vec![Diagnostic {
            file: "a.rs".into(),
            line: 1,
            col: 2,
            rule: Rule::Hl005,
            msg: "name \"HEP_X\"\nnot registered".into(),
        }];
        let json = to_json(&diags);
        assert!(json.contains("\\\"HEP_X\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("\"count\": 1"));
        let empty = to_json(&[]);
        assert!(empty.contains("\"count\": 0"));
        assert!(empty.contains("\"diagnostics\": []"));
    }
}
