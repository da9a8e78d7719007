//! The workspace's environment-knob registry: the single sanctioned
//! gateway to process-environment configuration.
//!
//! Every knob the workspace reads from the environment is declared here —
//! name, default, one-line effect, and the PR that introduced it — and
//! every read goes through [`read`]. `hep-lint` enforces both directions
//! statically (rules `HL004`–`HL006`): a raw `std::env::var` call outside
//! this module is an error, a `HEP_*` name literal that is not registered
//! is an error, and a registered knob that no code ever reads is an error.
//! That keeps the README knob table, the bench reports' environment block
//! (which iterates [`KNOBS`]), and the code that actually honors each
//! knob from drifting apart.
//!
//! The registry lives in `hep-ds` because it must sit below every reader
//! (`hep-par` reads `HEP_THREADS`, `hep-graph` reads `HEP_IO_MODE`);
//! `hep_core::config::env_registry` re-exports it at the path user-facing
//! documentation uses.

/// One registered environment knob.
#[derive(Clone, Copy, Debug)]
pub struct EnvKnob {
    /// The environment variable name (`HEP_*` for runtime knobs).
    pub name: &'static str,
    /// Human-readable default when the variable is unset.
    pub default: &'static str,
    /// One-line description of the knob's effect.
    pub doc: &'static str,
    /// The PR that introduced the knob.
    pub since: &'static str,
}

/// Every environment variable the workspace reads, in documentation order.
/// The bench reports' environment block and the README knob table are both
/// generated from this list.
pub const KNOBS: &[EnvKnob] = &[
    EnvKnob {
        name: "HEP_THREADS",
        default: "available parallelism",
        doc: "Worker count of the deterministic thread pool; output is bit-identical at any value",
        since: "PR 2",
    },
    EnvKnob {
        name: "HEP_IO_MODE",
        default: "auto",
        doc: "HEPB pass backend: buffered reads or zero-copy mmap (bit-identical output)",
        since: "PR 6",
    },
    EnvKnob {
        name: "HEP_MEMORY_BUDGET",
        default: "unbounded",
        doc: "Ingestion memory budget in bytes (K/M/G suffixes); the planner fits sweeps, then τ",
        since: "PR 6",
    },
    EnvKnob {
        name: "HEP_KERNEL",
        default: "auto",
        doc: "Bitset kernel dispatch: scalar|avx2|auto (bit-identical at any instruction set)",
        since: "PR 7",
    },
    EnvKnob {
        name: "HEP_SCALE",
        default: "1",
        doc: "Dataset scale factor of the bench harness's synthetic Table 3 analogs",
        since: "PR 1",
    },
    EnvKnob {
        name: "PROPTEST_SEED",
        default: "test-name derived",
        doc: "Base seed of the vendored proptest stand-in's deterministic case generator",
        since: "PR 1",
    },
];

/// Looks up a registered knob by name.
pub fn knob(name: &str) -> Option<&'static EnvKnob> {
    KNOBS.iter().find(|k| k.name == name)
}

/// Whether `name` is a registered knob.
pub fn is_registered(name: &str) -> bool {
    knob(name).is_some()
}

/// Reads a registered knob from the process environment. This is the
/// workspace's only sanctioned `std::env::var` call site; passing an
/// unregistered name is a programming error that `hep-lint` rejects
/// statically (and a debug assertion rejects at runtime).
pub fn read(name: &str) -> Option<String> {
    debug_assert!(is_registered(name), "unregistered environment knob {name:?}");
    // hep-lint: allow(HL004) -- the registry itself is the single sanctioned env::var gateway
    std::env::var(name).ok()
}

/// Renders [`KNOBS`] as the README's Markdown knob table. The README
/// embeds this output between `<!-- knob-table -->` markers, and a test
/// fails when the two drift apart — the table is generated, never
/// hand-edited.
pub fn markdown_table() -> String {
    let esc = |s: &str| s.replace('|', "\\|");
    let mut out = String::from("| Variable | Default | Effect | Since |\n|---|---|---|---|\n");
    for k in KNOBS {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            k.name,
            esc(k.default),
            esc(k.doc),
            k.since
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_well_formed() {
        for (i, k) in KNOBS.iter().enumerate() {
            assert!(
                k.name.bytes().all(|b| b.is_ascii_uppercase() || b == b'_' || b.is_ascii_digit()),
                "knob name {:?} is not SCREAMING_SNAKE_CASE",
                k.name
            );
            assert!(!k.doc.is_empty() && !k.default.is_empty() && !k.since.is_empty());
            assert!(
                KNOBS[..i].iter().all(|prev| prev.name != k.name),
                "duplicate knob {:?}",
                k.name
            );
        }
    }

    #[test]
    fn lookup_and_read_registered() {
        assert!(is_registered("HEP_THREADS"));
        assert!(!is_registered("HEP_NOT_A_KNOB"));
        assert_eq!(knob("HEP_KERNEL").map(|k| k.since), Some("PR 7"));
        // The suite must not depend on ambient configuration here beyond
        // "reading a registered knob does not panic".
        let _ = read("HEP_SCALE");
    }

    #[test]
    #[should_panic(expected = "unregistered environment knob")]
    #[cfg(debug_assertions)]
    fn read_rejects_unregistered_names() {
        let _ = read("HEP_NOT_A_KNOB");
    }
}
