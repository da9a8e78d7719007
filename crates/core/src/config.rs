//! HEP configuration.

use hep_graph::IoMode;

/// The workspace environment-knob registry (defined in
/// [`hep_ds::env_registry`], re-exported here as the documented path).
/// Every `HEP_*` default below resolves through [`env_registry::read`];
/// `hep-lint` rejects raw `std::env::var` calls and unregistered names.
pub use hep_ds::env_registry;

/// Tunables of a HEP run. The paper's evaluated configurations are
/// `tau ∈ {100, 10, 1}` with HDRF defaults for the streaming phase.
#[derive(Clone, Debug)]
pub struct HepConfig {
    /// Degree threshold factor τ (§3.1): `v` is high-degree iff
    /// `d(v) > τ · mean_degree`.
    pub tau: f64,
    /// Hard balance cap factor α of the streaming phase (§2, Algorithm 4).
    pub alpha: f64,
    /// HDRF balance weight λ (Appendix A: 1.1).
    pub lambda: f64,
    /// Record the NE++ column-array access trace (for the paging simulator
    /// of §5.5). Off by default: it costs memory proportional to |E|.
    pub record_trace: bool,
    /// Seed the streaming phase with NE++'s partitioning state (§3.3).
    /// Disabling this is an ablation: the h2h edges are then streamed with
    /// plain HDRF state (empty replica sets, zero loads), re-creating the
    /// "uninformed assignment problem" the hybrid design removes.
    pub informed_streaming: bool,
    /// Kept only for source compatibility with callers that name every
    /// field; must be `1`. The sub-partitioned ("split") NE++ path it
    /// selected was removed after losing to serial NE++ on both run-time
    /// and replication factor (EXPERIMENTS.md), and [`HepConfig::validate`]
    /// rejects any other value instead of silently ignoring it.
    pub split_factor: u32,
    /// Kept only for source compatibility; must be `false`. It gated the
    /// removed split NE++ path; [`HepConfig::validate`] rejects `true`.
    pub parallel_nepp: bool,
    /// Kept only for source compatibility; must be `0`. It counted the FM
    /// refinement passes of the removed split NE++ path;
    /// [`HepConfig::validate`] rejects any other value.
    pub refine_passes: u32,
    /// Memory budget for the out-of-core ingestion pipeline (§4.2: the
    /// machine's memory budget is the planner's primary input). When set,
    /// [`crate::planner::plan_ingest`] chooses τ and the column-sweep
    /// count so the estimated peak ingestion+build footprint fits; τ is
    /// **degraded** (never the budget exceeded) when the configured τ
    /// does not fit. `None` ingests unbounded at the configured τ.
    /// Defaults to the `HEP_MEMORY_BUDGET` environment variable when set
    /// (bytes, with optional `K`/`M`/`G` suffix).
    pub memory_budget_bytes: Option<u64>,
    /// How file-backed passes read the edge file (buffered vs mmap); the
    /// config-level override of the `HEP_IO_MODE` environment default.
    /// Backends are bit-identical in output; this only trades syscalls
    /// for page faults.
    pub io_mode: IoMode,
    /// Column-array segment layout of the pruned CSR (see [`CsrLayout`]).
    /// Kept only for source compatibility: the input-order layout is the
    /// only one.
    pub csr_layout: CsrLayout,
    /// Kept only for source compatibility; must be `0`. Phase 2 is one
    /// serial loop that ignores any batch size; [`HepConfig::validate`]
    /// rejects a non-zero value instead of silently ignoring it. The
    /// planner's phase-2 charge sizes its own nominal batch with
    /// [`crate::planner::plan_stream_batch`].
    pub stream_batch: usize,
}

/// Placement of the per-vertex adjacency segments in the pruned CSR's
/// column array. A degree-sorted alternative measured 4–20% slower in NE++
/// and was removed; the enum stays so callers that name
/// [`HepConfig::csr_layout`] keep compiling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CsrLayout {
    /// The builders' native layout: segments in vertex-id order.
    #[default]
    InputOrder,
}

/// Parses a byte count with an optional `K`/`M`/`G` (binary) suffix,
/// e.g. `64M`, `1G`, `1048576`. `None` on anything else.
pub fn parse_byte_size(s: &str) -> Option<u64> {
    let t = s.trim();
    if t.is_empty() {
        return None;
    }
    let (digits, mult) = match t.as_bytes()[t.len() - 1].to_ascii_uppercase() {
        b'K' => (&t[..t.len() - 1], 1u64 << 10),
        b'M' => (&t[..t.len() - 1], 1u64 << 20),
        b'G' => (&t[..t.len() - 1], 1u64 << 30),
        _ => (t, 1),
    };
    let value: u64 = digits.trim().parse().ok()?;
    value.checked_mul(mult)
}

/// `HEP_MEMORY_BUDGET` environment default, resolved once per process.
fn env_memory_budget() -> Option<u64> {
    use std::sync::OnceLock;
    static BUDGET: OnceLock<Option<u64>> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        env_registry::read("HEP_MEMORY_BUDGET").and_then(|v| parse_byte_size(&v)).filter(|&b| b > 0)
    })
}

impl Default for HepConfig {
    fn default() -> Self {
        HepConfig {
            tau: 10.0,
            alpha: 1.05,
            lambda: 1.1,
            record_trace: false,
            informed_streaming: true,
            split_factor: 1,
            parallel_nepp: false,
            refine_passes: 0,
            memory_budget_bytes: env_memory_budget(),
            io_mode: IoMode::from_env(),
            csr_layout: CsrLayout::InputOrder,
            stream_batch: 0,
        }
    }
}

impl HepConfig {
    /// Paper-style config with a given τ and defaults elsewhere.
    pub fn with_tau(tau: f64) -> Self {
        HepConfig { tau, ..Default::default() }
    }

    /// Validates parameter domains.
    pub fn validate(&self) -> Result<(), hep_graph::GraphError> {
        if self.tau.is_nan() || self.tau <= 0.0 {
            return Err(hep_graph::GraphError::InvalidConfig(format!(
                "tau must be positive, got {}",
                self.tau
            )));
        }
        if self.alpha.is_nan() || self.alpha < 1.0 {
            return Err(hep_graph::GraphError::InvalidConfig(format!(
                "alpha must be >= 1, got {}",
                self.alpha
            )));
        }
        if self.lambda.is_nan() || self.lambda < 0.0 {
            return Err(hep_graph::GraphError::InvalidConfig(format!(
                "lambda must be >= 0, got {}",
                self.lambda
            )));
        }
        if self.split_factor != 1 || self.parallel_nepp || self.refine_passes != 0 {
            return Err(hep_graph::GraphError::InvalidConfig(format!(
                "the split NE++ path and its refinement were removed: split_factor must be 1, \
                 parallel_nepp false and refine_passes 0, got {}, {} and {}",
                self.split_factor, self.parallel_nepp, self.refine_passes
            )));
        }
        if self.memory_budget_bytes == Some(0) {
            return Err(hep_graph::GraphError::InvalidConfig(
                "memory_budget_bytes must be positive (use None for unbounded)".into(),
            ));
        }
        if self.stream_batch != 0 {
            return Err(hep_graph::GraphError::InvalidConfig(format!(
                "the batched phase-2 engine was removed: stream_batch must be 0, got {}",
                self.stream_batch
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_defaults() {
        let c = HepConfig::default();
        assert_eq!(c.lambda, 1.1);
        assert!(c.alpha >= 1.0);
        assert!(!c.record_trace);
    }

    #[test]
    fn validation_rejects_bad_domains() {
        assert!(HepConfig { tau: 0.0, ..Default::default() }.validate().is_err());
        assert!(HepConfig { tau: -1.0, ..Default::default() }.validate().is_err());
        assert!(HepConfig { alpha: 0.9, ..Default::default() }.validate().is_err());
        assert!(HepConfig { lambda: -0.1, ..Default::default() }.validate().is_err());
        assert!(HepConfig { split_factor: 4, ..Default::default() }.validate().is_err());
        assert!(HepConfig { parallel_nepp: true, ..Default::default() }.validate().is_err());
        assert!(HepConfig { refine_passes: 2, ..Default::default() }.validate().is_err());
        assert!(HepConfig { stream_batch: 1, ..Default::default() }.validate().is_err());
        assert!(HepConfig { stream_batch: 4096, ..Default::default() }.validate().is_err());
        assert!(HepConfig { stream_batch: 0, ..Default::default() }.validate().is_ok());
        assert!(HepConfig::with_tau(1.0).validate().is_ok());
    }

    #[test]
    fn byte_size_parsing() {
        assert_eq!(parse_byte_size("1048576"), Some(1 << 20));
        assert_eq!(parse_byte_size("64M"), Some(64 << 20));
        assert_eq!(parse_byte_size("64m"), Some(64 << 20));
        assert_eq!(parse_byte_size("2G"), Some(2 << 30));
        assert_eq!(parse_byte_size("16K"), Some(16 << 10));
        assert_eq!(parse_byte_size(" 8 M "), Some(8 << 20));
        assert_eq!(parse_byte_size(""), None);
        assert_eq!(parse_byte_size("M"), None);
        assert_eq!(parse_byte_size("-3"), None);
        assert_eq!(parse_byte_size("lots"), None);
        assert_eq!(parse_byte_size(&format!("{}G", u64::MAX)), None, "suffix overflow checked");
    }

    #[test]
    fn zero_budget_is_rejected() {
        let c = HepConfig { memory_budget_bytes: Some(0), ..Default::default() };
        assert!(c.validate().is_err());
        let c = HepConfig { memory_budget_bytes: Some(1 << 20), ..Default::default() };
        assert!(c.validate().is_ok());
    }
}
