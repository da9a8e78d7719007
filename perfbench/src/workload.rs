//! The benchmark's three workloads: Table 3 analogs from `hep_gen`, each
//! chosen so a different layer of the file pipeline dominates the op.

use hep_core::{CsrLayout, HepConfig};
use hep_gen::Dataset;
use hep_graph::IoMode;

/// One workload: an analog dataset and the partitioning job run on it.
pub struct Workload {
    pub name: &'static str,
    /// Table 3 analog name for `hep_gen::dataset`.
    pub dataset: &'static str,
    /// Analog scale of the measured run.
    pub scale: u32,
    /// Analog scale of a `--smoke` run (the self-test).
    pub smoke_scale: u32,
    pub tau: f64,
    pub k: u32,
    /// Memory budget at `scale`; a smoke run scales it down with |E|.
    pub budget_bytes: Option<u64>,
}

pub const WORKLOADS: [Workload; 3] = [
    // NE++ dominates; ingest second; streaming is bypassed (few h2h edges).
    Workload {
        name: "inmem_social",
        dataset: "OK",
        scale: 32,
        smoke_scale: 1,
        tau: 10.0,
        k: 32,
        budget_bytes: None,
    },
    // τ = 0.1 streams nearly every edge; phase 2 at k = 128 dominates.
    Workload {
        name: "stream_hubs",
        dataset: "TW",
        scale: 4,
        smoke_scale: 1,
        tau: 0.1,
        k: 128,
        budget_bytes: None,
    },
    // The only workload where the planner decides: the budget degrades τ.
    Workload {
        name: "budget_web",
        dataset: "IT",
        scale: 16,
        smoke_scale: 2,
        tau: 10.0,
        k: 4,
        budget_bytes: Some(56 << 20),
    },
];

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    fn scale(&self, smoke: bool) -> u32 {
        if smoke {
            self.smoke_scale
        } else {
            self.scale
        }
    }

    /// The analog at this run's scale; `seed` overrides the Table 3 seed.
    pub fn dataset(&self, smoke: bool, seed: Option<u64>) -> Dataset {
        let mut d = hep_gen::dataset(self.dataset, self.scale(smoke))
            .expect("workload table names only Table 3 analogs");
        if let Some(seed) = seed {
            d.seed = seed;
        }
        d
    }

    pub fn budget(&self, smoke: bool) -> Option<u64> {
        self.budget_bytes.map(|b| b / self.scale as u64 * self.scale(smoke) as u64)
    }

    /// The run's configuration, every field set explicitly so no `HEP_*`
    /// environment default can change what is measured.
    pub fn config(&self, smoke: bool) -> HepConfig {
        HepConfig {
            tau: self.tau,
            alpha: 1.05,
            lambda: 1.1,
            record_trace: false,
            informed_streaming: true,
            split_factor: 1,
            parallel_nepp: false,
            refine_passes: 0,
            memory_budget_bytes: self.budget(smoke),
            io_mode: IoMode::Auto,
            csr_layout: CsrLayout::InputOrder,
            stream_batch: 0,
        }
    }
}
