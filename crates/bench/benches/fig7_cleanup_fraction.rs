//! Figure 7: fraction of column-array entries removed during clean-up at
//! k = 32 — the payoff of lazy edge removal (§3.2.2): eager invalidation
//! would touch *every* entry; the clean-up touches only secondary-set
//! survivors' lists.
//!
//! The same binary also measures the other phase-2 cost center this repo
//! tracks: streaming throughput (edges/s) of the replica-mask engine
//! against the serial dense-scan oracle, at k = 32 and 128, on a
//! hub-skewed synthetic h2h stream (≥ 1M edges outside smoke mode).

use hep_bench::{banner, load_dataset};
use hep_core::{stream_h2h, stream_h2h_serial};
use hep_ds::{DenseBitset, SplitMix64};
use hep_graph::partitioner::CountingSink;
use hep_graph::Edge;
use hep_metrics::Table;
use std::time::Instant;

/// Hub-skewed synthetic h2h workload: one endpoint drawn with a squared
/// bias toward low ids so replica rows keep recurring, like real
/// high-degree cores do.
fn synth_h2h(n: u32, m: usize, seed: u64) -> (Vec<Edge>, Vec<u32>) {
    let mut rng = SplitMix64::new(seed);
    let mut edges = Vec::with_capacity(m);
    let mut degrees = vec![0u32; n as usize];
    for _ in 0..m {
        let a = (rng.next_below(n as u64) * rng.next_below(n as u64) / n as u64) as u32;
        let b = rng.next_below(n as u64) as u32;
        edges.push(Edge::new(a, b));
        degrees[a as usize] += 1;
        degrees[b as usize] += 1;
    }
    (edges, degrees)
}

fn seeded_state(k: u32, n: u32) -> (Vec<DenseBitset>, Vec<u64>) {
    let mut sets: Vec<DenseBitset> = (0..k).map(|_| DenseBitset::new(n as usize)).collect();
    for v in 0..(n / 4) {
        sets[(v % k) as usize].set(v);
    }
    let sizes = (0..k as u64).map(|p| p * 11).collect();
    (sets, sizes)
}

fn main() {
    banner(
        "Figure 7: fraction of column entries removed by clean-up (k = 32)",
        "HEP at tau = 10; eager invalidation would remove 100% of entries.",
    );
    let mut t = Table::new(["graph", "type", "cleanup fraction"]);
    for &name in
        hep_bench::smoke_subset(&["LJ", "OK", "BR", "WI", "IT", "TW", "FR", "UK", "GSH", "WDC"])
    {
        let g = load_dataset(name);
        let d = hep_gen::dataset(name, 1).expect("known dataset");
        let hep = hep_core::Hep::with_tau(10.0);
        let mut sink = CountingSink::default();
        let report = hep.partition_with_report(&g, 32, &mut sink).expect("HEP runs");
        t.row([
            name.to_string(),
            d.kind.to_string(),
            format!("{:.3}", report.nepp.cleanup_fraction()),
        ]);
    }
    println!("{}", t.render());
    println!("(paper: < 0.5 everywhere, particularly low on web graphs)");

    // Phase-2 streaming throughput: serial dense oracle vs the engine. Time
    // only the stream call; the workload, seed sets and sink live outside
    // the measured window.
    let m = if hep_bench::test_mode() { 20_000 } else { 1_500_000 };
    // Best-of-N timing: the CI container is shared, and single-shot
    // timings of either engine swing by ±10% run to run; the minimum over
    // a few repetitions is the standard de-noised estimator.
    let reps = if hep_bench::test_mode() { 1 } else { 3 };
    let n = (m / 50).max(256) as u32;
    let (edges, degrees) = synth_h2h(n, m, 99);
    let mut tp = Table::new(["k", "serial edges/s", "engine edges/s", "speedup"]);
    for k in [32u32, 128] {
        let (sets, sizes) = seeded_state(k, n);
        let mut best = [f64::MAX; 2];
        for _ in 0..reps {
            for (engine, slot) in best.iter_mut().enumerate() {
                let (run_sets, run_sizes) = (sets.clone(), sizes.clone());
                let mut sink = CountingSink::default();
                let start = Instant::now();
                if engine == 0 {
                    stream_h2h_serial(
                        edges.iter().copied(),
                        &degrees,
                        run_sets,
                        run_sizes,
                        2 * m as u64,
                        1.1,
                        1.05,
                        &mut sink,
                    )
                } else {
                    stream_h2h(
                        edges.iter().copied(),
                        &degrees,
                        run_sets,
                        run_sizes,
                        2 * m as u64,
                        1.1,
                        1.05,
                        0,
                        &mut sink,
                    )
                }
                .expect("phase-2 stream runs");
                *slot = slot.min(start.elapsed().as_secs_f64());
            }
        }
        let [serial_eps, engine_eps] = best.map(|secs| m as f64 / secs);
        tp.row([
            k.to_string(),
            format!("{serial_eps:.0}"),
            format!("{engine_eps:.0}"),
            format!("{:.2}", engine_eps / serial_eps),
        ]);
    }
    println!();
    println!("Phase-2 streaming throughput ({m} h2h edges, n = {n}):");
    println!("{}", tp.render());

    let mut report = hep_bench::report::Report::new("fig7_cleanup_fraction");
    report.table("cleanup_fraction", &t);
    report.table("phase2_stream_throughput", &tp);
    report.set("phase2_stream_edges", m as u64);
    report.write();
}
