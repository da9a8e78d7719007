//! Dev-loop harness for phase-2 streaming: the serial dense oracle against
//! the replica-mask engine on the fig7 bench's hub-skewed workload,
//! best-of-N timing so run-to-run noise doesn't swamp the comparison.
//! k = 4 is the load tracker's worst case (with few parts, many increments
//! create or drop a load level); k = 128 is `stream_hubs`' part count.
//!
//! `cargo run --release -p hep-bench --example stream_profile [edges] [reps]`

use hep_core::{stream_h2h, stream_h2h_serial};
use hep_ds::{DenseBitset, SplitMix64};
use hep_graph::partitioner::CountingSink;
use hep_graph::Edge;
use std::time::Instant;

fn main() {
    let m: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1_500_000);
    let reps: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(3);
    let n = (m / 50).max(256) as u32;
    let mut rng = SplitMix64::new(99);
    let mut edges = Vec::with_capacity(m);
    let mut degrees = vec![0u32; n as usize];
    for _ in 0..m {
        let a = (rng.next_below(n as u64) * rng.next_below(n as u64) / n as u64) as u32;
        let b = rng.next_below(n as u64) as u32;
        edges.push(Edge::new(a, b));
        degrees[a as usize] += 1;
        degrees[b as usize] += 1;
    }
    for k in [4u32, 32, 128] {
        let mut sets: Vec<DenseBitset> = (0..k).map(|_| DenseBitset::new(n as usize)).collect();
        for v in 0..(n / 4) {
            sets[(v % k) as usize].set(v);
        }
        let sizes: Vec<u64> = (0..k as u64).map(|p| p * 11).collect();
        let mut best = [f64::MAX; 2];
        for _ in 0..reps {
            for (engine, slot) in best.iter_mut().enumerate() {
                let (rs, rz) = (sets.clone(), sizes.clone());
                let mut sink = CountingSink::default();
                let t = Instant::now();
                if engine == 0 {
                    stream_h2h_serial(
                        edges.iter().copied(),
                        &degrees,
                        rs,
                        rz,
                        2 * m as u64,
                        1.1,
                        1.05,
                        &mut sink,
                    )
                } else {
                    stream_h2h(
                        edges.iter().copied(),
                        &degrees,
                        rs,
                        rz,
                        2 * m as u64,
                        1.1,
                        1.05,
                        0,
                        &mut sink,
                    )
                }
                .unwrap();
                *slot = slot.min(t.elapsed().as_secs_f64());
            }
        }
        let [serial_eps, engine_eps] = best.map(|secs| m as f64 / secs);
        println!(
            "k={k:3} serial {serial_eps:>9.0} e/s  engine {engine_eps:>9.0} e/s  {:.2}x",
            engine_eps / serial_eps
        );
    }
}
