//! Property suite for the workspace determinism invariant: every component
//! converted to the `hep-par` pool must produce **bit-identical output at
//! `HEP_THREADS=1` and `HEP_THREADS=8`** (and, by the same construction,
//! any other count). Each property runs the same seeded workload once per
//! thread setting and compares the results exactly — including `f64` bit
//! patterns where floating point is involved.

use proptest::prelude::*;

/// The pair of runs every property compares. `hep_par::with_threads` pins
/// the pool width for each run and serializes against every other caller
/// in the process, so concurrent properties cannot override each other.
fn serial_vs_parallel<T>(f: impl Fn() -> T) -> (T, T) {
    (hep::par::with_threads(1, &f), hep::par::with_threads(8, &f))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn chung_lu_is_thread_invariant(seed in 0u64..1000, m in 2_000u64..60_000) {
        let n = (m / 8).max(16) as u32;
        let (a, b) = serial_vs_parallel(|| hep::gen::chunglu::chung_lu(n, m, 2.2, seed).edges);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn erdos_renyi_is_thread_invariant(seed in 0u64..1000, m in 2_000u64..60_000) {
        let n = (m / 6).max(32) as u32;
        let (a, b) = serial_vs_parallel(|| hep::gen::er::erdos_renyi(n, m, seed).edges);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn rmat_is_thread_invariant(seed in 0u64..1000, m in 2_000u64..60_000) {
        let params = hep::gen::rmat::RmatParams::graph500();
        let (a, b) = serial_vs_parallel(|| hep::gen::rmat::rmat(14, m, params, seed).edges);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn barabasi_albert_is_thread_invariant(seed in 0u64..1000, n in 100u32..30_000) {
        let (a, b) = serial_vs_parallel(|| hep::gen::ba::barabasi_albert(n, 3, seed).edges);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn metrics_replay_is_thread_invariant(seed in 0u64..1000) {
        use hep::graph::EdgePartitioner;
        let g = hep::gen::GraphSpec::ChungLu { n: 1500, m: 12_000, gamma: 2.2 }.generate(seed);
        let k = 16;
        let mut collected = hep::graph::partitioner::CollectedAssignment::default();
        hep::baselines::Hdrf::default().partition(&g, k, &mut collected).unwrap();
        let (a, b) = serial_vs_parallel(|| {
            let m = hep::metrics::PartitionMetrics::from_assignment(k, g.num_vertices, &collected);
            (m.replica_counts(), m.edge_counts.clone(), m.replication_factor().to_bits())
        });
        prop_assert_eq!(a, b);
    }

    #[test]
    fn validation_verdict_is_thread_invariant(seed in 0u64..1000, corrupt in 0u32..3) {
        use hep::graph::EdgePartitioner;
        let g = hep::gen::GraphSpec::ChungLu { n: 800, m: 6_000, gamma: 2.2 }.generate(seed);
        let k = 8;
        let mut collected = hep::graph::partitioner::CollectedAssignment::default();
        hep::baselines::Dbh::default().partition(&g, k, &mut collected).unwrap();
        // Corrupt the assignment in one of three ways (0 leaves it valid),
        // so the error *text* is compared across thread counts too.
        match corrupt {
            1 => collected.assignments[17].1 = k + 5,
            2 => collected.assignments[17].0 = collected.assignments[18].0,
            _ => {}
        }
        let (a, b) = serial_vs_parallel(|| hep::metrics::validate_assignment(&g, &collected, k));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.is_ok(), corrupt == 0);
    }

    #[test]
    fn procsim_workloads_are_thread_invariant(seed in 0u64..1000) {
        use hep::graph::EdgePartitioner;
        let g = hep::gen::GraphSpec::ChungLu { n: 600, m: 4_000, gamma: 2.2 }.generate(seed);
        let k = 8;
        let mut collected = hep::graph::partitioner::CollectedAssignment::default();
        hep::baselines::Hdrf::default().partition(&g, k, &mut collected).unwrap();
        let dg = hep::procsim::DistributedGraph::load(&g, &collected, k);
        let cost = hep::procsim::ClusterCost::default();
        let (a, b) = serial_vs_parallel(|| {
            let (ranks, pr_cost) = hep::procsim::pagerank(&dg, 5, &cost);
            let (dist, _) = hep::procsim::bfs_single(&dg, 0, &cost);
            let (labels, cc_cost) = hep::procsim::connected_components(&dg, &cost);
            let active: Vec<u32> = (0..g.num_vertices).collect();
            (
                ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                pr_cost.total_msgs,
                dist,
                labels,
                cc_cost.supersteps,
                dg.superstep_cost(&active),
            )
        });
        prop_assert_eq!(a, b);
    }

    #[test]
    fn dne_is_thread_invariant(seed in 0u64..1000) {
        use hep::graph::EdgePartitioner;
        let g = hep::gen::GraphSpec::ChungLu { n: 700, m: 5_000, gamma: 2.2 }.generate(seed);
        let (a, b) = serial_vs_parallel(|| {
            let mut sink = hep::graph::partitioner::CollectedAssignment::default();
            hep::baselines::Dne::default().partition(&g, 8, &mut sink).unwrap();
            sink.assignments
        });
        prop_assert_eq!(a, b);
    }

    #[test]
    fn mmap_and_buffered_file_pipelines_are_bit_identical(seed in 0u64..1000) {
        // The PassSource contract: the mmap and buffered backends feed the
        // degree pass, the budgeted CSR sweeps, and phase-2 streaming the
        // exact same byte stream, so the full file pipeline is bit-identical
        // across backends at every thread count.
        use hep::graph::{BinaryEdgeFile, IoMode};
        let g = hep::gen::GraphSpec::ChungLu { n: 1_200, m: 10_000, gamma: 2.2 }.generate(seed);
        let mut path = std::env::temp_dir();
        path.push(format!("hep_io_determinism_{}_{}.hepb", std::process::id(), seed));
        let file = BinaryEdgeFile::write(&path, &g).unwrap();
        for threads in [1usize, 8] {
            let run = |mode: IoMode| {
                hep::par::with_threads(threads, || {
                    let mut config = hep::core::HepConfig::with_tau(10.0);
                    config.io_mode = mode;
                    let hep = hep::core::Hep { config };
                    let mut sink = hep::graph::partitioner::CollectedAssignment::default();
                    let report = hep.partition_file_with_report(&file, 8, &mut sink).unwrap();
                    (sink.assignments, report.partition_sizes)
                })
            };
            let (buffered, mmap) = (run(IoMode::Buffered), run(IoMode::Mmap));
            prop_assert_eq!(buffered, mmap, "io backends diverged at threads={}", threads);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_and_v2_files_round_trip_to_identical_partitions(seed in 0u64..1000) {
        // Format compatibility: a graph written as checksum-free HEPB v1
        // and as checksummed v2 must load to the same edge sequence and
        // drive the pipeline to the same assignment.
        use hep::graph::BinaryEdgeFile;
        let g = hep::gen::GraphSpec::ChungLu { n: 800, m: 6_000, gamma: 2.2 }.generate(seed);
        let dir = std::env::temp_dir();
        let p1 = dir.join(format!("hep_v1_roundtrip_{}_{}.hepb", std::process::id(), seed));
        let p2 = dir.join(format!("hep_v2_roundtrip_{}_{}.hepb", std::process::id(), seed));
        let f1 = BinaryEdgeFile::write_v1(&p1, &g).unwrap();
        let f2 = BinaryEdgeFile::write(&p2, &g).unwrap();
        prop_assert_eq!(f1.format_version(), 1u32);
        prop_assert_eq!(f2.format_version(), 2u32);
        let run = |file: &BinaryEdgeFile| {
            let mut sink = hep::graph::partitioner::CollectedAssignment::default();
            hep::core::Hep::with_tau(10.0).partition_file_with_report(file, 8, &mut sink).unwrap();
            sink.assignments
        };
        prop_assert_eq!(f1.load().unwrap().edges, f2.load().unwrap().edges);
        prop_assert_eq!(run(&f1), run(&f2), "v1 and v2 partitions diverged");
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn batched_stream_pipeline_is_thread_and_batch_invariant(seed in 0u64..1000) {
        // The full pipeline — graph building, NE++ and phase-2 streaming —
        // is bit-identical at 1 and 8 workers. τ = 1 sends a large h2h
        // stream through phase 2.
        let g = hep::gen::GraphSpec::ChungLu { n: 1_500, m: 12_000, gamma: 2.2 }.generate(seed);
        let run = |threads: usize| {
            hep::par::with_threads(threads, || {
                let hep = hep::core::Hep::with_tau(1.0);
                let mut sink = hep::graph::partitioner::CollectedAssignment::default();
                let report = hep.partition_with_report(&g, 8, &mut sink).unwrap();
                (sink.assignments, report.partition_sizes)
            })
        };
        let (a, b) = (run(1), run(8));
        prop_assert_eq!(a, b, "pipeline diverged between 1 and 8 threads");
    }

    #[test]
    fn batched_stream_engine_matches_serial_bitwise(
        seed in 0u64..1000,
        k in prop_oneof![Just(4u32), Just(32)],
    ) {
        // The engine-level contract behind the pipeline property: on a raw
        // hub-skewed h2h stream with NE++-like seeded replicas and uneven
        // loads, the phase-2 engine reproduces `stream_h2h_serial` exactly —
        // assignment sequence, final loads, and every replica-set word — at
        // 1 and 8 workers.
        use hep::ds::DenseBitset;
        let n = 300u32;
        let m = 4_000usize;
        let mut rng = hep::ds::SplitMix64::new(seed);
        let mut edges = Vec::with_capacity(m);
        let mut degrees = vec![0u32; n as usize];
        for _ in 0..m {
            let a = (rng.next_below(n as u64) * rng.next_below(n as u64) / n as u64) as u32;
            let b = rng.next_below(n as u64) as u32;
            edges.push(hep::graph::Edge::new(a, b));
            degrees[a as usize] += 1;
            degrees[b as usize] += 1;
        }
        let mut seed_sets: Vec<DenseBitset> =
            (0..k).map(|_| DenseBitset::new(n as usize)).collect();
        let mut sizes = vec![0u64; k as usize];
        for v in 0..60u32 {
            seed_sets[(v % k) as usize].set(v);
        }
        for (p, s) in sizes.iter_mut().enumerate() {
            *s = (p as u64) * 29;
        }
        let mut serial_sink = hep::graph::partitioner::CollectedAssignment::default();
        let serial = hep::core::stream_h2h_serial(
            edges.iter().copied(),
            &degrees,
            seed_sets.clone(),
            sizes.clone(),
            2 * m as u64,
            1.1,
            1.05,
            &mut serial_sink,
        )
        .unwrap();
        for threads in [1usize, 8] {
            let (assignments, state) = hep::par::with_threads(threads, || {
                let mut sink = hep::graph::partitioner::CollectedAssignment::default();
                let state = hep::core::stream_h2h(
                    edges.iter().copied(),
                    &degrees,
                    seed_sets.clone(),
                    sizes.clone(),
                    2 * m as u64,
                    1.1,
                    1.05,
                    0,
                    &mut sink,
                )
                .unwrap();
                (sink.assignments, state)
            });
            prop_assert_eq!(&assignments, &serial_sink.assignments);
            for p in 0..k {
                prop_assert_eq!(state.load(p), serial.load(p), "load {} diverged", p);
                prop_assert_eq!(
                    state.replica_sets()[p as usize].words(),
                    serial.replica_sets()[p as usize].words(),
                    "replica set {} diverged", p
                );
            }
        }
    }
}
