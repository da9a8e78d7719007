//! IO scaling of the out-of-core ingestion pipeline (§4.1/§4.2 applied to
//! disk): buffered-read vs mmap'd zero-copy passes over the HEPB v2 edge
//! file — raw pass throughput, the pruned-CSR build and the full
//! file-driven HEP pipeline — plus the budget-vs-τ trade-off table of the
//! ingestion planner.
//!
//! Besides the human-readable tables, emits `BENCH_io.json` in the working
//! directory: a machine-readable record of the measured seconds and the
//! planner decisions, for trajectory tooling.

use hep_bench::banner;
use hep_bench::report::{Json, Report};
use hep_core::{plan_ingest, Hep, HepConfig};
use hep_graph::partitioner::CountingSink;
use hep_graph::{BinaryEdgeFile, IoMode, PrunedCsr};
use hep_metrics::table::{format_bytes, format_secs, Table};
use std::time::Instant;

/// Best-of-`reps` wall-clock of `f`, with the result kept live.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    banner(
        "IO scaling: buffered vs mmap HEPB passes, budget-vs-τ planning",
        "Backends are bit-identical in output; this measures the syscall/\n\
         page-fault trade and the planner's τ/sweep degradation curve.",
    );
    let test = hep_bench::test_mode();
    let reps = if test { 1 } else { 3 };
    let (n, m) = if test { (20_000u32, 160_000u64) } else { (150_000, 1_500_000) };
    let g = hep_gen::GraphSpec::ChungLu { n, m, gamma: 2.2 }.generate(21);
    let mut path = std::env::temp_dir();
    path.push(format!("hep_io_scaling_{}.hepb", std::process::id()));
    let file = BinaryEdgeFile::write(&path, &g).unwrap();
    let tau = 10.0;

    // Raw pass throughput (degree pass = one full-file scan + classify),
    // the graph build (degree pass + one-sweep pruned-CSR build, h2h edges
    // dropped) and the end-to-end file-driven pipeline, per backend.
    let mut pass_secs = Vec::new();
    let mut csr_build_secs = Vec::new();
    let mut pipeline_secs = Vec::new();
    let mut t = Table::new(["backend", "degree pass", "CSR build", "full pipeline"]);
    for mode in [IoMode::Buffered, IoMode::Mmap] {
        let f = file.clone().with_io_mode(mode);
        let backend = f.pass().unwrap().backend();
        let pass = best_of(reps, || f.degree_stats(tau).unwrap().num_high);
        let csr_build = best_of(reps, || {
            let stats = f.degree_stats(tau).unwrap();
            PrunedCsr::build_from_passes_budgeted(stats, || f.pass(), |_| {}, 1)
                .unwrap()
                .column_entries()
        });
        let pipeline = best_of(reps, || {
            let mut config = HepConfig::with_tau(tau);
            config.io_mode = mode;
            config.memory_budget_bytes = None;
            let mut sink = CountingSink::default();
            Hep { config }.partition_file_with_report(&f, 32, &mut sink).unwrap();
            sink.counts.len()
        });
        t.row([
            format!("{mode:?} (ran {backend:?})"),
            format_secs(pass),
            format_secs(csr_build),
            format_secs(pipeline),
        ]);
        pass_secs.push((mode, backend, pass));
        csr_build_secs.push((mode, csr_build));
        pipeline_secs.push((mode, pipeline));
    }
    println!("{}", t.render());

    // Budget-vs-τ: the planner's degradation curve from unbounded down to
    // fractions of the single-sweep footprint. Infeasible budgets (below
    // the all-high floor) are recorded as such.
    let stats = file.degree_stats(tau).unwrap();
    let unbounded = plan_ingest(&stats.degrees, stats.mean_degree, tau, None, 0).unwrap();
    let single_sweep = unbounded.estimated_peak_bytes;
    let mut t = Table::new(["budget", "τ ran", "column sweeps", "est. peak"]);
    let mut budget_rows = Vec::new();
    let budgets: Vec<Option<u64>> = std::iter::once(None)
        .chain(
            [1.0, 0.9, 0.75, 0.5, 0.25, 0.1, 0.02].map(|f| Some((single_sweep as f64 * f) as u64)),
        )
        .collect();
    for budget in budgets {
        let label = budget.map_or("unbounded".into(), format_bytes);
        match plan_ingest(&stats.degrees, stats.mean_degree, tau, budget, 0) {
            Ok(plan) => {
                t.row([
                    label,
                    format!("{}", plan.tau),
                    format!("{}", plan.column_passes),
                    format_bytes(plan.estimated_peak_bytes),
                ]);
                budget_rows.push((budget, Some(plan)));
            }
            Err(e) => {
                t.row([label, format!("infeasible ({e})"), String::new(), String::new()]);
                budget_rows.push((budget, None));
            }
        }
    }
    println!("{}", t.render());
    std::fs::remove_file(&path).ok();

    // Keeps the `BENCH_io.json` name and the keys that trajectory tooling
    // already reads.
    let mut report = Report::new("io");
    report.set("vertices", n);
    report.set("edges", m);
    report.set("tau", tau);
    report.set("reps", reps);
    report.set(
        "pass_secs",
        Json::Object(
            pass_secs
                .iter()
                .map(|(mode, backend, secs)| {
                    (
                        format!("{mode:?}"),
                        Json::object([
                            ("ran", format!("{backend:?}").into()),
                            ("secs", (*secs).into()),
                        ]),
                    )
                })
                .collect(),
        ),
    );
    report.set(
        "csr_build_secs",
        Json::Object(
            csr_build_secs
                .iter()
                .map(|(mode, secs)| (format!("{mode:?}"), (*secs).into()))
                .collect(),
        ),
    );
    report.set(
        "pipeline_secs",
        Json::Object(
            pipeline_secs
                .iter()
                .map(|(mode, secs)| (format!("{mode:?}"), (*secs).into()))
                .collect(),
        ),
    );
    report.set(
        "budget_vs_tau",
        Json::Array(
            budget_rows
                .iter()
                .map(|(budget, plan)| match plan {
                    Some(p) => Json::object([
                        ("budget_bytes", (*budget).into()),
                        ("tau", p.tau.into()),
                        ("column_passes", p.column_passes.into()),
                        ("estimated_peak_bytes", p.estimated_peak_bytes.into()),
                        ("resident_bytes", p.resident_bytes.into()),
                    ]),
                    None => Json::object([
                        ("budget_bytes", (*budget).into()),
                        ("infeasible", true.into()),
                    ]),
                })
                .collect(),
        ),
    );
    report.write();
}
