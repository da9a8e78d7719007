//! The repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <inmem_social|stream_hubs|budget_web> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke] [--tamper] [--commit <sha>]
//! ```
//!
//! Set-up generates the workload's Table 3 analog from `--seed`, writes it
//! as a HEPB file and opens it. A warm-up op then partitions the file once,
//! collects the whole assignment and validates it; its fingerprint is the
//! reference every later op must reproduce.
//!
//! With `--trace 0` the benchmark repeats the timed op (open + partition
//! into a `PartitionMetrics` sink) for `--seconds` and reports end-to-end
//! metrics. With `--trace 1` it cycles an untraced op, the traced op at
//! all cores and the traced op at one thread, and reports per-layer
//! metrics. Each report line reads `metric <name> <value> <unit>`; the last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and the workload's metrics.
//!
//! `--smoke` runs the analog at a small scale (the self-test), `--tamper`
//! flips the fingerprint of every op after the warm-up so the gate must
//! count each as failed.

mod op;
mod stats;
mod workload;

use hep_graph::{BinaryEdgeFile, IoBackend};
use hep_metrics::alloc_track::CountingAlloc;
use hep_metrics::{validate_assignment, PartitionMetrics};
use op::{e2e_op, measured, traced_op, Fingerprint, OpSink, Trace};
use stats::{median, median_of, quantile, tail_percentile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Workload, WORKLOADS};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Least timed ops per `--trace 0` run, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Least (untraced, traced, traced at 1 thread) cycles per `--trace 1` run.
const MIN_TRACE_CYCLES: usize = 2;
/// Replays of the collected assignment behind `metrics.s`.
const METRICS_REPS: usize = 5;

struct Args {
    workload: &'static Workload,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    smoke: bool,
    tamper: bool,
    commit: String,
}

const USAGE: &str = "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] \
                     [--trace 0|1] [--smoke] [--tamper] [--commit <sha>]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: &WORKLOADS[0],
        seed: None,
        seconds: 10.0,
        trace: false,
        smoke: false,
        tamper: false,
        commit: "unknown".into(),
    };
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        if flag == "--tamper" {
            args.tamper = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::find(&value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (have {})", names.join(", "))
                })?)
            }
            "--seed" => args.seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--commit" => args.commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Metrics in report order, each printed as it is recorded.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        println!("metric {name} {value} {unit}");
        self.metrics.push((name, value, unit));
    }
}

/// `max / mean` of per-partition counts: the balance figure of both edges
/// and vertex replicas.
fn max_over_mean(counts: &[u64]) -> f64 {
    let max = counts.iter().copied().max().unwrap_or(0) as f64;
    max * counts.len() as f64 / counts.iter().sum::<u64>() as f64
}

/// What every op must reproduce: the warm-up's validated output.
struct Reference {
    fingerprint: Fingerprint,
    num_vertices: u32,
    num_edges: u64,
    rf: f64,
    edge_balance: f64,
    vertex_balance: f64,
}

/// The correctness gate: counts attempted and failed ops, and says why
/// each failure failed.
struct Gate {
    attempted: u64,
    failed: u64,
    budget: Option<u64>,
    tamper: bool,
}

impl Gate {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        eprintln!("FAILED op {}: {why}", self.attempted);
    }

    /// Checks one op's outcome against the reference.
    fn check<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        outcome: &Result<T, E>,
        sink: &OpSink,
        peak: u64,
        reference: &Reference,
    ) {
        self.attempted += 1;
        if let Err(e) = outcome {
            return self.fail(format!("{what} returned an error: {e}"));
        }
        let mut fingerprint = sink.fingerprint;
        if self.tamper {
            fingerprint.0 ^= 1;
        }
        if fingerprint != reference.fingerprint {
            return self.fail(format!(
                "{what} fingerprint {:016x} != reference {:016x}",
                fingerprint.0, reference.fingerprint.0
            ));
        }
        if sink.metrics.total_edges() != reference.num_edges {
            return self.fail(format!(
                "{what} assigned {} of {} edges",
                sink.metrics.total_edges(),
                reference.num_edges
            ));
        }
        if let Some(budget) = self.budget {
            if peak > budget {
                self.fail(format!("{what} peak heap {peak} B exceeds the budget {budget} B"));
            }
        }
    }
}

/// Deletes the run's working directory on every exit path.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dataset = w.dataset(args.smoke, args.seed);
    let config = w.config(args.smoke);
    let k = w.k;
    let work = WorkDir(std::env::temp_dir().join(format!("perfbench-{}", std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("creating {}: {e}", work.0.display()))?;
    let path = work.0.join(format!("{}.hepb", w.name));

    // Set-up: generate the analog, write the HEPB file, first open.
    let mut setup_secs = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        drop(prepared.take());
        let start = Instant::now();
        let graph = dataset.generate();
        let generated = start.elapsed().as_secs_f64();
        BinaryEdgeFile::write(&path, &graph).map_err(|e| format!("writing HEPB: {e}"))?;
        let written = start.elapsed().as_secs_f64();
        let file = BinaryEdgeFile::open(&path).map_err(|e| format!("opening HEPB: {e}"))?;
        let total = start.elapsed().as_secs_f64();
        println!(
            "setup_s rep={total:.4} generate={generated:.4} write={:.4} open={:.4}",
            written - generated,
            total - written
        );
        setup_secs.push(total);
        prepared = Some((graph, file));
    }
    let (graph, file) = prepared.ok_or("no set-up ran")?;
    let num_vertices = graph.num_vertices;
    let num_edges = graph.num_edges();
    let backend = file
        .with_io_mode(config.io_mode)
        .pass()
        .map_err(|e| format!("opening a pass: {e}"))?
        .backend();

    println!(
        "env workload={} analog={}x{} seed={} |V|={num_vertices} |E|={num_edges} tau={} k={k} \
         budget_bytes={} nproc={nproc} HEP_THREADS={} threads={} kernel={:?} io_backend={} \
         commit={} smoke={}",
        w.name,
        dataset.name,
        if args.smoke { w.smoke_scale } else { w.scale },
        dataset.seed,
        w.tau,
        config.memory_budget_bytes.map_or("none".into(), |b| b.to_string()),
        std::env::var("HEP_THREADS").unwrap_or_else(|_| "unset".into()),
        hep_par::threads(),
        hep_ds::kernels::active(),
        match backend {
            IoBackend::Buffered => "buffered",
            IoBackend::Mmap => "mmap",
        },
        args.commit,
        args.smoke,
    );

    // Warm-up: fills the page cache and lazy set-up, and yields the
    // validated reference output.
    let mut gate =
        Gate { attempted: 1, failed: 0, budget: config.memory_budget_bytes, tamper: false };
    let mut sink = OpSink::new(k, num_vertices, true);
    e2e_op(&path, &config, k, &mut sink).map_err(|e| format!("warm-up op failed: {e}"))?;
    let collected = sink.collected.take().ok_or("warm-up collected no assignment")?;
    if let Err(msg) = validate_assignment(&graph, &collected, k) {
        gate.fail(format!("warm-up assignment is invalid: {msg}"));
    }
    drop(graph);
    let reference = Reference {
        fingerprint: sink.fingerprint,
        num_vertices,
        num_edges,
        rf: sink.metrics.replication_factor(),
        edge_balance: max_over_mean(&sink.metrics.edge_counts),
        vertex_balance: max_over_mean(&sink.metrics.covered_counts()),
    };
    println!("quality vertex_cv={} (std/mean of |V(p_i)|)", sink.metrics.vertex_balance());
    drop(sink);
    gate.tamper = args.tamper;

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut report = Report::default();
    if args.trace {
        let layers = TracedRun::measure(&path, k, &config, &reference, &mut gate, deadline)?;
        let metrics_s = replay_metrics(k, &collected, &reference, &mut gate);
        layers.report(num_edges, metrics_s, &mut report);
    } else {
        drop(collected);
        let (secs, peaks) = timed_ops(&path, &config, k, &reference, &mut gate, deadline);
        report_e2e(num_edges, &secs, &peaks, &setup_secs, &reference, &gate, &mut report);
    }

    let failed_frac = gate.failed as f64 / gate.attempted as f64;
    println!("metric failed_frac {failed_frac} 1");
    let correct = gate.failed == 0 && report.metrics.iter().all(|m| m.1.is_finite());
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { value.to_string() } else { "null".into() };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.attempted,
        gate.failed,
        metrics.join(", ")
    );
    Ok(())
}

/// Repeats the timed op until `deadline` (at least [`MIN_REPS`] times);
/// returns each op's seconds and peak heap bytes.
fn timed_ops(
    path: &Path,
    config: &hep_core::HepConfig,
    k: u32,
    reference: &Reference,
    gate: &mut Gate,
    deadline: Instant,
) -> (Vec<f64>, Vec<f64>) {
    let (mut secs, mut peaks) = (Vec::new(), Vec::new());
    while secs.len() < MIN_REPS || Instant::now() < deadline {
        let mut sink = OpSink::new(k, reference.num_vertices, false);
        let (outcome, s, peak) = measured(|| e2e_op(path, config, k, &mut sink));
        gate.check("op", &outcome, &sink, peak, reference);
        secs.push(s);
        peaks.push(peak as f64);
    }
    (secs, peaks)
}

fn report_e2e(
    num_edges: u64,
    secs: &[f64],
    peaks: &[f64],
    setup_secs: &[f64],
    reference: &Reference,
    gate: &Gate,
    report: &mut Report,
) {
    let e = num_edges as f64;
    let n = secs.len();
    println!(
        "op_s n={n} p25={} p50={} p75={} min={} max={}",
        quantile(secs, 0.25),
        median(secs),
        quantile(secs, 0.75),
        quantile(secs, 0.0),
        quantile(secs, 1.0),
    );
    let listed: Vec<String> = secs.iter().map(|s| format!("{s:.4}")).collect();
    println!("op_s samples {}", listed.join(" "));
    match tail_percentile(n) {
        Some(p) => println!(
            "op_s tail p{p}={} (edges_per_s {})",
            quantile(secs, p / 100.0),
            e / quantile(secs, p / 100.0)
        ),
        None => println!("op_s tail none: {n} samples, a tail percentile needs at least 20"),
    }
    println!(
        "edges_per_s quartiles p25={} p50={} p75={} samples={n}",
        e / quantile(secs, 0.75),
        e / median(secs),
        e / quantile(secs, 0.25),
    );
    println!(
        "peak_heap_bytes min={} max={} budget={}",
        quantile(peaks, 0.0),
        quantile(peaks, 1.0),
        gate.budget.map_or("none".into(), |b| b.to_string()),
    );
    report.metric("edges_per_s", e / median(secs), "1/s");
    report.metric("peak_heap_bytes", median(peaks), "B");
    report.metric("rf", reference.rf, "1");
    report.metric("edge_balance", reference.edge_balance, "1");
    report.metric("vertex_balance", reference.vertex_balance, "1");
    report.metric("setup_s", median(setup_secs), "s");
}

/// Times folding the collected assignment into a fresh `PartitionMetrics`
/// and computing RF and balance, the work the op's sink does.
fn replay_metrics(
    k: u32,
    collected: &hep_graph::CollectedAssignment,
    reference: &Reference,
    gate: &mut Gate,
) -> f64 {
    let mut secs = Vec::new();
    for _ in 0..METRICS_REPS {
        let start = Instant::now();
        let mut metrics = PartitionMetrics::new(k, reference.num_vertices);
        for &(e, p) in &collected.assignments {
            hep_graph::AssignSink::assign(&mut metrics, e.src, e.dst, p);
        }
        let rf = std::hint::black_box(metrics.replication_factor());
        std::hint::black_box((metrics.balance_factor(), metrics.vertex_balance()));
        secs.push(start.elapsed().as_secs_f64());
        gate.attempted += 1;
        if rf != reference.rf {
            gate.fail(format!("metrics replay rf {rf} != reference {}", reference.rf));
        }
    }
    median(&secs)
}

/// The `--trace 1` run: untraced ops, and traced ops at all cores and at
/// one thread.
struct TracedRun {
    untraced_s: Vec<f64>,
    at_nproc: Vec<Trace>,
    at_one: Vec<Trace>,
}

impl TracedRun {
    fn measure(
        path: &Path,
        k: u32,
        config: &hep_core::HepConfig,
        reference: &Reference,
        gate: &mut Gate,
        deadline: Instant,
    ) -> Result<TracedRun, String> {
        let n = reference.num_vertices;
        let mut run =
            TracedRun { untraced_s: Vec::new(), at_nproc: Vec::new(), at_one: Vec::new() };
        let mut cycles = 0;
        while cycles < MIN_TRACE_CYCLES || Instant::now() < deadline {
            cycles += 1;
            let mut sink = OpSink::new(k, n, false);
            let (outcome, s, peak) = measured(|| e2e_op(path, config, k, &mut sink));
            gate.check("untraced op", &outcome, &sink, peak, reference);
            run.untraced_s.push(s);
            for one_thread in [false, true] {
                let mut sink = OpSink::new(k, n, false);
                let outcome = if one_thread {
                    hep_par::with_threads(1, || traced_op(path, config, k, &mut sink))
                } else {
                    traced_op(path, config, k, &mut sink)
                };
                let peak = outcome.as_ref().map_or(0, Trace::peak);
                let what = if one_thread { "traced op at 1 thread" } else { "traced op" };
                gate.check(what, &outcome, &sink, peak, reference);
                if let Ok(t) = &outcome {
                    println!(
                        "spans threads={} open={:.4} degree_pass={:.4} planner={:.4} \
                         csr_build={:.4} nepp={:.4} stream={:.4} total={:.4}",
                        if one_thread { 1 } else { hep_par::threads() },
                        t.open_s,
                        t.degree_pass_s,
                        t.planner_s,
                        t.csr_build_s,
                        t.nepp_s,
                        t.stream_s,
                        t.total_s()
                    );
                }
                match outcome {
                    Ok(t) if one_thread => run.at_one.push(t),
                    Ok(t) => run.at_nproc.push(t),
                    Err(_) => {}
                }
            }
        }
        if run.at_nproc.is_empty() || run.at_one.is_empty() {
            return Err("every traced op failed".into());
        }
        Ok(run)
    }

    fn report(&self, num_edges: u64, metrics_s: f64, report: &mut Report) {
        let t = &self.at_nproc;
        let one = &self.at_one;
        let first = &t[0];
        let payload_bytes = 8.0 * num_edges as f64;
        for (label, traces) in [("nproc", t), ("1thread", one)] {
            let total = median_of(traces, Trace::total_s);
            println!(
                "share {label} total_s={total} ingest={} planner={} nepp={} stream={} cycles={}",
                median_of(traces, Trace::ingest_s) / total,
                median_of(traces, |x| x.planner_s) / total,
                median_of(traces, |x| x.nepp_s) / total,
                median_of(traces, |x| x.stream_s) / total,
                traces.len(),
            );
        }
        println!("share metrics_vs_untraced_op={}", metrics_s / median(&self.untraced_s));
        let degree_s = median_of(t, |x| x.degree_pass_s);
        report.metric("ingest.open_s", median_of(t, |x| x.open_s), "s");
        report.metric("ingest.degree_pass_s", degree_s, "s");
        report.metric("ingest.degree_pass_bytes_per_s", payload_bytes / degree_s, "B/s");
        report.metric("ingest.csr_build_s", median_of(t, |x| x.csr_build_s), "s");
        report.metric("ingest.column_passes", first.plan.column_passes as f64, "count");
        report.metric("ingest.inmem_edges", first.inmem_edges as f64, "count");
        report.metric("ingest.h2h_edges", first.h2h_edges as f64, "count");
        report.metric("ingest.csr_heap_bytes", first.csr_heap_bytes as f64, "B");
        report.metric("ingest.peak_heap_bytes", median_of(t, |x| x.ingest_peak as f64), "B");
        let peak = median_of(t, |x| x.peak() as f64);
        report.metric("planner.s", median_of(t, |x| x.planner_s), "s");
        report.metric("planner.tau_ran", first.plan.tau, "1");
        report.metric("planner.estimated_peak_bytes", first.plan.estimated_peak_bytes as f64, "B");
        report.metric(
            "planner.peak_to_estimate",
            peak / first.plan.estimated_peak_bytes as f64,
            "1",
        );
        let nepp_s = median_of(t, |x| x.nepp_s);
        report.metric("nepp.s", nepp_s, "s");
        report.metric("nepp.cleanup_s", median_of(t, |x| x.cleanup_s), "s");
        report.metric("nepp.edges_per_s", first.inmem_edges as f64 / nepp_s, "1/s");
        report.metric("nepp.initializations", first.nepp_stats.initializations as f64, "count");
        report.metric("nepp.cleanup_fraction", first.nepp_stats.cleanup_fraction(), "1");
        report.metric("nepp.peak_heap_bytes", median_of(t, |x| x.nepp_peak as f64), "B");
        let stream_s = median_of(t, |x| x.stream_s);
        report.metric("stream.s", stream_s, "s");
        report.metric("stream.edges_per_s", first.h2h_edges as f64 / stream_s, "1/s");
        report.metric("stream.peak_heap_bytes", median_of(t, |x| x.stream_peak as f64), "B");
        report.metric("metrics.s", metrics_s, "s");
        let speedup = |f: fn(&Trace) -> f64| median_of(one, f) / median_of(t, f);
        report.metric("ingest.degree_pass.par_speedup", speedup(|x| x.degree_pass_s), "1");
        report.metric("ingest.csr_build.par_speedup", speedup(|x| x.csr_build_s), "1");
        report.metric("stream.par_speedup", speedup(|x| x.stream_s), "1");
        report.metric("e2e.par_speedup", speedup(Trace::total_s), "1");
        let untraced = median(&self.untraced_s);
        report.metric(
            "trace.overhead_frac",
            (median_of(t, Trace::total_s) - untraced) / untraced,
            "1",
        );
    }
}
