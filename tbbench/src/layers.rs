//! Per-layer metrics of the traced run: the replay harness, the
//! simulator-stage replay shared by the serve workloads, and the
//! mapping from spans and counters to named metrics.

use std::time::Instant;

use tbstc::jobspec::model_result_to_value;
use tbstc::runner::SimJob;
use tbstc::sim::compute::simulate_compute_on;
use tbstc::sim::memory::{simulate_memory_on, FormatOverride};
use tbstc::sim::{simulate_layer_on, Arch, BlockPlan, HwConfig, LayerSim, ModelResult, SimOptions};
use tbstc::sparsity::PatternKind;

use crate::prom::ServeDelta;
use crate::report::Report;
use crate::trace::Tracer;
use crate::Ctx;

/// End-to-end metrics, with units. Every untraced run reports all of
/// them.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cold_job_p50_ms", "ms"),
    ("cold_job_tail_ms", "ms"),
    ("cold_jobs_per_s", "1/s"),
    ("hit_p50_us", "us"),
    ("hit_tail_us", "us"),
    ("hits_per_s", "1/s"),
    ("sweep_points_per_s", "1/s"),
    ("train_samples_per_s", "1/s"),
];

/// Per-layer metrics other than the per-architecture simulator stages,
/// with units. Every traced run reports all of them.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("serve.mem_hits", "count"),
    ("serve.disk_hits", "count"),
    ("serve.mem_hit_ratio", "ratio"),
    ("serve.executed", "count"),
    ("serve.coalesced", "count"),
    ("serve.batched", "count"),
    ("serve.worker_busy_ratio", "ratio"),
    ("serve.non_exec_ms", "ms"),
    ("serve.sweep_chunks", "count"),
    ("serve.rejected", "count"),
    ("store.get_us", "us"),
    ("store.lru_get_us", "us"),
    ("store.body_bytes", "bytes"),
    ("store.put_us", "us"),
    ("store.append_memo_us", "us"),
    ("store.load_memo_ms", "ms"),
    ("core.parse_us", "us"),
    ("core.key_us", "us"),
    ("core.execute_ms", "ms"),
    ("runner.points", "count"),
    ("runner.memo_hit_ratio", "ratio"),
    ("runner.point_ms", "ms"),
    ("runner.parallel_efficiency", "ratio"),
    ("sparsity.build_us", "us"),
    ("sparsity.project_us", "us"),
    ("sim.plan_us", "us"),
    ("sim.compute_us", "us"),
    ("sim.memory_us", "us"),
    ("sim.rest_us", "us"),
    ("sim.blocks", "count"),
    ("sim.host_ns_per_block", "ns"),
    ("train.step_us", "us"),
    ("matrix.gemm_us", "us"),
    ("matrix.gemm_gflops", "GFLOP/s"),
];

/// The traced run's own cost: traced-minus-untraced replay time as a
/// share of the untraced time.
pub const TRACE_OVERHEAD: (&str, &str) = ("trace.overhead_pct", "%");

/// Spans whose mean self time is a metric: span, metric, ns per unit.
const SPAN_METRICS: [(&str, &str, f64); 15] = [
    ("core.parse", "core.parse_us", 1e3),
    ("core.key", "core.key_us", 1e3),
    ("core.execute", "core.execute_ms", 1e6),
    ("store.get", "store.get_us", 1e3),
    ("store.lru_get", "store.lru_get_us", 1e3),
    ("store.put", "store.put_us", 1e3),
    ("store.append_memo", "store.append_memo_us", 1e3),
    ("store.load_memo", "store.load_memo_ms", 1e6),
    ("sparsity.build", "sparsity.build_us", 1e3),
    ("sparsity.project", "sparsity.project_us", 1e3),
    ("sim.plan", "sim.plan_us", 1e3),
    ("sim.compute", "sim.compute_us", 1e3),
    ("sim.memory", "sim.memory_us", 1e3),
    ("train.step", "train.step_us", 1e3),
    ("matrix.gemm", "matrix.gemm_us", 1e3),
];

/// Every per-layer metric name with its unit, per-arch stages included.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for stage in ["sim.compute_us", "sim.memory_us"] {
        for arch in Arch::ALL {
            names.push((format!("{stage}.{}", arch.canonical_name()), "us"));
        }
    }
    names.push((TRACE_OVERHEAD.0.to_string(), TRACE_OVERHEAD.1));
    names
}

/// Replays `unit(t, state, i)` for i = 0, 1, … twice — once untraced,
/// once traced, each pass with its own `state()` — until the run's
/// seconds have passed or `units` run out. The passes alternate unit by
/// unit, and which goes first alternates too, so drift in machine speed
/// and warm caches fall on both alike. Records the traced-minus-untraced
/// time as the tracing overhead and returns the traced pass's tracer.
pub fn two_passes<S>(
    ctx: &Ctx,
    units: usize,
    state: &dyn Fn() -> Result<S, String>,
    unit: &mut dyn FnMut(&mut Tracer, &mut S, usize) -> Result<(), String>,
    report: &mut Report,
) -> Result<Tracer, String> {
    let mut passes = [
        (Tracer::new(false), state()?, 0.0),
        (Tracer::new(true), state()?, 0.0),
    ];
    let started = Instant::now();
    let mut n = 0;
    while n < units && (n == 0 || started.elapsed() < ctx.duration()) {
        for k in [n % 2, 1 - n % 2] {
            let (t, s, seconds) = &mut passes[k];
            let t0 = Instant::now();
            unit(t, s, n)?;
            *seconds += t0.elapsed().as_secs_f64();
        }
        n += 1;
    }
    let [(_, _, off_s), (on, _, on_s)] = passes;
    report.metric(
        TRACE_OVERHEAD.0,
        (on_s - off_s) / off_s * 100.0,
        TRACE_OVERHEAD.1,
    );
    eprintln!("  replay: {n} units, untraced {off_s:.3} s, traced {on_s:.3} s");
    Ok(on)
}

/// Re-runs one grid point through the simulator's public stages — the
/// layer build (sampling and pruning), `BlockPlan::build`,
/// `simulate_compute_on`, `simulate_memory_on`, and `simulate_layer_on`
/// (which repeats the three and adds codec and energy) — one span each,
/// and assembles the result the way `simulate_model_on` does.
pub fn replay_point(t: &mut Tracer, request: u64, job: SimJob, cfg: &HwConfig) -> ModelResult {
    let model = job.model.build();
    let arch = job.arch.model();
    let tag = job.arch.canonical_name();
    let policy = arch.native_schedule();
    let mut layers = Vec::with_capacity(model.layers.len());
    let mut total_cycles = 0u64;
    let mut total_energy_pj = 0.0f64;
    for (index, shape) in model.layers.iter().enumerate() {
        let sim = if shape.prunable {
            LayerSim::new(shape).arch(job.arch).sparsity(job.sparsity)
        } else {
            LayerSim::new(shape)
                .arch(job.arch)
                .pattern(PatternKind::Dense)
        };
        let layer = t.span("sparsity.build", tag, request, |_| {
            sim.seed(job.seed).build(cfg)
        });
        let stages = |t: &mut Tracer| {
            let plan = t.span("sim.plan", tag, request, |_| BlockPlan::build(&layer));
            t.count("sim.blocks", plan.len() as f64);
            std::hint::black_box(t.span("sim.compute", tag, request, |_| {
                simulate_compute_on(arch, &layer, &plan, cfg, policy)
            }));
            std::hint::black_box(t.span("sim.memory", tag, request, |_| {
                simulate_memory_on(arch, &layer, &plan, cfg, FormatOverride::Native)
            }));
        };
        let whole = |t: &mut Tracer| {
            t.span("sim.layer", tag, request, |_| {
                simulate_layer_on(arch, &layer, cfg, &SimOptions::native())
            })
        };
        // Whichever of the two runs second finds the caches warm; the
        // order alternates by layer so that bias cancels in `sim.rest_us`.
        let result = if index % 2 == 0 {
            stages(t);
            whole(t)
        } else {
            let result = whole(t);
            stages(t);
            result
        };
        total_cycles += result.cycles * shape.repeats as u64;
        total_energy_pj += result.energy_pj * shape.repeats as f64;
        layers.push(result);
    }
    ModelResult {
        arch: arch.id(),
        model: model.kind.to_string(),
        layers,
        total_cycles,
        total_energy_pj,
    }
}

/// Checks a replayed point against the `result` of a served or
/// executed body.
pub fn same_result(replayed: &ModelResult, body: &str) -> Result<(), String> {
    let parsed = tbstc::json::Json::parse(body.trim_end()).map_err(|e| e.to_string())?;
    let served = parsed
        .get("result")
        .ok_or("body without a result")?
        .to_string();
    if model_result_to_value(replayed).to_string() == served {
        Ok(())
    } else {
        Err("stage replay disagrees with JobSpec::execute".into())
    }
}

/// The serve metrics of one HTTP phase, from `/metrics` deltas.
pub fn serve_metrics(report: &mut Report, delta: &ServeDelta, wall_s: f64) {
    let hits = delta.mem_hits + delta.disk_hits;
    report.metric("serve.mem_hits", delta.mem_hits, "count");
    report.metric("serve.disk_hits", delta.disk_hits, "count");
    report.metric(
        "serve.mem_hit_ratio",
        if hits > 0.0 {
            delta.mem_hits / hits
        } else {
            0.0
        },
        "ratio",
    );
    report.metric("serve.executed", delta.executed, "count");
    report.metric("serve.coalesced", delta.coalesced, "count");
    report.metric("serve.batched", delta.batched, "count");
    report.metric(
        "serve.worker_busy_ratio",
        delta.busy_per_worker_s / wall_s,
        "ratio",
    );
    report.metric("serve.sweep_chunks", delta.sweep_chunks, "count");
    report.metric("serve.rejected", delta.rejected, "count");
}

/// Metrics derived from the traced pass's spans and counters.
pub fn span_metrics(t: &Tracer, report: &mut Report) {
    let totals = t.totals();
    for (span, metric, ns) in SPAN_METRICS {
        if let Some(total) = totals.get(span) {
            report.metric(
                metric,
                total.mean_self(ns),
                if ns == 1e6 { "ms" } else { "us" },
            );
        }
    }
    for arch in Arch::ALL {
        for (span, metric) in [
            ("sim.compute", "sim.compute_us"),
            ("sim.memory", "sim.memory_us"),
        ] {
            let name = arch.canonical_name();
            if let Some(total) = totals.get(&format!("{span}.{name}")) {
                report.metric(format!("{metric}.{name}"), total.mean_self(1e3), "us");
            }
        }
    }
    let total_ns = |name: &str| totals.get(name).map_or(0, |t| t.total_ns) as f64;
    if let Some(layer) = totals.get("sim.layer") {
        let stages = total_ns("sim.plan") + total_ns("sim.compute") + total_ns("sim.memory");
        report.metric(
            "sim.rest_us",
            (layer.total_ns as f64 - stages) / layer.count as f64 / 1e3,
            "us",
        );
        let blocks = t.counter("sim.blocks");
        report.metric("sim.blocks", blocks, "count");
        if blocks > 0.0 {
            report.metric(
                "sim.host_ns_per_block",
                layer.total_ns as f64 / blocks,
                "ns",
            );
        }
    }
    let bodies = t.counter("store.bodies");
    if bodies > 0.0 {
        report.metric(
            "store.body_bytes",
            t.counter("store.body_bytes") / bodies,
            "bytes",
        );
    }
    if total_ns("matrix.gemm") > 0.0 {
        // FLOPs are counted as 2·m·n·k per call, not measured.
        report.metric(
            "matrix.gemm_gflops",
            t.counter("matrix.flops") / total_ns("matrix.gemm"),
            "GFLOP/s",
        );
    }
    let points = t.counter("runner.points");
    if points > 0.0 {
        report.metric("runner.points", points, "count");
        report.metric(
            "runner.memo_hit_ratio",
            t.counter("runner.memo_hits") / points,
            "ratio",
        );
        report.metric(
            "runner.point_ms",
            t.counter("runner.busy_ns") / t.counter("runner.computed").max(1.0) / 1e6,
            "ms",
        );
        report.metric(
            "runner.parallel_efficiency",
            t.counter("runner.busy_ns") / t.counter("runner.capacity_ns"),
            "ratio",
        );
    }
}

/// Reports 0 for every per-layer metric the workload did not reach.
pub fn fill_absent(report: &mut Report) {
    for (name, unit) in per_layer_names() {
        if !report.metrics().contains_key(&name) {
            report.metric(name, 0.0, unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use tbstc::jobspec::JobSpec;
    use tbstc::runner::SweepRunner;

    fn declared(section: &str) -> BTreeSet<(String, String)> {
        let doc = tbstc::json::Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        doc.get(section)
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(|v| v.as_str()).unwrap().to_string(),
                    m.get("unit").and_then(|v| v.as_str()).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let e2e: BTreeSet<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: BTreeSet<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn stage_replay_reproduces_execute() {
        let text =
            r#"{"type":"simulate","arch":"rm-stc","model":"bert","sparsity":0.625,"seed":5}"#;
        let spec = JobSpec::from_json(text).unwrap();
        let engine = SweepRunner::new(HwConfig::with_bandwidth_gbps(spec.bandwidth_gbps()));
        let body = format!("{}\n", spec.execute(&engine));
        let mut t = Tracer::new(true);
        let replayed = replay_point(&mut t, 0, spec.grid_jobs()[0], engine.config());
        assert!(same_result(&replayed, &body).is_ok());
        let layers = replayed.layers.len() as u64;
        let totals = t.totals();
        for stage in [
            "sparsity.build",
            "sim.plan",
            "sim.compute",
            "sim.memory",
            "sim.layer",
        ] {
            assert_eq!(totals[stage].count, layers, "{stage}");
        }
        assert_eq!(totals["sim.compute.rm-stc"].count, layers);
        let mut other = replayed.clone();
        other.total_cycles += 1;
        assert!(same_result(&other, &body).is_err());
    }
}
