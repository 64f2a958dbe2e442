//! `cold-sim`: distinct `simulate` specs over HTTP that all miss,
//! spread over all 8 archs, the 6 models at CLI default shapes and four
//! sparsities in seed-shuffled stratified rounds. The simulator and the
//! sparsifier do almost all the work; the front end and store do
//! little. Job sizes run from ~1 ms (gcn/tc) to ~45 ms
//! (resnet50/tb-stc), so the tail tracks the heavy sparse-arch layers.

use tbstc::jobspec::JobSpec;
use tbstc::runner::{parallel_map, SweepRunner};
use tbstc::sim::HwConfig;
use tbstc_serve::ResultStore;

use crate::client::Reply;
use crate::gen::ColdSpecs;
use crate::layers;
use crate::load::{closed_loop, scrape, Limit, Run};
use crate::oracle;
use crate::prom::{Scrape, ServeDelta};
use crate::report::Report;
use crate::server::ServerProc;
use crate::stats;
use crate::trace::Tracer;
use crate::{Ctx, Phase};

/// Closed-loop callers: two, so both job workers stay busy.
const CLIENTS: usize = 2;
/// Preferred tail percentile: a probe's two 192-job rounds have 19 jobs
/// beyond p95. The job-size mix has a step between p90 and p92, so a
/// lower rung would swing with the seed.
const TAIL: f64 = 95.0;

type Replies = Run<Result<Reply, String>>;

fn drive(
    ctx: &Ctx,
    server: &ServerProc,
    specs: &ColdSpecs,
    limit: Limit,
) -> Result<(Replies, ServeDelta), String> {
    let before = scrape(&server.addr)?;
    let run = closed_loop(
        &server.addr,
        CLIENTS.min(ctx.workers),
        limit,
        &|i| specs.spec(i),
        &|_, r| r,
    );
    let after = scrape(&server.addr)?;
    Ok((run, ServeDelta::between(&before, &after)))
}

/// Checks every reply against the oracle (computed after the timed
/// region) and reconciles the counters: every job executed exactly
/// once, every reply a miss, nothing coalesced. Returns the latencies
/// of the replies that passed, in ms, by input position.
fn verify(
    ctx: &Ctx,
    specs: &ColdSpecs,
    run: &Replies,
    delta: &ServeDelta,
    report: &mut Report,
) -> Vec<Option<f64>> {
    let expected = parallel_map(&run.ops, ctx.workers, |_, op| {
        oracle::expect(&specs.spec(op.index))
    });
    let mut misses = 0.0;
    let mut latencies = Vec::with_capacity(run.ops.len());
    for (op, (expected, _)) in run.ops.iter().zip(expected) {
        let outcome = match (&op.kept, expected) {
            (Ok(reply), Ok(expected)) => oracle::check(reply, &expected, Some("miss")),
            (Err(e), _) => Err(e.clone()),
            (_, Err(e)) => Err(e),
        };
        if let Ok(reply) = &op.kept {
            if reply.header("x-cache") == Some("miss") {
                misses += 1.0;
            }
        }
        latencies.push(outcome.is_ok().then_some(op.latency_s * 1e3));
        report.op("cold job", op.index, outcome);
    }
    let sent = run.ops.len() as f64;
    report.reconcile("cold-sim serve.executed = jobs sent", delta.executed, sent);
    report.reconcile("cold-sim disk misses = jobs sent", delta.disk_misses, sent);
    report.reconcile("cold-sim X-Cache miss replies = jobs sent", misses, sent);
    report.reconcile("cold-sim serve.coalesced = 0", delta.coalesced, 0.0);
    latencies
}

/// The untraced measurement: cold jobs in input order.
pub struct Cold {
    specs: ColdSpecs,
    server: ServerProc,
    before: Scrape,
    /// Replies of the slices so far, indices absolute.
    run: Replies,
}

impl Cold {
    /// Boots the server on a fresh directory.
    pub fn start(ctx: &Ctx) -> Result<Cold, String> {
        let server = ServerProc::start(&ctx.fresh_dir("cold"), ctx.workers)?;
        Ok(Cold {
            specs: ColdSpecs::new(ctx.seed),
            before: scrape(&server.addr)?,
            server,
            run: Run {
                ops: Vec::new(),
                wall_s: 0.0,
            },
        })
    }
}

impl Phase for Cold {
    fn done(&self) -> usize {
        self.run.ops.len()
    }

    fn slice(&mut self, ctx: &Ctx, limit: Limit) -> Result<(), String> {
        let base = self.done();
        let specs = &self.specs;
        let run = closed_loop(
            &self.server.addr,
            CLIENTS.min(ctx.workers),
            limit,
            &|i| specs.spec(base + i),
            &|_, r| r,
        );
        self.run.wall_s += run.wall_s;
        self.run.ops.extend(run.ops.into_iter().map(|mut op| {
            op.index += base;
            op
        }));
        Ok(())
    }

    fn setup_once(&self, ctx: &Ctx) -> Result<f64, String> {
        ServerProc::boot_once(&ctx.fresh_dir("cold"), ctx.workers)
    }

    fn peak_rss_mb(&self, _ctx: &Ctx) -> Result<f64, String> {
        self.server.peak_rss_mb()
    }

    fn finish(self: Box<Self>, ctx: &Ctx, report: &mut Report) -> Result<(), String> {
        let delta = ServeDelta::between(&self.before, &scrape(&self.server.addr)?);
        self.server.stop()?;
        let mut ok: Vec<f64> = verify(ctx, &self.specs, &self.run, &delta, report)
            .into_iter()
            .flatten()
            .collect();
        let n = ok.len();
        let (p50, tail, pct) = stats::median_and_tail(&mut ok, TAIL)
            .ok_or_else(|| format!("{n} cold jobs are too few for a tail"))?;
        report.metric("cold_job_p50_ms", p50, "ms");
        report.metric("cold_job_tail_ms", tail, "ms");
        report.metric("cold_jobs_per_s", n as f64 / self.run.wall_s, "1/s");
        eprintln!(
            "  cold-sim: {n} jobs in {:.2} s; cold_job_tail_ms is p{pct} of {n}",
            self.run.wall_s
        );
        Ok(())
    }
}

/// One replayed job: parse, key, execute on a fresh engine, store the
/// body, then the stage replay, which must reproduce the body's result.
fn replay_job(t: &mut Tracer, store: &ResultStore, request: u64, text: &str) -> Result<(), String> {
    t.span("job", "", request, |t| {
        let spec = t
            .span("core.parse", "", request, |_| JobSpec::from_json(text))
            .map_err(|e| e.to_string())?;
        let key = t.span("core.key", "", request, |_| spec.cache_key());
        let engine = SweepRunner::new(HwConfig::with_bandwidth_gbps(spec.bandwidth_gbps()));
        let body = t.span("core.execute", "", request, |_| {
            format!("{}\n", spec.execute(&engine))
        });
        t.span("store.put", "", request, |_| store.put(&key, &body))
            .map_err(|e| e.to_string())?;
        t.count("store.body_bytes", body.len() as f64);
        t.count("store.bodies", 1.0);
        let job = *spec
            .grid_jobs()
            .first()
            .ok_or("cold spec without a grid point")?;
        let replayed = layers::replay_point(t, request, job, engine.config());
        layers::same_result(&replayed, &body)
    })
}

/// The traced run: the workload over HTTP for the serve counters, then
/// the same specs replayed in process with spans.
pub fn trace(ctx: &Ctx, report: &mut Report) -> Result<Tracer, String> {
    let specs = ColdSpecs::new(ctx.seed);
    let server = ServerProc::start(&ctx.fresh_dir("cold"), ctx.workers)?;
    let (run, delta) = drive(ctx, &server, &specs, Limit::For(ctx.duration()))?;
    server.stop()?;
    let latencies = verify(ctx, &specs, &run, &delta, report);
    layers::serve_metrics(report, &delta, run.wall_s);

    let texts: Vec<String> = run.ops.iter().map(|op| specs.spec(op.index)).collect();
    let tracer = layers::two_passes(
        ctx,
        texts.len(),
        &|| ResultStore::open(ctx.fresh_dir("replay-store")).map_err(|e| e.to_string()),
        &mut |t, store, i| replay_job(t, store, i as u64, &texts[i]),
        report,
    )?;
    // Time outside execution: client latency minus the in-process
    // execute time of the same spec.
    let non_exec: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "core.execute")
        .filter_map(|s| {
            let latency = latencies.get(s.request as usize).copied().flatten()?;
            Some(latency - (s.end_ns - s.start_ns) as f64 / 1e6)
        })
        .collect();
    report.metric("serve.non_exec_ms", stats::median(&non_exec), "ms");
    Ok(tracer)
}
