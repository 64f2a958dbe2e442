//! `durable-sweep`: pairs of sweep jobs above `long_job_points` across
//! all 8 archs and three models, submitted back to back and followed by
//! polling until each answers its terminal 200. The second sweep of a
//! pair shares half its grid with the first. This exercises runner
//! chunking and pool parallelism, sub-spec memo reuse, and the store's
//! writes (`append_memo` and a job document per chunk) — the
//! write-heavy use of the store; the front end barely runs.

use std::time::{Duration, Instant};

use tbstc::jobspec::JobSpec;
use tbstc::runner::{ChunkControl, SweepRunner};
use tbstc::sim::HwConfig;
use tbstc_serve::{MemoEntry, ResultStore, ServeConfig};

use crate::client::{Conn, Reply};
use crate::gen::sweep_pair;
use crate::layers;
use crate::load::{repeat, scrape, Limit};
use crate::oracle;
use crate::prom::{Scrape, ServeDelta};
use crate::report::Report;
use crate::server::ServerProc;
use crate::stats;
use crate::trace::Tracer;
use crate::{Ctx, Phase};

/// Pause between status polls: far below a sweep's length (~0.3 s).
const POLL_EVERY: Duration = Duration::from_millis(2);
/// A sweep not done after this long counts as failed.
const SWEEP_TIMEOUT: Duration = Duration::from_secs(120);

/// The sweeps of one HTTP phase.
struct Sweeps {
    conn: Conn,
    before: Scrape,
    /// Spec text and the terminal reply, per sweep in submission order.
    done: Vec<(String, Result<Reply, String>)>,
    /// Grid points of each pair (both sweeps).
    pair_points: Vec<usize>,
    /// First-POST-to-second-terminal-200 time of each pair, seconds.
    pair_seconds: Vec<f64>,
    /// Counter changes, set by [`Sweeps::close`].
    delta: ServeDelta,
}

/// POSTs a long sweep: it must be accepted 202 under its content key.
fn submit(conn: &mut Conn, text: &str) -> Result<String, String> {
    let reply = conn.call("POST", "/v1/jobs", text)?;
    if reply.status != 202 {
        return Err(format!("submit answered {} (want 202)", reply.status));
    }
    reply
        .header("x-job-key")
        .map(str::to_string)
        .ok_or_else(|| "202 without X-Job-Key".into())
}

/// Polls a durable job until it answers 200 with its result.
fn follow(conn: &mut Conn, key: &str) -> Result<Reply, String> {
    let started = Instant::now();
    let path = format!("/v1/jobs/{key}");
    loop {
        let reply = conn.call("GET", &path, "")?;
        match reply.status {
            200 => return Ok(reply),
            202 if started.elapsed() < SWEEP_TIMEOUT => std::thread::sleep(POLL_EVERY),
            202 => return Err("sweep timed out".into()),
            other => return Err(format!("poll answered {other}")),
        }
    }
}

impl Sweeps {
    fn open(server: &ServerProc) -> Result<Sweeps, String> {
        Ok(Sweeps {
            conn: Conn::connect(&server.addr)?,
            before: scrape(&server.addr)?,
            done: Vec::new(),
            pair_points: Vec::new(),
            pair_seconds: Vec::new(),
            delta: ServeDelta::default(),
        })
    }

    /// Submits the next pair back to back and follows both sweeps to
    /// their terminal 200.
    fn pair(&mut self, ctx: &Ctx, server: &ServerProc) -> Result<(), String> {
        let (a, b) = sweep_pair(ctx.seed, self.pair_points.len());
        let t0 = Instant::now();
        let keys = [submit(&mut self.conn, &a), submit(&mut self.conn, &b)];
        let replies: Vec<Result<Reply, String>> = keys
            .iter()
            .map(|key| key.clone().and_then(|k| follow(&mut self.conn, &k)))
            .collect();
        self.pair_seconds.push(t0.elapsed().as_secs_f64());
        let mut points = 0;
        for (text, reply) in [a, b].into_iter().zip(replies) {
            if reply.is_err() {
                self.conn = Conn::connect(&server.addr)?;
            }
            points += JobSpec::from_json(&text)
                .map_err(|e| e.to_string())?
                .grid_len();
            self.done.push((text, reply));
        }
        self.pair_points.push(points);
        Ok(())
    }

    fn close(&mut self, server: &ServerProc) -> Result<(), String> {
        self.delta = ServeDelta::between(&self.before, &scrape(&server.addr)?);
        Ok(())
    }
}

/// Checks each terminal body against the monolithic `execute` body
/// (a fresh engine per sweep) and reconciles the chunk count.
fn verify(sweeps: &Sweeps, report: &mut Report) -> Result<(), String> {
    let chunk = ServeConfig::default().chunk_size;
    let mut chunks = 0;
    for (i, (text, reply)) in sweeps.done.iter().enumerate() {
        let expected = oracle::expect(text)?;
        let outcome = reply
            .clone()
            .and_then(|r| oracle::check(&r, &expected, None));
        report.op("durable sweep", i, outcome);
        chunks += JobSpec::from_json(text)
            .map_err(|e| e.to_string())?
            .grid_len()
            .div_ceil(chunk);
    }
    let sweeps_sent = sweeps.done.len() as f64;
    report.reconcile(
        "durable-sweep serve.sweep_chunks = sum of ceil(grid / chunk)",
        sweeps.delta.sweep_chunks,
        chunks as f64,
    );
    report.reconcile(
        "durable-sweep serve.executed = sweeps",
        sweeps.delta.executed,
        sweeps_sent,
    );
    Ok(())
}

/// The untraced measurement: sweep pairs on one server.
pub struct Pairs {
    server: ServerProc,
    sweeps: Sweeps,
}

impl Pairs {
    /// Boots the server on a fresh directory.
    pub fn start(ctx: &Ctx) -> Result<Pairs, String> {
        let server = ServerProc::start(&ctx.fresh_dir("sweep"), ctx.workers)?;
        Ok(Pairs {
            sweeps: Sweeps::open(&server)?,
            server,
        })
    }
}

impl Phase for Pairs {
    fn done(&self) -> usize {
        self.sweeps.pair_points.len()
    }

    fn slice(&mut self, ctx: &Ctx, limit: Limit) -> Result<(), String> {
        repeat(limit, || self.sweeps.pair(ctx, &self.server))
    }

    fn setup_once(&self, ctx: &Ctx) -> Result<f64, String> {
        ServerProc::boot_once(&ctx.fresh_dir("sweep"), ctx.workers)
    }

    fn peak_rss_mb(&self, _ctx: &Ctx) -> Result<f64, String> {
        self.server.peak_rss_mb()
    }

    fn finish(mut self: Box<Self>, _ctx: &Ctx, report: &mut Report) -> Result<(), String> {
        self.sweeps.close(&self.server)?;
        self.server.stop()?;
        let sweeps = &self.sweeps;
        verify(sweeps, report)?;
        // Every pair has the same grid size, so the rate is its points
        // over the median pair time.
        let median_s = stats::median(&sweeps.pair_seconds);
        report.metric(
            "sweep_points_per_s",
            sweeps.pair_points[0] as f64 / median_s,
            "1/s",
        );
        eprintln!(
            "  durable-sweep: {} pairs of {} points, median {median_s:.3} s",
            sweeps.pair_points.len(),
            sweeps.pair_points[0],
        );
        Ok(())
    }
}

/// One replayed pair: both sweeps on one engine, as the server runs
/// them — chunked run with a memo append per chunk, assembly, store
/// write — then a stage replay of the first sweep's points at its first
/// seed and sparsity, each checked against the engine's result.
fn replay_pair(
    t: &mut Tracer,
    store: &ResultStore,
    pair: usize,
    texts: &[String; 2],
) -> Result<(), String> {
    let chunk = ServeConfig::default().chunk_size;
    let mut engine = None;
    let mut first_grid = Vec::new();
    for (k, text) in texts.iter().enumerate() {
        let request = (2 * pair + k) as u64;
        t.span("job", "", request, |t| {
            let spec = t
                .span("core.parse", "", request, |_| JobSpec::from_json(text))
                .map_err(|e| e.to_string())?;
            let key = t.span("core.key", "", request, |_| spec.cache_key());
            let bandwidth_gbps = spec.bandwidth_gbps();
            let engine = engine.get_or_insert_with(|| {
                SweepRunner::new(HwConfig::with_bandwidth_gbps(bandwidth_gbps))
            });
            let grid = spec.grid_jobs();
            let run = t.span("runner.run", "", request, |t| {
                engine.run_models_chunked(&grid, chunk, &mut |cp| {
                    let entries: Vec<MemoEntry> = cp
                        .chunk_jobs
                        .iter()
                        .zip(cp.chunk_results)
                        .map(|(&job, result)| MemoEntry {
                            bandwidth_gbps,
                            job,
                            result: result.clone(),
                        })
                        .collect();
                    let appended = t.span("store.append_memo", "", request, |_| {
                        store.append_memo(&entries)
                    });
                    if appended.is_ok() {
                        ChunkControl::Continue
                    } else {
                        ChunkControl::Stop
                    }
                })
            });
            let stats = run
                .ok_or("replayed sweep stopped: memo append failed")?
                .stats;
            t.count("runner.points", stats.jobs as f64);
            t.count("runner.memo_hits", stats.cache_hits as f64);
            t.count("runner.computed", stats.unique_jobs as f64);
            t.count("runner.busy_ns", stats.busy().as_nanos() as f64);
            t.count(
                "runner.capacity_ns",
                stats.wall.as_nanos() as f64 * stats.workers as f64,
            );
            let body = t.span("core.execute", "", request, |_| {
                format!("{}\n", spec.execute(engine))
            });
            t.span("store.put", "", request, |_| store.put(&key, &body))
                .map_err(|e| e.to_string())?;
            t.count("store.body_bytes", body.len() as f64);
            t.count("store.bodies", 1.0);
            if k == 0 {
                first_grid = grid;
            }
            Ok::<(), String>(())
        })?;
    }
    let engine = engine.ok_or("pair without sweeps")?;
    let Some(first) = first_grid.first().copied() else {
        return Err("empty sweep grid".into());
    };
    let request = (2 * pair) as u64;
    for job in first_grid
        .into_iter()
        .filter(|j| j.seed == first.seed && j.sparsity == first.sparsity)
    {
        let replayed = layers::replay_point(t, request, job, engine.config());
        let served = tbstc::jobspec::model_result_to_value(&engine.model(job)).to_string();
        if tbstc::jobspec::model_result_to_value(&replayed).to_string() != served {
            return Err(format!("stage replay of {job} disagrees with the runner"));
        }
    }
    Ok(())
}

/// The traced run: pairs over HTTP for the serve counters, then the
/// same pairs replayed in process with spans.
pub fn trace(ctx: &Ctx, report: &mut Report) -> Result<Tracer, String> {
    let server = ServerProc::start(&ctx.fresh_dir("sweep"), ctx.workers)?;
    let mut sweeps = Sweeps::open(&server)?;
    repeat(Limit::For(ctx.duration()), || sweeps.pair(ctx, &server))?;
    sweeps.close(&server)?;
    server.stop()?;
    verify(&sweeps, report)?;
    layers::serve_metrics(report, &sweeps.delta, sweeps.pair_seconds.iter().sum());
    layers::two_passes(
        ctx,
        sweeps.pair_points.len(),
        &|| Ok(()),
        &mut |t, (), p| {
            let (a, b) = sweep_pair(ctx.seed, p);
            let store =
                ResultStore::open(ctx.fresh_dir("replay-sweep")).map_err(|e| e.to_string())?;
            replay_pair(t, &store, p, &[a, b])
        },
        report,
    )
}
