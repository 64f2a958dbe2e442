//! `warm-hit`: set-up fills the store with a universe of tiny simulate
//! specs larger than the hot tier (`DEFAULT_HOT_CAPACITY`), restarts a
//! fresh server on the same directory, and sends zipfian (s = 1.1)
//! requests. Hits come mostly from the in-memory tier with a steady
//! share from disk. The simulator, sparsifier and runner do nothing
//! here — every simulator change should show no change on it — while
//! the front end, spec parse and key, LRU and store reads do all the
//! work. The restart puts the boot-time store open and memo preload
//! into `setup_s`.

use std::path::PathBuf;

use tbstc::jobspec::JobSpec;
use tbstc::runner::parallel_map;
use tbstc_serve::lru::DEFAULT_HOT_CAPACITY;
use tbstc_serve::{ResultStore, ShardedLru};

use crate::gen::WarmSpecs;
use crate::layers;
use crate::load::{closed_loop, repeat, scrape, Limit, Run};
use crate::oracle::{self, Expected};
use crate::prom::{Scrape, ServeDelta};
use crate::report::Report;
use crate::server::ServerProc;
use crate::stats;
use crate::trace::Tracer;
use crate::{Ctx, Phase};

/// Universe: twice the hot tier.
const UNIVERSE: usize = 2 * DEFAULT_HOT_CAPACITY;
/// Hits per segment. Each segment is a fresh connection from a fresh
/// client thread, and a run's hit latency and rate are medians over
/// its segments: on a virtual machine a connection's round trip
/// settles at one of a few speeds and keeps it, so a single long
/// connection would report whichever speed it drew.
const SEGMENT: usize = 5000;
/// Hits the traced run replays (keeps the span file near 20 MB).
const REPLAY_HITS: usize = 50_000;
/// One caller: a second only adds scheduler contention on a 2-core
/// machine, and with it run-to-run noise.
const HIT_CLIENTS: usize = 1;
/// Preferred tail percentile: 250 hits lie beyond p95 in every
/// segment. About 13% of hits come from disk, so p95 is a disk hit;
/// higher rungs add scheduler noise on a 2-core machine.
const TAIL: f64 = 95.0;

/// Per hit: the check outcome and whether the disk tier served it.
type Hits = Run<(Result<(), String>, bool)>;

/// The hits of one phase, segment by segment, and the counter deltas.
struct HitRun {
    segments: Vec<Hits>,
    delta: ServeDelta,
}

fn expected_bodies(ctx: &Ctx, warm: &WarmSpecs) -> Result<Vec<Expected>, String> {
    let members: Vec<usize> = (0..warm.len()).collect();
    parallel_map(&members, ctx.workers, |_, &m| oracle::expect(&warm.spec(m)))
        .into_iter()
        .map(|(e, _)| e)
        .collect()
}

/// Computes every universe member once through the server; each reply
/// must be a miss with the oracle's body.
fn fill(
    ctx: &Ctx,
    server: &ServerProc,
    warm: &WarmSpecs,
    expected: &[Expected],
    report: &mut Report,
) {
    let run = closed_loop(
        &server.addr,
        ctx.workers.min(2),
        Limit::Count(warm.len()),
        &|m| warm.spec(m),
        &|m, reply| reply.and_then(|r| oracle::check(&r, &expected[m], Some("miss"))),
    );
    for op in run.ops {
        report.op("warm fill", op.index, op.kept);
    }
}

/// Sends segment `k` of the zipfian stream (positions `k·SEGMENT ..`)
/// on a fresh connection. Every reply must be a hit with the oracle's
/// body.
fn segment(server: &ServerProc, warm: &WarmSpecs, expected: &[Expected], k: usize) -> Hits {
    let base = k * SEGMENT;
    closed_loop(
        &server.addr,
        HIT_CLIENTS,
        Limit::Count(SEGMENT),
        &|i| warm.spec(warm.request(base + i)),
        &|i, reply| match reply {
            Ok(r) => (
                oracle::check(&r, &expected[warm.request(base + i)], Some("hit")),
                r.header("x-cache-tier") == Some("disk"),
            ),
            Err(e) => (Err(e), false),
        },
    )
}

/// Tallies the hits, reconciles the counters (nothing executed; mem +
/// disk hits = requests), and returns each segment's passing latencies
/// (µs) with its wall time.
fn verify(run: &HitRun, report: &mut Report) -> Vec<(Vec<f64>, f64)> {
    let mut sent = 0.0;
    let mut segments = Vec::with_capacity(run.segments.len());
    for (k, segment) in run.segments.iter().enumerate() {
        let mut ok = Vec::with_capacity(segment.ops.len());
        for op in &segment.ops {
            if op.kept.0.is_ok() {
                ok.push(op.latency_s * 1e6);
            }
            report.op("warm hit", k * SEGMENT + op.index, op.kept.0.clone());
            sent += 1.0;
        }
        segments.push((ok, segment.wall_s));
    }
    report.reconcile("warm-hit serve.executed = 0", run.delta.executed, 0.0);
    report.reconcile(
        "warm-hit mem + disk hits = requests",
        run.delta.mem_hits + run.delta.disk_hits,
        sent,
    );
    segments
}

/// The untraced measurement: hit segments on the restarted server.
pub struct Warm {
    warm: WarmSpecs,
    expected: Vec<Expected>,
    server: ServerProc,
    /// The filled store.
    dir: PathBuf,
    before: Scrape,
    run: HitRun,
}

impl Warm {
    /// Fills the store, then restarts the server on it.
    pub fn start(ctx: &Ctx, report: &mut Report) -> Result<Warm, String> {
        let warm = WarmSpecs::new(ctx.seed, UNIVERSE);
        let expected = expected_bodies(ctx, &warm)?;
        let dir = ctx.fresh_dir("warm");
        let filler = ServerProc::start(&dir, ctx.workers)?;
        fill(ctx, &filler, &warm, &expected, report);
        filler.stop()?;
        let server = ServerProc::start(&dir, ctx.workers)?;
        Ok(Warm {
            before: scrape(&server.addr)?,
            warm,
            expected,
            server,
            dir,
            run: HitRun {
                segments: Vec::new(),
                delta: ServeDelta::default(),
            },
        })
    }
}

impl Phase for Warm {
    fn done(&self) -> usize {
        self.run.segments.len()
    }

    fn slice(&mut self, _ctx: &Ctx, limit: Limit) -> Result<(), String> {
        repeat(limit, || {
            let k = self.run.segments.len();
            let hits = segment(&self.server, &self.warm, &self.expected, k);
            self.run.segments.push(hits);
            Ok(())
        })
    }

    /// A second server booting on the filled store (the running one is
    /// idle between slices): store open and memo preload included.
    fn setup_once(&self, ctx: &Ctx) -> Result<f64, String> {
        ServerProc::boot_once(&self.dir, ctx.workers)
    }

    fn peak_rss_mb(&self, _ctx: &Ctx) -> Result<f64, String> {
        self.server.peak_rss_mb()
    }

    fn finish(mut self: Box<Self>, _ctx: &Ctx, report: &mut Report) -> Result<(), String> {
        self.run.delta = ServeDelta::between(&self.before, &scrape(&self.server.addr)?);
        self.server.stop()?;
        let segments = verify(&self.run, report);
        let pct = stats::tail_pct(SEGMENT, TAIL).ok_or("hit segments too short for a tail")?;
        let s = stats::over_segments(&segments, pct);
        report.metric("hit_p50_us", s.p50, "us");
        report.metric("hit_tail_us", s.tail, "us");
        report.metric("hits_per_s", s.rate, "1/s");
        let ops = self.run.segments.iter().flat_map(|seg| &seg.ops);
        let (n, disk) = ops.fold((0, 0), |(n, d), op| (n + 1, d + usize::from(op.kept.1)));
        eprintln!(
            "  warm-hit: {n} hits ({:.2}% from disk); medians over {} segments of {SEGMENT}; hit_tail_us is p{pct}",
            100.0 * disk as f64 / n.max(1) as f64,
            s.segments
        );
        Ok(())
    }
}

/// One replayed hit: parse, key, hot-tier lookup, and on a hot miss the
/// disk read and promotion — what the server does per request.
fn replay_hit(
    t: &mut Tracer,
    store: &ResultStore,
    hot: &ShardedLru,
    request: u64,
    text: &str,
) -> Result<(), String> {
    t.span("hit", "", request, |t| {
        let spec = t
            .span("core.parse", "", request, |_| JobSpec::from_json(text))
            .map_err(|e| e.to_string())?;
        let key = t.span("core.key", "", request, |_| spec.cache_key());
        let body = match t.span("store.lru_get", "", request, |_| hot.get(&key)) {
            Some(body) => body,
            None => {
                let body = t
                    .span("store.get", "", request, |_| store.get(&key))
                    .ok_or("replayed hit missing from the store")?;
                hot.put(&key, &body);
                body
            }
        };
        t.count("store.body_bytes", body.len() as f64);
        t.count("store.bodies", 1.0);
        Ok(())
    })
}

/// The traced run: fill, restart, hits over HTTP for the serve
/// counters; then the same request stream replayed against the filled
/// store and a fresh hot tier, and one timed memo load.
pub fn trace(ctx: &Ctx, report: &mut Report) -> Result<Tracer, String> {
    let warm = WarmSpecs::new(ctx.seed, UNIVERSE);
    let expected = expected_bodies(ctx, &warm)?;
    let dir = ctx.fresh_dir("warm");
    let filler = ServerProc::start(&dir, ctx.workers)?;
    fill(ctx, &filler, &warm, &expected, report);
    filler.stop()?;
    let server = ServerProc::start(&dir, ctx.workers)?;
    let before = scrape(&server.addr)?;
    let mut segments = Vec::new();
    repeat(Limit::For(ctx.duration()), || {
        segments.push(segment(&server, &warm, &expected, segments.len()));
        Ok(())
    })?;
    let delta = ServeDelta::between(&before, &scrape(&server.addr)?);
    let run = HitRun { segments, delta };
    server.stop()?;
    verify(&run, report);
    let wall_s: f64 = run.segments.iter().map(|seg| seg.wall_s).sum();
    layers::serve_metrics(report, &run.delta, wall_s);

    let store = ResultStore::open(dir.clone()).map_err(|e| e.to_string())?;
    let mut tracer = layers::two_passes(
        ctx,
        (run.segments.len() * SEGMENT).min(REPLAY_HITS),
        &|| Ok(ShardedLru::new(DEFAULT_HOT_CAPACITY)),
        &mut |t, hot, i| {
            let text = warm.spec(warm.request(i));
            replay_hit(t, &store, hot, i as u64, &text)
        },
        report,
    )?;
    let memo = tracer.span("store.load_memo", "", 0, |_| store.load_memo());
    if memo.len() != warm.len() {
        report.violation(format!(
            "warm-hit memo holds {} entries, want {}",
            memo.len(),
            warm.len()
        ));
    }
    Ok(tracer)
}
