//! `tbbench` — the TB-STC reproduction's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! tbbench --workload <cold-sim|warm-hit|durable-sweep|sparse-train>
//!         --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) measures the named workload for
//! `--seconds` and prints every end-to-end metric; the other three
//! workloads' metrics come from probes, which run the same code on the
//! same shapes for a fixed count of units ([`probe_units`]), so every
//! run reports every metric. The named workload and the probes run
//! interleaved in [`ROUNDS`] slices, so that drift in the machine's
//! speed over the run falls on all of them alike. A traced run
//! (`--trace 1`) replays the workload's generated inputs, wraps each
//! public call into a crate in a span, and prints every per-layer
//! metric (0 for layers the workload does not reach) plus the tracing
//! overhead. Every output is checked;
//! the last line of standard output is the JSON result. See README.md.

#![forbid(unsafe_code)]

mod client;
mod cold;
mod gen;
mod layers;
mod load;
mod oracle;
mod prom;
mod report;
mod server;
mod stats;
mod sweep;
mod trace;
mod train;
mod warm;

use std::cell::Cell;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use load::Limit;
use report::Report;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct simulate jobs over HTTP that all miss.
    ColdSim,
    /// Zipfian hits on a restarted server over a filled store.
    WarmHit,
    /// Pairs of half-overlapping durable sweeps.
    DurableSweep,
    /// In-process sparse training at TBS 0.75.
    SparseTrain,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdSim,
        Workload::WarmHit,
        Workload::DurableSweep,
        Workload::SparseTrain,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSim => "cold-sim",
            Workload::WarmHit => "warm-hit",
            Workload::DurableSweep => "durable-sweep",
            Workload::SparseTrain => "sparse-train",
        }
    }
}

/// Slices an untraced run is cut into.
pub const ROUNDS: usize = 4;

/// Units of a probe of `workload`: cold jobs (two stratified rounds),
/// hit segments, sweep pairs or training runs.
pub fn probe_units(workload: Workload) -> usize {
    match workload {
        Workload::ColdSim => 2 * gen::ColdSpecs::ROUND_LEN,
        Workload::WarmHit => 10,
        Workload::DurableSweep => 3,
        Workload::SparseTrain => 4,
    }
}

/// Units of a probe's `total` due by the end of slice `round`.
pub fn due(total: usize, round: usize) -> usize {
    ((round + 1) * total).div_ceil(ROUNDS)
}

/// One workload's untraced measurement, run slice by slice. The named
/// workload and a probe run the same phase; only the limit of each
/// slice differs.
pub trait Phase {
    /// Units measured so far: cold jobs, hit segments, sweep pairs or
    /// training runs.
    fn done(&self) -> usize;
    /// Measures units until `limit`.
    fn slice(&mut self, ctx: &Ctx, limit: Limit) -> Result<(), String>;
    /// Repeats, on the side, the set-up the phase did before its first
    /// slice, and returns its time in seconds.
    fn setup_once(&self, ctx: &Ctx) -> Result<f64, String>;
    /// Peak RSS (MiB) of the process that does the workload's work.
    fn peak_rss_mb(&self, ctx: &Ctx) -> Result<f64, String>;
    /// Stops what the phase started, checks every output and records
    /// its metrics.
    fn finish(self: Box<Self>, ctx: &Ctx, report: &mut Report) -> Result<(), String>;
}

/// After every slice of every phase — a moment — the named workload's
/// set-up is repeated until the set-up time accumulated over the run
/// reaches the share of `SETUP_BUDGET_S` due by that moment (at most
/// `SETUP_MAX` times a moment); `setup_s` is the median over the run.
/// Spreading the repeats over the run, like the slices, keeps a short
/// slow or fast stretch of the machine from deciding the figure, and the
/// budget keeps a long set-up from lengthening the run.
const SETUP_MAX: usize = 25;
const SETUP_BUDGET_S: f64 = 1.2;

/// Adds moment `moment`'s set-up repeats of `phase` to `times`.
fn sample_setup(
    ctx: &Ctx,
    phase: &dyn Phase,
    moment: usize,
    moments: usize,
    times: &mut Vec<f64>,
) -> Result<(), String> {
    let due_s = SETUP_BUDGET_S * (moment + 1) as f64 / moments as f64;
    let mut n = 0;
    while n < SETUP_MAX && times.iter().sum::<f64>() < due_s {
        times.push(phase.setup_once(ctx)?);
        n += 1;
    }
    Ok(())
}

/// One run's settings and scratch space.
#[derive(Debug)]
pub struct Ctx {
    /// The workload measured (or traced).
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds of the main phase.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Machine parallelism: the server's job workers and `TBSTC_JOBS`,
    /// and the most threads the benchmark itself runs.
    pub workers: usize,
    run_dir: PathBuf,
    dirs: Cell<usize>,
}

impl Ctx {
    /// The main phase's measuring time.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// The main phase's measuring time per slice.
    pub fn slice_duration(&self) -> Duration {
        self.duration() / ROUNDS as u32
    }

    /// A new, uniquely named directory under this run's scratch space.
    pub fn fresh_dir(&self, tag: &str) -> PathBuf {
        let n = self.dirs.get();
        self.dirs.set(n + 1);
        self.run_dir.join(format!("{tag}-{n}"))
    }

    /// Where the traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        self.run_dir.with_file_name(format!(
            "trace-{}-seed{}.jsonl",
            self.workload.name(),
            self.seed
        ))
    }
}

/// Sets up `workload`'s measurement.
fn start(ctx: &Ctx, workload: Workload, report: &mut Report) -> Result<Box<dyn Phase>, String> {
    Ok(match workload {
        Workload::ColdSim => Box::new(cold::Cold::start(ctx)?),
        Workload::WarmHit => Box::new(warm::Warm::start(ctx, report)?),
        Workload::DurableSweep => Box::new(sweep::Pairs::start(ctx)?),
        Workload::SparseTrain => Box::new(train::Train::start(ctx)?),
    })
}

fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    eprintln!(
        "tbbench {} seed {} ({} s, trace {}): job_workers={} {}={}",
        ctx.workload.name(),
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.workers,
        tbstc::runner::JOBS_ENV,
        ctx.workers,
    );
    if ctx.trace {
        let tracer = match ctx.workload {
            Workload::ColdSim => cold::trace(ctx, &mut report)?,
            Workload::WarmHit => warm::trace(ctx, &mut report)?,
            Workload::DurableSweep => sweep::trace(ctx, &mut report)?,
            Workload::SparseTrain => train::trace(ctx, &mut report)?,
        };
        layers::span_metrics(&tracer, &mut report);
        layers::fill_absent(&mut report);
        let path = ctx.trace_path();
        std::fs::write(&path, tracer.to_jsonl())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!(
            "  spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
    } else {
        let t0 = Instant::now();
        let mut phases = Vec::with_capacity(Workload::ALL.len());
        phases.push((start(ctx, ctx.workload, &mut report)?, None));
        for other in Workload::ALL.into_iter().filter(|&w| w != ctx.workload) {
            phases.push((start(ctx, other, &mut report)?, Some(probe_units(other))));
        }
        let started_s = t0.elapsed().as_secs_f64();
        let mut setup_times = Vec::new();
        let mut setup_wall_s = 0.0;
        let moments = ROUNDS * phases.len();
        for round in 0..ROUNDS {
            for k in 0..phases.len() {
                let (phase, probe) = &mut phases[k];
                let limit = match *probe {
                    None => Some(Limit::For(ctx.slice_duration())),
                    Some(total) => match due(total, round) - phase.done() {
                        0 => None,
                        n => Some(Limit::Count(n)),
                    },
                };
                if let Some(limit) = limit {
                    phase.slice(ctx, limit)?;
                }
                let t = Instant::now();
                let moment = round * phases.len() + k;
                sample_setup(ctx, phases[0].0.as_ref(), moment, moments, &mut setup_times)?;
                setup_wall_s += t.elapsed().as_secs_f64();
            }
        }
        report.metric("setup_s", stats::median(&setup_times), "s");
        eprintln!(
            "  setup: {} repeats, median {:.4} s, min {:.4} s",
            setup_times.len(),
            stats::median(&setup_times),
            setup_times.iter().copied().fold(f64::INFINITY, f64::min)
        );
        let named = &phases[0].0;
        report.metric("peak_rss_mb", named.peak_rss_mb(ctx)?, "MB");
        let measured_s = t0.elapsed().as_secs_f64();
        for (phase, _) in phases {
            phase.finish(ctx, &mut report)?;
        }
        eprintln!(
            "  wall: {started_s:.1} s starting, {setup_wall_s:.1} s set-up repeats, {:.1} s slices, {:.1} s checks",
            measured_s - started_s - setup_wall_s,
            t0.elapsed().as_secs_f64() - measured_s
        );
        if let Some((name, _)) = layers::END_TO_END
            .iter()
            .find(|(name, _)| !report.metrics().contains_key(*name))
        {
            return Err(format!("end-to-end metric {name} was not measured"));
        }
    }
    Ok(report)
}

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed wants an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds wants a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed: u64 = seed.ok_or("--seed is required")?;
    let trace = trace.unwrap_or(false);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Scratch space inside the working directory, unique per process.
    let run_dir = PathBuf::from(".bench_run").join(format!(
        "{}-seed{seed}-trace{}-pid{}",
        workload.name(),
        u8::from(trace),
        std::process::id()
    ));
    Ok(Ctx {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        workers,
        run_dir,
        dirs: Cell::new(0),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => return server::child_main(&args[1..]),
        Some("train") => return train::child_main(&args[1..]),
        _ => {}
    }
    let ctx = match parse_args(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("tbbench: {e}\nusage: tbbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.run_dir) {
        eprintln!("tbbench: create {}: {e}", ctx.run_dir.display());
        return ExitCode::FAILURE;
    }
    let result = run(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.run_dir);
    match result {
        Ok(report) => {
            for (name, (value, unit)) in report.metrics() {
                eprintln!("  {name:<28} {value:>14.4} {unit}");
            }
            for v in report.first_violations() {
                eprintln!("  VIOLATION {v}");
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tbbench: {e}");
            ExitCode::FAILURE
        }
    }
}
