//! `sparse-train`: in-process `SparseTrainer` runs on the calibrated
//! proxy task (`proxy_task` / `student_config`) with the TBS pattern at
//! 0.75 — the Table I / Fig. 18 path. It alone measures the `train`
//! and `matrix` GEMM layers, which no serve workload reaches; every
//! simulator or serve change should show no change on it.

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use tbstc::matrix::gemm;
use tbstc::matrix::rng::MatrixRng;
use tbstc::sparsity::pattern::paper_pattern;
use tbstc::sparsity::PatternKind;
use tbstc::train::{Dataset, Mlp, SparseTrainer, TrainConfig, TrainRecord};
use tbstc_bench::perf::reference::RefMlp;
use tbstc_bench::{proxy_task, student_config};

use crate::gen::train_seeds;
use crate::layers;
use crate::load::{repeat, Limit};
use crate::report::Report;
use crate::server::peak_rss_mb;
use crate::stats;
use crate::trace::Tracer;
use crate::{Ctx, Phase};

/// Classes of the proxy task (as in the Fig. 18 harness).
const CLASSES: usize = 12;
/// Target sparsity of the TBS pattern.
const SPARSITY: f64 = 0.75;
/// Largest accepted distance of the final mask sparsity from target.
const SPARSITY_TOLERANCE: f64 = 0.005;
/// Leading steps compared bit for bit against the seed-path trainer.
const SEED_PATH_STEPS: usize = 4;
/// Timed calls per GEMM shape in the traced run.
const GEMM_CALLS: usize = 500;

fn config(data: &Dataset, run: usize, seed: u64) -> TrainConfig {
    student_config(data, PatternKind::Tbs, SPARSITY, train_seeds(seed, run).1)
}

/// The target sparsity of epoch `epoch`: ramped over the first third
/// of training, as `SparseTrainer` does.
fn epoch_target(cfg: &TrainConfig, epoch: usize) -> f64 {
    let ramp_epochs = (cfg.epochs / 3).max(1);
    cfg.sparsity * ((epoch + 1) as f64 / ramp_epochs as f64).min(1.0)
}

/// The record's invariants: finite losses, final mask sparsity at the
/// target.
fn check_record(cfg: &TrainConfig, record: &TrainRecord) -> Result<(), String> {
    if let Some(bad) = record.losses.iter().find(|l| !l.is_finite()) {
        return Err(format!("non-finite loss {bad}"));
    }
    let last = record.sparsities.last().copied().unwrap_or(0.0);
    if (last - cfg.sparsity).abs() > SPARSITY_TOLERANCE {
        return Err(format!(
            "final mask sparsity {last}, target {}",
            cfg.sparsity
        ));
    }
    Ok(())
}

/// The first steps of training match the seed-path `RefMlp` bit for
/// bit, and the seed path's first-epoch mean loss equals the record's.
fn check_seed_path(data: &Dataset, cfg: &TrainConfig, record: &TrainRecord) -> Result<(), String> {
    let mut net = Mlp::new(&cfg.net, cfg.seed);
    let mut seed_path = RefMlp::new(&cfg.net, cfg.seed);
    let pattern = paper_pattern(cfg.pattern);
    for li in 0..net.layer_count() - 1 {
        let mask = pattern.project(net.weights(li), epoch_target(cfg, 0));
        seed_path.set_mask(li, Some(mask.clone()));
        net.set_mask(li, Some(mask));
    }
    let mut sum = 0.0;
    let mut batches = 0usize;
    for (step, (x, y)) in data.batches(cfg.batch).enumerate() {
        let reference = seed_path.train_batch(&x, &y);
        if step < SEED_PATH_STEPS {
            let fast = net.train_batch(&x, &y);
            if fast.to_bits() != reference.to_bits() {
                return Err(format!("step {step}: loss {fast} vs seed path {reference}"));
            }
        }
        sum += reference;
        batches += 1;
    }
    let mean = sum / batches.max(1) as f64;
    match record.losses.first() {
        Some(first) if first.to_bits() == mean.to_bits() => Ok(()),
        first => Err(format!("first-epoch loss {first:?} vs seed path {mean}")),
    }
}

/// The untraced measurement: training runs. Every run trains the same
/// number of samples, so the rate is samples per run over the median
/// run time.
pub struct Train {
    data: Dataset,
    runs: Vec<(TrainConfig, TrainRecord)>,
    times: Vec<f64>,
}

impl Train {
    /// Generates the proxy task.
    pub fn start(ctx: &Ctx) -> Result<Train, String> {
        Ok(Train {
            data: proxy_task(CLASSES, train_seeds(ctx.seed, 0).0),
            runs: Vec::new(),
            times: Vec::new(),
        })
    }
}

impl Phase for Train {
    fn done(&self) -> usize {
        self.runs.len()
    }

    fn slice(&mut self, ctx: &Ctx, limit: Limit) -> Result<(), String> {
        repeat(limit, || {
            let cfg = config(&self.data, self.runs.len(), ctx.seed);
            let t0 = Instant::now();
            let record = SparseTrainer::new(cfg.clone()).train(&self.data);
            self.times.push(t0.elapsed().as_secs_f64());
            self.runs.push((cfg, record));
            Ok(())
        })
    }

    fn setup_once(&self, ctx: &Ctx) -> Result<f64, String> {
        let t0 = Instant::now();
        std::hint::black_box(proxy_task(CLASSES, train_seeds(ctx.seed, 0).0));
        Ok(t0.elapsed().as_secs_f64())
    }

    /// This process also holds the other workloads' probes, so the
    /// peak is that of a child that generates the proxy task and trains
    /// one run of this workload alone (every run has the same shapes).
    fn peak_rss_mb(&self, ctx: &Ctx) -> Result<f64, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let out = Command::new(exe)
            .arg("train")
            .arg(ctx.seed.to_string())
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("run training child: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "training child exited with {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        text.trim()
            .parse()
            .map_err(|_| format!("training child printed `{}`", text.trim()))
    }

    fn finish(self: Box<Self>, _ctx: &Ctx, report: &mut Report) -> Result<(), String> {
        for (i, (cfg, record)) in self.runs.iter().enumerate() {
            let mut outcome = check_record(cfg, record);
            if i == 0 {
                outcome = outcome.and_then(|()| check_seed_path(&self.data, cfg, record));
            }
            report.op("training run", i, outcome);
        }
        let samples_per_run = self.runs[0].0.epochs * self.data.train_len();
        let median_s = stats::median(&self.times);
        report.metric(
            "train_samples_per_s",
            samples_per_run as f64 / median_s,
            "1/s",
        );
        eprintln!(
            "  sparse-train: {} runs of {samples_per_run} samples, median {median_s:.3} s",
            self.runs.len(),
        );
        Ok(())
    }
}

/// Entry point of the child that measures the workload's peak RSS:
/// `train <seed>` generates the proxy task, trains the workload's first
/// run, checks its record and prints its own peak RSS in MiB.
pub fn child_main(args: &[String]) -> ExitCode {
    let Some(seed) = args.first().and_then(|s| s.parse::<u64>().ok()) else {
        eprintln!("usage: tbbench train <seed>");
        return ExitCode::FAILURE;
    };
    let data = proxy_task(CLASSES, train_seeds(seed, 0).0);
    let cfg = config(&data, 0, seed);
    let record = SparseTrainer::new(cfg.clone()).train(&data);
    match check_record(&cfg, &record).and_then(|()| peak_rss_mb("/proc/self/status")) {
        Ok(mb) => {
            println!("{mb}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tbbench train: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `SparseTrainer::train` re-spelled with a span around each public
/// call it makes: the pattern projection per layer per epoch and
/// `Mlp::train_batch` per batch. The traced run checks that it
/// reproduces the trainer's record exactly.
fn replay_training(t: &mut Tracer, run: u64, cfg: &TrainConfig, data: &Dataset) -> TrainRecord {
    let mut net = Mlp::new(&cfg.net, cfg.seed);
    let pattern = paper_pattern(cfg.pattern);
    let ramp_epochs = (cfg.epochs / 3).max(1);
    let freeze_after = (ramp_epochs + (cfg.epochs - ramp_epochs) / 3).max(1);
    let mut losses = Vec::with_capacity(cfg.epochs);
    let mut sparsities = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        let target = epoch_target(cfg, epoch);
        let mut mask_sparsity = 0.0;
        let mut masked_elems = 0usize;
        for li in 0..net.layer_count() - 1 {
            if epoch <= freeze_after {
                let mask = t.span("sparsity.project", "", run, |_| {
                    pattern.project(net.weights(li), target)
                });
                net.set_mask(li, Some(mask));
            }
            match net.mask(li) {
                Some(mask) => {
                    mask_sparsity += mask.sparsity() * mask.len() as f64;
                    masked_elems += mask.len();
                }
                None => masked_elems += net.weights(li).rows() * net.weights(li).cols(),
            }
        }
        sparsities.push(if masked_elems == 0 {
            0.0
        } else {
            mask_sparsity / masked_elems as f64
        });
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        for (x, y) in data.batches(cfg.batch) {
            epoch_loss += t.span("train.step", "", run, |_| net.train_batch(&x, &y));
            batches += 1;
        }
        losses.push(epoch_loss / batches.max(1) as f64);
    }
    TrainRecord {
        losses,
        sparsities,
        test_accuracy: net.accuracy(&data.test_x, &data.test_y),
    }
}

/// The traced run: training runs replayed with spans (the first checked
/// against `SparseTrainer`), then `gemm::matmul_transb` timed at the
/// forward shapes of the student network.
pub fn trace(ctx: &Ctx, report: &mut Report) -> Result<Tracer, String> {
    let data = proxy_task(CLASSES, train_seeds(ctx.seed, 0).0);
    let first = config(&data, 0, ctx.seed);
    let expected = SparseTrainer::new(first.clone()).train(&data);
    report.op("training run", 0, check_record(&first, &expected));
    let mut tracer = layers::two_passes(
        ctx,
        usize::MAX,
        &|| Ok(()),
        &mut |t, (), run| {
            let cfg = config(&data, run, ctx.seed);
            let record = replay_training(t, run as u64, &cfg, &data);
            if run == 0 && record != expected {
                return Err("replayed training disagrees with SparseTrainer".into());
            }
            Ok(())
        },
        report,
    )?;
    let mut dims = vec![first.net.inputs];
    dims.extend(&first.net.hidden);
    dims.push(first.net.classes);
    for (shape, pair) in dims.windows(2).enumerate() {
        let (k, n) = (pair[0], pair[1]);
        let mut rng = MatrixRng::seed_from(ctx.seed ^ shape as u64);
        let a = rng.weights(first.batch, k);
        let b = rng.weights(n, k);
        for _ in 0..GEMM_CALLS {
            std::hint::black_box(tracer.span("matrix.gemm", "", shape as u64, |_| {
                gemm::matmul_transb(&a, &b)
            }));
            tracer.count("matrix.flops", (2 * first.batch * n * k) as f64);
        }
    }
    Ok(tracer)
}
