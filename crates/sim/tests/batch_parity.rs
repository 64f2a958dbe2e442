//! Parity between the scalar per-block pricing (`ArchModel::block_work`)
//! and the batched plan pricing (`ArchModel::block_works_batch`), plus
//! bit-identity of the [`tbstc_sim::SimOptions`] entry point against the
//! native one.

use tbstc_models::LayerShape;
use tbstc_sim::plan::BlockPlan;
use tbstc_sim::spec::{Dataflow, SlotTerm};
use tbstc_sim::{Arch, ArchModel, HwConfig, LayerSim, SimOptions, REGISTRY};

fn shape(name: &str, m: usize, k: usize, n: usize) -> LayerShape {
    LayerShape {
        name: name.into(),
        m,
        k,
        n,
        repeats: 1,
        prunable: true,
    }
}

fn assert_batch_matches_scalar(
    model: &ArchModel,
    shapes: &[LayerShape],
    targets: &[f64],
    seed: u64,
    build: impl Fn(LayerSim) -> LayerSim,
) {
    let cfg = HwConfig::paper_default();
    for s in shapes {
        for (i, &target) in targets.iter().enumerate() {
            let layer = build(LayerSim::new(s))
                .sparsity(target)
                .seed(seed + i as u64)
                .build(&cfg);
            let plan = BlockPlan::build(&layer);
            let scalar: Vec<_> = (0..plan.len())
                .map(|b| model.block_work(&plan.stats(b)))
                .collect();
            let batch = model.block_works_batch(&plan);
            assert_eq!(
                scalar,
                batch,
                "{} {} target {target}: scalar vs batch pricing diverged",
                model.canonical_name(),
                s.name
            );
        }
    }
}

/// Every architecture's batched pricing must reproduce the scalar
/// pricing block-for-block, across sparsities, seeds, and ragged shapes
/// whose sampled dimensions are not multiples of the 8×8 block grid.
#[test]
fn batch_pricing_matches_scalar_pricing() {
    let shapes = [
        shape("square", 64, 64, 16),
        shape("ragged-rows", 20, 64, 16),
        shape("ragged-cols", 64, 28, 16),
        shape("ragged-both", 33, 41, 8),
        shape("tiny", 5, 7, 4),
    ];
    for model in REGISTRY.iter() {
        let arch = model.id().builtin().expect("registry entries are builtin");
        assert_batch_matches_scalar(model, &shapes, &[0.0, 0.5, 0.75, 0.9375], 900, |l| {
            l.arch(arch)
        });
    }
}

/// A user document honours the same scalar≡batch contract as the
/// builtins, on every batched fast path (nnz-only, dense-only) and on the
/// per-block fallback (mixed terms with overhead factors).
#[test]
fn custom_arch_batch_matches_scalar() {
    let shapes = [
        shape("square", 64, 64, 16),
        shape("ragged-both", 33, 41, 8),
        shape("tiny", 5, 7, 4),
    ];
    // Every builtin loaded back as a custom document exercises the
    // nnz/dense fast paths; the mixed spec forces the per-block fallback.
    let mut customs: Vec<ArchModel> = REGISTRY
        .iter()
        .map(|m| ArchModel::custom(m.spec().clone()).expect("builtin spec valid"))
        .collect();
    let mut mixed = Arch::TbStc.model().spec().clone();
    mixed.name = "mixed-terms".into();
    mixed.dataflow = Dataflow {
        terms: vec![
            SlotTerm::Nnz,
            SlotTerm::Lockstep { group: 2 },
            SlotTerm::RatioGrouped { width: 4 },
        ],
        multiplier: 1.07,
        efficiency: 0.9,
    };
    customs.push(ArchModel::custom(mixed).expect("mixed spec valid"));

    for custom in &customs {
        assert_batch_matches_scalar(custom, &shapes, &[0.0, 0.5, 0.9375], 400, |l| {
            l.arch(Arch::TbStc)
        });
    }
}

/// The plan's occupancy columns must agree with their own per-block
/// [`tbstc_sim::archs::BlockStats`] view on ragged shapes.
#[test]
fn plan_columns_consistent_on_ragged_shapes() {
    let cfg = HwConfig::paper_default();
    let layer = LayerSim::new(&shape("ragged", 20, 28, 8))
        .arch(Arch::TbStc)
        .sparsity(0.75)
        .seed(77)
        .build(&cfg);
    let plan = BlockPlan::build(&layer);
    let (gr, gc) = plan.grid();
    assert_eq!(plan.len(), gr * gc);
    for b in 0..plan.len() {
        let stats = plan.stats(b);
        assert_eq!(stats.nnz, plan.nnz()[b]);
        assert_eq!(stats.nonempty_rows, plan.nonempty_rows()[b]);
        assert_eq!(stats.row_nnz.iter().sum::<usize>(), stats.nnz);
        assert!(stats.nnz <= stats.dense_slots);
    }
}

/// `simulate_layer` and `simulate_layer_with(&SimOptions::native())` are
/// the same code path; their results must be bit-identical, per
/// architecture, on the golden-fixture shape.
#[test]
fn sim_options_native_is_bit_identical() {
    let cfg = HwConfig::paper_default();
    let s = shape("bert-ish", 128, 128, 64);
    for model in REGISTRY.iter() {
        let arch = model.id().builtin().expect("registry entries are builtin");
        let layer = LayerSim::new(&s)
            .arch(arch)
            .sparsity(0.75)
            .seed(1234)
            .build(&cfg);
        let a = tbstc_sim::simulate_layer(arch, &layer, &cfg);
        let b = tbstc_sim::simulate_layer_with(arch, &layer, &cfg, &SimOptions::native());
        assert_eq!(a.cycles, b.cycles, "{arch}");
        assert_eq!(a.breakdown, b.breakdown, "{arch}");
        assert_eq!(a.useful_macs, b.useful_macs, "{arch}");
        assert_eq!(
            a.compute_utilization.to_bits(),
            b.compute_utilization.to_bits(),
            "{arch}"
        );
        assert_eq!(
            a.bandwidth_utilization.to_bits(),
            b.bandwidth_utilization.to_bits(),
            "{arch}"
        );
        assert_eq!(
            a.traffic_bytes.to_bits(),
            b.traffic_bytes.to_bits(),
            "{arch}"
        );
        assert_eq!(a.energy_pj.to_bits(), b.energy_pj.to_bits(), "{arch}");
    }
}
