//! Golden parity fixture: every [`LayerResult`] field, bit-identical.
//!
//! The fixture under `tests/fixtures/golden_layer_results.txt` was
//! recorded from the hand-written per-architecture models, across all 8
//! architectures × sparsities {0.5, 0.75, 0.9375} × two model layers
//! (BERT attn.q and ResNet-50 conv2 3x3). It is the oracle for the spec
//! interpreter that replaced those models. Floating-point fields
//! are stored as raw IEEE-754 bits, so any change to the arithmetic —
//! even one that only perturbs rounding — fails the test.
//!
//! Regenerate (only when a behaviour change is intended and reviewed):
//!
//! ```sh
//! TBSTC_BLESS=1 cargo test -p tbstc-sim --test golden_parity
//! ```

use tbstc_models::{bert_base, resnet50, LayerShape};
use tbstc_sim::{Arch, HwConfig, LayerResult, LayerSim};

const FIXTURE_REL: &str = "tests/fixtures/golden_layer_results.txt";
const SEED: u64 = 1234;
const SPARSITIES: [f64; 3] = [0.5, 0.75, 0.9375];
const ARCHS: [Arch; 8] = [
    Arch::Tc,
    Arch::Stc,
    Arch::Vegeta,
    Arch::Highlight,
    Arch::RmStc,
    Arch::TbStc,
    Arch::DvpeFan,
    Arch::Sgcn,
];

fn fixture_layers() -> Vec<LayerShape> {
    vec![
        bert_base(128).layers[0].clone(), // attn.q: 768 x 768 x 128
        resnet50(64).layers[3].clone(),   // conv2 3x3: 64 x 576 x 256
    ]
}

/// One fixture line per case. u64 counters in decimal; every f64 as its
/// raw bit pattern (hex) so the comparison is exact, with a human-readable
/// rendering alongside for reviewability.
fn render(arch: Arch, sparsity: f64, res: &LayerResult) -> String {
    let f = |x: f64| format!("{:016x}({x:.6e})", x.to_bits());
    format!(
        "arch={arch} sparsity={sparsity} layer={name} cycles={cycles} \
         compute={compute} memory={memory} codec_hidden={ch} codec_exposed={ce} \
         useful_macs={macs} compute_util={cu} bandwidth_util={bu} \
         traffic_bytes={tb} energy_pj={en}",
        name = res.name,
        cycles = res.cycles,
        compute = res.breakdown.compute,
        memory = res.breakdown.memory,
        ch = res.breakdown.codec_hidden,
        ce = res.breakdown.codec_exposed,
        macs = res.useful_macs,
        cu = f(res.compute_utilization),
        bu = f(res.bandwidth_utilization),
        tb = f(res.traffic_bytes),
        en = f(res.energy_pj),
    )
}

fn current() -> String {
    let cfg = HwConfig::paper_default();
    let mut out = String::new();
    out.push_str("# Golden LayerResult fixture — recorded on pre-refactor main.\n");
    out.push_str("# 8 archs x sparsities {0.5, 0.75, 0.9375} x 2 layers, seed 1234.\n");
    for shape in fixture_layers() {
        for arch in ARCHS {
            for sparsity in SPARSITIES {
                let res = LayerSim::new(&shape)
                    .arch(arch)
                    .sparsity(sparsity)
                    .seed(SEED)
                    .run(&cfg);
                out.push_str(&render(arch, sparsity, &res));
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn layer_results_bit_identical_to_golden_fixture() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE_REL);
    let got = current();
    if std::env::var_os("TBSTC_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    if want != got {
        // Diff line-by-line so a failure names the divergent case instead
        // of dumping both files.
        for (w, g) in want.lines().zip(got.lines()) {
            assert_eq!(w, g, "golden fixture mismatch");
        }
        assert_eq!(
            want.lines().count(),
            got.lines().count(),
            "golden fixture case-count mismatch"
        );
        panic!("golden fixture differs");
    }
}

#[test]
fn fixture_covers_the_whole_grid() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE_REL);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    let cases: Vec<&str> = text.lines().filter(|l| l.starts_with("arch=")).collect();
    assert_eq!(
        cases.len(),
        ARCHS.len() * SPARSITIES.len() * fixture_layers().len(),
        "one fixture line per (arch, sparsity, layer)"
    );
    for arch in ARCHS {
        assert!(
            cases
                .iter()
                .any(|l| l.starts_with(&format!("arch={arch} "))),
            "fixture covers {arch}"
        );
    }
}
