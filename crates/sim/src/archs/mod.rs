//! The architecture layer: every simulated accelerator is an
//! [`ArchSpec`] document interpreted by one [`ArchModel`].
//!
//! The eight builtins (§VII-A2 baselines + ablations) are the spec
//! literals of `builtin_table` — their pattern, slot terms, codec,
//! scheduling, datapath and energy factors are data, not code, and the
//! golden fixtures (`crates/sim/tests/fixtures/`) pin the `LayerResult`s
//! the interpreter produces from them. [`REGISTRY`] is the single
//! dispatch point — `compute`, `memory`, `pipeline`, the job-spec schema,
//! the CLI and `tbstc-serve` all resolve architectures through it, so
//! adding a ninth architecture is one table entry plus its bundled
//! document (and zero new `match` arms: the `arch_dispatch_lint` test
//! forbids `Arch` variant dispatch outside this directory).

use std::sync::LazyLock;

use tbstc_energy::components::{DatapathCosts, PeArrayShape};
use tbstc_formats::AccessTrace;
use tbstc_sparsity::PatternKind;

use crate::arch::{Arch, ArchId};
use crate::compute::SchedulePolicy;
use crate::layer::SparseLayer;
use crate::memory::FormatOverride;
use crate::plan::BlockPlan;
use crate::sched::{BlockWork, InterBlockPolicy, IntraBlockPolicy};
use crate::spec::{ArchSpec, CodecSpec, Dataflow, DatapathKind, DenseInfoPolicy, SlotTerm};

/// Per-block statistics of the sampled pruned weights, as walked in 8×8
/// blocks — the input every architecture's dataflow turns into
/// [`BlockWork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockStats {
    /// Non-zero count of each of the (up to) 8 rows of the block.
    pub row_nnz: [usize; 8],
    /// Total non-zeros in the block.
    pub nnz: usize,
    /// Rows with at least one non-zero.
    pub nonempty_rows: usize,
    /// Whether the block's N:M runs along the independent dimension
    /// (TBS metadata; `false` for every other pattern).
    pub independent_dim: bool,
    /// Dense MAC slots of the (possibly edge-clipped) block.
    pub dense_slots: usize,
    /// Clipped block height (rows the block actually covers).
    pub block_rows: usize,
}

/// The sampled weight-stream an architecture's storage format emits:
/// DRAM requests plus the stored byte count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightTrace {
    /// Requests as `(addr, bytes)`, replayed through the DRAM model.
    pub requests: Vec<(u64, u64)>,
    /// Bytes the format stores (the useful-traffic numerator).
    pub stored_bytes: u64,
}

impl WeightTrace {
    /// A trace from a format's [`AccessTrace`].
    pub fn from_access_trace(t: AccessTrace) -> Self {
        let stored_bytes = t.total_bytes();
        WeightTrace {
            requests: t.requests().iter().map(|r| (r.addr, r.bytes)).collect(),
            stored_bytes,
        }
    }

    /// A perfectly sequential stream of `bytes`, split into
    /// row-buffer-friendly chunks.
    pub fn sequential(bytes: u64) -> Self {
        const CHUNK: u64 = 256;
        let mut requests = Vec::with_capacity((bytes / CHUNK + 1) as usize);
        let mut addr = 0;
        while addr < bytes {
            let len = CHUNK.min(bytes - addr);
            requests.push((addr, len));
            addr += len;
        }
        WeightTrace {
            requests,
            stored_bytes: bytes,
        }
    }
}

/// One simulated architecture: an [`ArchSpec`] interpreted as the
/// per-block pricing, weight-stream format, scheduling and datapath costs
/// the simulator runs. Builtins live in [`REGISTRY`]; [`ArchModel::custom`]
/// validates and interprets a user document (the builtins' specs are
/// checked by `builtin_specs_validate`), so every live model is
/// well-formed.
#[derive(Debug)]
pub struct ArchModel {
    spec: ArchSpec,
    id: ArchId,
    aliases: &'static [&'static str],
}

impl ArchModel {
    /// Interprets a user-supplied spec as a custom architecture. Returns
    /// the validation message on a malformed one.
    pub fn custom(spec: ArchSpec) -> Result<ArchModel, String> {
        spec.validate()?;
        let id = ArchId::custom(&spec.name);
        Ok(ArchModel {
            spec,
            id,
            aliases: &[],
        })
    }

    /// The identity this model simulates as: a registry [`Arch`] tag for
    /// builtins, a declared name for spec-defined architectures.
    pub fn id(&self) -> ArchId {
        self.id.clone()
    }

    /// The interpreted spec — `GET /v1/archs`, `tbstc-cli arch show` and
    /// the bundled spec documents all render from here.
    pub fn spec(&self) -> &ArchSpec {
        &self.spec
    }

    /// Paper-style display name (e.g. `TB-STC`).
    pub fn display_name(&self) -> &str {
        &self.spec.display
    }

    /// Canonical lowercase kebab-case name (job specs, CLI, caches).
    pub fn canonical_name(&self) -> &str {
        &self.spec.name
    }

    /// Accepted alternate spellings (e.g. `tbstc` for `tb-stc`).
    pub fn aliases(&self) -> &'static [&'static str] {
        self.aliases
    }

    /// One-line description for the README architecture table.
    pub fn summary(&self) -> &str {
        &self.spec.summary
    }

    /// The sparsity pattern this architecture natively executes.
    pub fn native_pattern(&self) -> PatternKind {
        self.spec.pattern
    }

    /// The scheduling policy the architecture ships with.
    pub fn native_schedule(&self) -> SchedulePolicy {
        self.spec.schedule
    }

    /// The MAC-slot work the dataflow sees for one 8×8 block — where each
    /// architecture's structural constraints (lockstep, ratio grouping,
    /// gather efficiency, density floors) are priced.
    pub fn block_work(&self, b: &BlockStats) -> BlockWork {
        BlockWork {
            slots: self.spec.dataflow.slots(b),
            nonempty_rows: if self.spec.dataflow.has_dense_term() {
                b.block_rows
            } else {
                b.nonempty_rows
            },
            independent_dim: b.independent_dim,
        }
    }

    /// Prices a whole [`BlockPlan`] in one array pass. The result equals
    /// `plan.stats(i)` fed through [`Self::block_work`] for every block
    /// `i`, in block order (`batch_parity` pins this). Nnz-only dataflows
    /// zip the plan's occupancy columns, dense-only ones its geometry
    /// columns; row-shape terms fall back to per-block stats.
    pub fn block_works_batch(&self, plan: &BlockPlan) -> Vec<BlockWork> {
        let df = &self.spec.dataflow;
        match df.terms.as_slice() {
            [SlotTerm::Nnz] => plan
                .nnz()
                .iter()
                .zip(plan.nonempty_rows())
                .zip(plan.independent_dim())
                .map(|((&nnz, &rows), &indep)| BlockWork {
                    slots: df.scale(nnz),
                    nonempty_rows: rows,
                    independent_dim: indep,
                })
                .collect(),
            [SlotTerm::Dense] => plan
                .dense_slots()
                .iter()
                .zip(plan.block_rows())
                .zip(plan.independent_dim())
                .map(|((&slots, &rows), &indep)| BlockWork {
                    slots: df.scale(slots),
                    nonempty_rows: rows,
                    independent_dim: indep,
                })
                .collect(),
            _ => {
                let mut works = Vec::with_capacity(plan.len());
                for i in 0..plan.len() {
                    works.push(self.block_work(&plan.stats(i)));
                }
                works
            }
        }
    }

    /// Extra sampled compute cycles outside the block schedule: with a
    /// row frontend (SGCN's CSR row decode), one slot-cycle per non-empty
    /// row, amortized over the PEs.
    pub fn extra_compute_cycles(&self, works: &[BlockWork], pes: usize) -> u64 {
        if !self.spec.row_frontend {
            return 0;
        }
        let rows: u64 = works.iter().map(|w| w.nonempty_rows as u64).sum();
        rows.div_ceil(pes as u64)
    }

    /// The sampled weight-stream trace of the architecture's native
    /// storage format. `plan` carries the occupancy statistics (total
    /// non-zeros, per-row totals) so formats sized by occupancy need not
    /// re-count the matrix.
    pub fn weight_trace(&self, layer: &SparseLayer, plan: &BlockPlan) -> WeightTrace {
        self.spec.codec.weight_trace(layer, plan)
    }

    /// Whether the weight stream degenerates to a dense row stream for
    /// this layer/format, making the full matrix the information content
    /// (dense TC always; TB-STC on non-TBS layers).
    pub fn dense_info_stream(&self, layer: &SparseLayer, fmt: FormatOverride) -> bool {
        match self.spec.dense_info {
            DenseInfoPolicy::Never => false,
            DenseInfoPolicy::Always => true,
            DenseInfoPolicy::NonTbsNative => layer.tbs().is_none() && fmt == FormatOverride::Native,
        }
    }

    /// Whether the architecture consumes DDC through the adaptive codec
    /// (conversion cycles are modelled only for these).
    pub fn consumes_ddc(&self) -> bool {
        self.spec.consumes_ddc
    }

    /// The datapath cost inventory (Table III-style component list).
    pub fn datapath(&self, shape: PeArrayShape) -> DatapathCosts {
        self.spec.datapath.build(shape)
    }

    /// Multiplier-lane count: the spec's, or the platform's peak-parity
    /// count (the paper keeps peak compute equal across baselines,
    /// §VII-A1).
    pub fn lanes(&self, shape: PeArrayShape) -> usize {
        self.spec.lanes.unwrap_or_else(|| shape.mults())
    }

    /// Off-chip bandwidth override in GB/s; `None` = platform default.
    pub fn bandwidth_override_gbps(&self) -> Option<f64> {
        self.spec.bandwidth_gbps
    }

    /// Whether the §VI inter/intra-block sparsity-aware scheduling is
    /// present (the Fig. 16(b) ablation switches it off).
    pub fn has_hierarchical_scheduling(&self) -> bool {
        self.spec.hierarchical_scheduling
    }

    /// Per-MAC dynamic-energy multiplier over the plain FP16 MAC
    /// (index-matching overheads of unstructured engines, Fig. 6(d)).
    pub fn mac_energy_multiplier(&self) -> f64 {
        self.spec.mac_energy_multiplier
    }
}

/// Placement without cross-block merging, rows packed across lanes: the
/// policy of engines with uniform work (nothing to balance).
const DIRECT: SchedulePolicy = SchedulePolicy {
    inter: InterBlockPolicy::Direct,
    intra: IntraBlockPolicy::Balanced,
};

/// Least-loaded dispatch with slot merging across blocks (Fig. 11(b)).
const SPARSITY_AWARE: SchedulePolicy = SchedulePolicy {
    inter: InterBlockPolicy::SparsityAware,
    intra: IntraBlockPolicy::Balanced,
};

/// The builtin architectures as `(tag, aliases, spec)`, in the paper's
/// plotting order (= `Arch` discriminant order). Each spec is rendered
/// byte-for-byte by its bundled document under `crates/core/specs/`.
fn builtin_table() -> [(Arch, &'static [&'static str], ArchSpec); 8] {
    [
        // The dense baseline (NVIDIA Tensor Core without sparsity
        // support): every slot of the clipped block issues, full rows
        // stream, and the dense matrix is the information content.
        (
            Arch::Tc,
            &[],
            ArchSpec {
                name: "tc".into(),
                display: "TC".into(),
                summary: "Dense Tensor Core; executes every MAC slot, streams full rows".into(),
                pattern: PatternKind::Dense,
                schedule: DIRECT,
                hierarchical_scheduling: false,
                dataflow: Dataflow {
                    terms: vec![SlotTerm::Dense],
                    multiplier: 1.0,
                    efficiency: 1.0,
                },
                row_frontend: false,
                codec: CodecSpec::DenseRows,
                dense_info: DenseInfoPolicy::Always,
                consumes_ddc: false,
                bandwidth_gbps: None,
                lanes: None,
                datapath: DatapathKind::TensorCore,
                mac_energy_multiplier: 1.0,
            },
        ),
        // NVIDIA STC executes its 4:8 mask (projected at the 50 % density
        // floor by layer construction): slots = nnz, 4:8 values + 2-bit
        // position metadata, perfectly aligned.
        (
            Arch::Stc,
            &[],
            ArchSpec {
                name: "stc".into(),
                display: "STC".into(),
                summary: "NVIDIA Sparse Tensor Core; 4:8 tiles, density floored at 50%".into(),
                pattern: PatternKind::TileNm,
                schedule: DIRECT,
                hierarchical_scheduling: false,
                dataflow: Dataflow::nnz(),
                row_frontend: false,
                codec: CodecSpec::AlignedNm,
                dense_info: DenseInfoPolicy::Never,
                consumes_ddc: false,
                bandwidth_gbps: None,
                lanes: None,
                datapath: DatapathKind::NvidiaStc,
                mac_energy_multiplier: 1.0,
            },
        ),
        // VEGETA's vertical SIMD has two one-dimensional constraints:
        // groups of 4 rows run in lockstep, and rows of different ratios
        // need separate B-select issues — heterogeneous blocks pay the
        // binding one (the paper's challenge-3 imbalance). One-dimensional
        // workload balancing is modelled as balanced placement. Weights
        // are SDC padded per co-scheduled 8-row group.
        (
            Arch::Vegeta,
            &[],
            ArchSpec {
                name: "vegeta".into(),
                display: "VEGETA".into(),
                summary: "Row-wise N:M; SIMD lockstep + per-ratio B-select issues".into(),
                pattern: PatternKind::RowWiseVegeta,
                schedule: SPARSITY_AWARE,
                hierarchical_scheduling: false,
                dataflow: Dataflow {
                    terms: vec![
                        SlotTerm::Lockstep { group: 4 },
                        SlotTerm::RatioGrouped { width: 8 },
                    ],
                    multiplier: 1.0,
                    efficiency: 1.0,
                },
                row_frontend: false,
                codec: CodecSpec::GroupedSdc { group: 8 },
                dense_info: DenseInfoPolicy::Never,
                consumes_ddc: false,
                bandwidth_gbps: None,
                lanes: None,
                datapath: DatapathKind::Vegeta,
                mac_energy_multiplier: 1.0,
            },
        ),
        // HighLight's uniform hierarchical ratio keeps rows homogeneous
        // (small grouping penalty, whole-matrix SDC pads almost nothing)
        // but pays a 1.06× two-level metadata intersection on every
        // element cluster.
        (
            Arch::Highlight,
            &[],
            ArchSpec {
                name: "highlight".into(),
                display: "HighLight".into(),
                summary: "Hierarchical structured sparsity; uniform ratios, 2-level metadata"
                    .into(),
                pattern: PatternKind::RowWiseHighlight,
                schedule: SPARSITY_AWARE,
                hierarchical_scheduling: false,
                dataflow: Dataflow {
                    terms: vec![SlotTerm::RatioGrouped { width: 8 }],
                    multiplier: 1.06,
                    efficiency: 1.0,
                },
                row_frontend: false,
                codec: CodecSpec::Sdc,
                dense_info: DenseInfoPolicy::Never,
                consumes_ddc: false,
                bandwidth_gbps: None,
                lanes: None,
                datapath: DatapathKind::Highlight,
                mac_energy_multiplier: 1.0,
            },
        ),
        // RM-STC's unstructured row-merge dataflow: nnz-proportional with
        // 0.94 packing efficiency (merge bubbles; paper: 1.06× behind
        // TB-STC), bitmap + packed values, and gather/union index
        // matching that costs 2.1× MAC energy (Fig. 6(d), §VII-C1).
        (
            Arch::RmStc,
            &["rmstc"],
            ArchSpec {
                name: "rm-stc".into(),
                display: "RM-STC".into(),
                summary: "Unstructured row-merge; nnz-proportional, pays gather/union energy"
                    .into(),
                pattern: PatternKind::Unstructured,
                schedule: SPARSITY_AWARE,
                hierarchical_scheduling: false,
                dataflow: Dataflow {
                    terms: vec![SlotTerm::Nnz],
                    multiplier: 1.0,
                    efficiency: 0.94,
                },
                row_frontend: false,
                codec: CodecSpec::Bitmap,
                dense_info: DenseInfoPolicy::Never,
                consumes_ddc: false,
                bandwidth_gbps: None,
                lanes: None,
                datapath: DatapathKind::RmStc,
                mac_energy_multiplier: 2.1,
            },
        ),
        // TB-STC (this paper): nnz-proportional DVPE issue, DDC consumed
        // through the adaptive codec (non-prunable layers stream dense
        // rows), and the §VI hierarchical scheduling (Fig. 11).
        (
            Arch::TbStc,
            &["tbstc"],
            ArchSpec {
                name: "tb-stc".into(),
                display: "TB-STC".into(),
                summary: "This paper: TBS pattern, DDC + codec, hierarchical scheduling".into(),
                pattern: PatternKind::Tbs,
                schedule: SPARSITY_AWARE,
                hierarchical_scheduling: true,
                dataflow: Dataflow::nnz(),
                row_frontend: false,
                codec: CodecSpec::DdcOrDense,
                dense_info: DenseInfoPolicy::NonTbsNative,
                consumes_ddc: true,
                bandwidth_gbps: None,
                lanes: None,
                datapath: DatapathKind::TbStc,
                mac_energy_multiplier: 1.0,
            },
        ),
        // Ablation (§VII-E2): TB-STC's DVPEs replaced by SIGMA's FAN
        // reduction. Same pattern, format, codec and scheduler; 1.12×
        // pipeline occupancy and 1.45× operand-forwarding energy.
        (
            Arch::DvpeFan,
            &["dvpefan"],
            ArchSpec {
                name: "dvpe-fan".into(),
                display: "DVPE+FAN".into(),
                summary: "Ablation: TB-STC with SIGMA's FAN reduction instead of DVPEs".into(),
                pattern: PatternKind::Tbs,
                schedule: SPARSITY_AWARE,
                hierarchical_scheduling: false,
                dataflow: Dataflow {
                    terms: vec![SlotTerm::Nnz],
                    multiplier: 1.12,
                    efficiency: 1.0,
                },
                row_frontend: false,
                codec: CodecSpec::DdcOrDense,
                dense_info: DenseInfoPolicy::NonTbsNative,
                consumes_ddc: true,
                bandwidth_gbps: None,
                lanes: None,
                datapath: DatapathKind::DvpeWithFan,
                mac_energy_multiplier: 1.45,
            },
        ),
        // SGCN (Fig. 15(d) baseline): element-granular CSR processing with
        // 0.7 gather efficiency at DNN-range sparsity, a per-row CSR
        // frontend decode, 256 GB/s of memory (§VII-D4) and 1.8× CSR
        // intersection energy.
        (
            Arch::Sgcn,
            &[],
            ArchSpec {
                name: "sgcn".into(),
                display: "SGCN".into(),
                summary: "GNN accelerator: CSR element granularity, 256 GB/s, row frontend".into(),
                pattern: PatternKind::Unstructured,
                schedule: SPARSITY_AWARE,
                hierarchical_scheduling: false,
                dataflow: Dataflow {
                    terms: vec![SlotTerm::Nnz],
                    multiplier: 1.0,
                    efficiency: 0.7,
                },
                row_frontend: true,
                codec: CodecSpec::Csr,
                dense_info: DenseInfoPolicy::Never,
                consumes_ddc: false,
                bandwidth_gbps: Some(256.0),
                lanes: None,
                datapath: DatapathKind::Sgcn,
                mac_energy_multiplier: 1.8,
            },
        ),
    ]
}

/// The architecture registry, in the paper's plotting order. Indexed by
/// the `Arch` discriminant — `registry_order_matches_enum` locks the
/// correspondence.
pub static REGISTRY: LazyLock<[ArchModel; 8]> = LazyLock::new(|| {
    builtin_table().map(|(arch, aliases, spec)| ArchModel {
        spec,
        id: ArchId::Builtin(arch),
        aliases,
    })
});

/// Resolves an architecture to its registered model.
pub fn model(arch: Arch) -> &'static ArchModel {
    &REGISTRY[arch as usize]
}

/// The registered model for a canonical name or alias, if any.
pub fn by_name(name: &str) -> Option<&'static ArchModel> {
    REGISTRY
        .iter()
        .find(|m| m.canonical_name() == name || m.aliases().contains(&name))
}

/// All canonical names, registry order, comma-separated — the "valid
/// names" list of parse errors.
pub fn canonical_names() -> String {
    REGISTRY
        .iter()
        .map(|m| m.canonical_name())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Renders the architecture table (README "Architectures" section) from
/// the registry, so documentation cannot drift from the code.
pub fn architecture_table_markdown() -> String {
    let mut out = String::from(
        "| Architecture | Name (CLI/jobs) | Native pattern | Model |\n\
         |---|---|---|---|\n",
    );
    for m in REGISTRY.iter() {
        out.push_str(&format!(
            "| **{}** | `{}` | {} | {} |\n",
            m.display_name(),
            m.canonical_name(),
            m.native_pattern(),
            m.summary()
        ));
    }
    out
}

/// Slots a lockstep SIMD engine needs: adjacent groups of `group` rows
/// run together, each costing `group × max(row nnz)`.
pub(crate) fn lockstep_slots(row_nnz: &[usize; 8], group: usize) -> usize {
    row_nnz
        .chunks(group)
        .map(|g| g.len() * g.iter().copied().max().unwrap_or(0))
        .sum()
}

/// Slots a ratio-grouped SIMD engine needs for one block: rows sharing a
/// non-zero count pack into common issues; each distinct count needs its
/// own issues (`width` lanes each).
pub(crate) fn ratio_grouped_slots(row_nnz: &[usize; 8], width: usize) -> usize {
    let mut issues = 0usize;
    for ratio in 1..=width {
        let rows = row_nnz.iter().filter(|&&c| c == ratio).count();
        if rows > 0 {
            issues += (rows * ratio).div_ceil(width);
        }
    }
    issues * width
}

/// SDC aligned per `group`-row window: each window stores its rows padded
/// to the window's max population (value + 1-byte index per slot),
/// sequentially. `row_nnz` holds the per-matrix-row non-zero counts —
/// the `grouped-sdc` codec (VEGETA).
pub(crate) fn grouped_sdc_trace(row_nnz: &[usize], group: usize) -> WeightTrace {
    let mut requests = Vec::with_capacity(row_nnz.len().div_ceil(group.max(1)));
    let mut addr = 0u64;
    for window in row_nnz.chunks(group.max(1)) {
        let max_nnz = window.iter().copied().max().unwrap_or(0) as u64;
        let bytes = window.len() as u64 * max_nnz * 3; // fp16 value + index
        if bytes > 0 {
            requests.push((addr, bytes));
            addr += bytes;
        }
    }
    WeightTrace {
        requests,
        stored_bytes: addr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_order_matches_enum() {
        for (i, m) in REGISTRY.iter().enumerate() {
            let arch = m.id().builtin().expect("registry entries are builtin");
            assert_eq!(arch as usize, i, "{} out of order", m.display_name());
        }
        for arch in Arch::ALL {
            assert_eq!(model(arch).id(), arch);
        }
    }

    #[test]
    fn names_are_unique_and_resolve() {
        let mut seen = std::collections::HashSet::new();
        for m in REGISTRY.iter() {
            assert!(
                seen.insert(m.canonical_name().to_string()),
                "{}",
                m.canonical_name()
            );
            for alias in m.aliases() {
                assert!(seen.insert(alias.to_string()), "alias {alias} collides");
                assert_eq!(by_name(alias).unwrap().id(), m.id());
            }
            assert_eq!(by_name(m.canonical_name()).unwrap().id(), m.id());
        }
        assert!(by_name("tpu").is_none());
    }

    #[test]
    fn table_lists_every_architecture() {
        let table = architecture_table_markdown();
        for m in REGISTRY.iter() {
            assert!(table.contains(m.display_name()), "{}", m.display_name());
            assert!(table.contains(m.canonical_name()));
        }
    }

    #[test]
    fn ratio_grouping_penalizes_mixed_rows() {
        // Uniform rows (all N=2): 2 issues = 16 slots = nnz.
        let uniform = ratio_grouped_slots(&[2; 8], 8);
        assert_eq!(uniform, 16);
        // Mixed rows {8,4,2,1,1,0,0,0}: each ratio its own issues.
        let mixed = ratio_grouped_slots(&[8, 4, 2, 1, 1, 0, 0, 0], 8);
        assert!(mixed > 16, "mixed rows need more slots: {mixed}");
    }

    #[test]
    fn lockstep_free_on_uniform_rows() {
        assert_eq!(lockstep_slots(&[4; 8], 2), 32); // = nnz
        assert_eq!(lockstep_slots(&[4; 8], 4), 32);
        // Heterogeneous neighbours pad to the group max.
        let mixed = lockstep_slots(&[8, 1, 4, 0, 2, 2, 1, 0], 2);
        let nnz = 8 + 1 + 4 + 2 + 2 + 1;
        assert!(mixed > nnz, "{mixed} > {nnz}");
        assert_eq!(mixed, 2 * (8 + 4 + 2 + 1));
        // Wider lockstep pads at least as much.
        assert!(lockstep_slots(&[8, 1, 4, 0, 2, 2, 1, 0], 4) >= mixed);
    }

    #[test]
    fn sequential_trace_covers_exactly() {
        let t = WeightTrace::sequential(1000);
        let total: u64 = t.requests.iter().map(|&(_, b)| b).sum();
        assert_eq!(total, 1000);
        assert_eq!(t.stored_bytes, 1000);
        assert!(t.requests.windows(2).all(|w| w[1].0 == w[0].0 + w[0].1));
    }
}
