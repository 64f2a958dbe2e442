//! Seeded input generation. Every input is a pure function of the
//! workload seed and its index, so the same seed gives the same inputs
//! and the traced run can replay exactly what the untraced run sent.
//! The system under test only ever sees the generated spec texts.

use tbstc::sim::Arch;

/// The six workloads at the CLI's default shapes.
pub const MODELS: [&str; 6] = ["resnet50", "resnet18", "bert", "opt", "llama", "gcn"];

/// Target sparsities the cold and sweep specs draw from.
pub const SPARSITIES: [f64; 4] = [0.5, 0.625, 0.75, 0.875];

/// Models the durable sweeps run: one heavy, one mid, one light.
pub const SWEEP_MODELS: [&str; 3] = ["resnet18", "bert", "gcn"];

/// Zipf exponent of the warm-hit request popularity.
pub const ZIPF_S: f64 = 1.1;

/// SplitMix64: small, fast, and good enough for input generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of workload seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf popularity over `n` ranks: rank `r` (0-based) has weight
/// `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n > 0` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank drawn for a uniform `u` in `[0, 1)`.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Weight seeds start at a seed-derived base below 2^31, so every spec
/// of a run is distinct and every seed is an exact JSON integer.
fn seed_base(seed: u64, stream: u64) -> u64 {
    Rng::new(seed, stream).next_u64() % (1 << 31)
}

fn simulate_text(arch: &str, model: &str, sparsity: f64, seed: u64) -> String {
    format!(
        r#"{{"type":"simulate","arch":"{arch}","model":{model},"sparsity":{sparsity},"seed":{seed}}}"#
    )
}

/// `cold-sim` inputs: stratified rounds. Each round holds every
/// (arch, model, sparsity) combination once, in a seed-shuffled order,
/// so the mix of job sizes is the same for every seed and only the
/// order and the weights change. Weight seeds are distinct per index,
/// so every spec misses.
#[derive(Debug, Clone)]
pub struct ColdSpecs {
    seed: u64,
    base: u64,
}

impl ColdSpecs {
    /// The specs of workload seed `seed`.
    pub fn new(seed: u64) -> ColdSpecs {
        ColdSpecs {
            seed,
            base: seed_base(seed, 1),
        }
    }

    /// Specs per round: 8 archs × 6 models × 4 sparsities.
    pub const ROUND_LEN: usize = Arch::ALL.len() * MODELS.len() * SPARSITIES.len();

    /// The spec text at `index`.
    pub fn spec(&self, index: usize) -> String {
        let round = Self::ROUND_LEN;
        let mut order: Vec<usize> = (0..round).collect();
        Rng::new(self.seed, 1000 + (index / round) as u64).shuffle(&mut order);
        let combo = order[index % round];
        let arch = Arch::ALL[combo % Arch::ALL.len()].canonical_name();
        let model = MODELS[combo / Arch::ALL.len() % MODELS.len()];
        let sparsity = SPARSITIES[combo / (Arch::ALL.len() * MODELS.len())];
        simulate_text(
            arch,
            &format!("\"{model}\""),
            sparsity,
            self.base + index as u64,
        )
    }
}

/// `warm-hit` inputs: a universe of tiny distinct simulate specs (one
/// small GCN layer, all 8 archs) and a zipfian request stream over it
/// whose popular ranks map to seed-shuffled universe members.
#[derive(Debug, Clone)]
pub struct WarmSpecs {
    seed: u64,
    base: u64,
    popularity: Vec<usize>,
    zipf: Zipf,
}

impl WarmSpecs {
    /// A universe of `size` specs.
    pub fn new(seed: u64, size: usize) -> WarmSpecs {
        let mut popularity: Vec<usize> = (0..size).collect();
        Rng::new(seed, 3).shuffle(&mut popularity);
        WarmSpecs {
            seed,
            base: seed_base(seed, 4),
            popularity,
            zipf: Zipf::new(size, ZIPF_S),
        }
    }

    /// Universe size.
    pub fn len(&self) -> usize {
        self.popularity.len()
    }

    /// The universe member `member`.
    pub fn spec(&self, member: usize) -> String {
        let arch = Arch::ALL[member % Arch::ALL.len()].canonical_name();
        simulate_text(
            arch,
            r#"{"kind":"gcn","nodes":16,"features":16}"#,
            0.75,
            self.base + member as u64,
        )
    }

    /// The universe member requested at position `index` of the stream.
    pub fn request(&self, index: usize) -> usize {
        let u = Rng::new(self.seed, 1 << 40 | index as u64).unit();
        self.popularity[self.zipf.rank(u)]
    }
}

/// `durable-sweep` inputs, pair `pair`: two sweeps over all 8 archs ×
/// [`SWEEP_MODELS`] × two sparsities × two weight seeds. The second
/// sweep keeps one seed of the first and adds a new one, so it shares
/// half its grid with the first.
pub fn sweep_pair(seed: u64, pair: usize) -> (String, String) {
    let mut rng = Rng::new(seed, 5000 + pair as u64);
    let first = rng.below(SPARSITIES.len());
    let second = (first + 1 + rng.below(SPARSITIES.len() - 1)) % SPARSITIES.len();
    let base = seed_base(seed, 5) + 3 * pair as u64;
    let archs: Vec<String> = Arch::ALL
        .iter()
        .map(|a| format!("\"{}\"", a.canonical_name()))
        .collect();
    let models: Vec<String> = SWEEP_MODELS.iter().map(|m| format!("\"{m}\"")).collect();
    let text = |seeds: [u64; 2]| {
        format!(
            r#"{{"type":"sweep","archs":[{}],"models":[{}],"sparsities":[{},{}],"seeds":[{},{}]}}"#,
            archs.join(","),
            models.join(","),
            SPARSITIES[first],
            SPARSITIES[second],
            seeds[0],
            seeds[1]
        )
    };
    (text([base, base + 1]), text([base + 1, base + 2]))
}

/// Seeds of the `sparse-train` runs: the proxy-task data seed, and the
/// student initialisation seed of run `run`.
pub fn train_seeds(seed: u64, run: usize) -> (u64, u64) {
    (seed_base(seed, 6), seed_base(seed, 7) + run as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use tbstc::jobspec::JobSpec;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = ColdSpecs::new(11);
        let b = ColdSpecs::new(11);
        let c = ColdSpecs::new(12);
        let first: Vec<String> = (0..300).map(|i| a.spec(i)).collect();
        assert_eq!(first, (0..300).map(|i| b.spec(i)).collect::<Vec<_>>());
        assert_ne!(first, (0..300).map(|i| c.spec(i)).collect::<Vec<_>>());
        let w1 = WarmSpecs::new(5, 4096);
        let w2 = WarmSpecs::new(5, 4096);
        assert!((0..1000).all(|i| w1.request(i) == w2.request(i)));
        assert_eq!(sweep_pair(3, 1), sweep_pair(3, 1));
        assert_ne!(sweep_pair(3, 1), sweep_pair(3, 2));
        assert_eq!(train_seeds(9, 2), train_seeds(9, 2));
    }

    #[test]
    fn cold_rounds_are_stratified_distinct_and_valid() {
        let specs = ColdSpecs::new(7);
        let round = ColdSpecs::ROUND_LEN;
        assert_eq!(round, 192);
        let mut keys = BTreeSet::new();
        for r in 0..2 {
            let mut combos = BTreeSet::new();
            for i in r * round..(r + 1) * round {
                let spec = match JobSpec::from_json(&specs.spec(i)).unwrap() {
                    JobSpec::Simulate(s) => s,
                    JobSpec::Sweep(_) => panic!("cold specs simulate"),
                };
                combos.insert((
                    spec.arch.canonical_name().to_string(),
                    format!("{:?}", spec.model),
                    spec.sparsity.to_bits(),
                ));
                keys.insert(JobSpec::Simulate(spec).cache_key());
            }
            assert_eq!(combos.len(), round, "every combination once per round");
        }
        assert_eq!(keys.len(), 2 * round, "every spec distinct");
    }

    #[test]
    fn zipf_is_monotone_and_skewed() {
        let z = Zipf::new(4096, ZIPF_S);
        assert_eq!(z.rank(0.0), 0);
        assert_eq!(z.rank(0.999_999_999), 4095);
        let mut rng = Rng::new(1, 1);
        let mut counts = vec![0usize; 4096];
        for _ in 0..100_000 {
            counts[z.rank(rng.unit())] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
        assert!(counts[0] > counts[100] * 50);
        // Rank 0 draws its weight, 1 / H(4096, 1.1) ≈ 0.16.
        let h: f64 = (1..=4096).map(|r| 1.0 / f64::from(r).powf(ZIPF_S)).sum();
        let share = counts[0] as f64 / 100_000.0;
        assert!((share - 1.0 / h).abs() < 0.01, "{share} vs {}", 1.0 / h);
    }

    #[test]
    fn warm_universe_and_sweeps_are_valid_specs() {
        let w = WarmSpecs::new(2, 64);
        let keys: BTreeSet<String> = (0..64)
            .map(|m| JobSpec::from_json(&w.spec(m)).unwrap().cache_key())
            .collect();
        assert_eq!(keys.len(), 64);
        assert!((0..500).all(|i| w.request(i) < 64));
        let (a, b) = sweep_pair(4, 0);
        let (a, b) = (
            JobSpec::from_json(&a).unwrap(),
            JobSpec::from_json(&b).unwrap(),
        );
        assert_eq!(a.grid_len(), 96);
        assert_eq!(b.grid_len(), 96);
        let shared = a
            .grid_jobs()
            .iter()
            .filter(|j| b.grid_jobs().contains(j))
            .count();
        assert_eq!(shared, 48);
    }
}
