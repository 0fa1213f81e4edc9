//! Every input the benchmark feeds the program, derived from `--seed` alone.

use std::collections::HashSet;

use lightnas_predictor::architecture_key;
use lightnas_space::Architecture;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64 finalizer over `seed` and a per-purpose `stream`, so each
/// input family draws from its own independent stream.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed of the predictor corpus and its training run.
pub fn corpus_seed(seed: u64) -> u64 {
    derive(seed, 1) % 1_000_000
}

/// One paper-scale search: its latency target (ms) and search seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchInput {
    /// Target `T` in ms, in [20.0, 26.0] — the band the paper's Xavier
    /// experiments search.
    pub target: f64,
    /// Seed of the search's sampling stream.
    pub seed: u64,
}

/// The `search` workload's input.
pub fn search_input(seed: u64) -> SearchInput {
    SearchInput {
        target: 20.0 + (derive(seed, 2) % 61) as f64 / 10.0,
        seed: derive(seed, 3) % 1_000,
    }
}

/// One tenant's sweep: its name and `(target ms, search seed)` jobs.
pub type TenantGrid = (&'static str, Vec<(f64, u64)>);

/// The `sweep` workload's input: three tenants whose target × seed grids
/// overlap pairwise. Targets are three values 2 ms apart starting in
/// [20.0, 22.0); each tenant takes two targets and two seeds, so every
/// pair of tenants shares one identical job and further jobs share a
/// target or a seed.
pub fn tenant_grids(seed: u64) -> Vec<TenantGrid> {
    let base = 20.0 + (derive(seed, 4) % 20) as f64 / 10.0;
    let t = [base, base + 2.0, base + 4.0];
    let s0 = derive(seed, 5) % 1_000;
    let s = [s0, s0 + 1, s0 + 2];
    let grid = |ti: [usize; 2], si: [usize; 2]| -> Vec<(f64, u64)> {
        ti.iter()
            .flat_map(|&a| si.iter().map(move |&b| (t[a], s[b])))
            .collect()
    };
    vec![
        ("acme", grid([0, 1], [0, 1])),
        ("globex", grid([1, 2], [1, 2])),
        ("initech", grid([0, 2], [0, 2])),
    ]
}

/// `n` distinct random architectures for the `serve` workload's request
/// stream, in arrival order.
pub fn serve_stream(seed: u64, n: usize) -> Vec<Architecture> {
    let mut rng = StdRng::seed_from_u64(derive(seed, 6));
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let arch = Architecture::random_with(&mut rng);
        if seen.insert(architecture_key(&arch)) {
            out.push(arch);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        for seed in [0, 1, 7, u64::MAX] {
            assert_eq!(corpus_seed(seed), corpus_seed(seed));
            assert_eq!(search_input(seed), search_input(seed));
            assert_eq!(tenant_grids(seed), tenant_grids(seed));
            assert_eq!(serve_stream(seed, 500), serve_stream(seed, 500));
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let a: Vec<_> = (0..8).map(search_input).collect();
        let distinct: HashSet<u64> = a.iter().map(|i| i.target.to_bits() ^ i.seed).collect();
        assert_eq!(distinct.len(), a.len());
        assert_ne!(serve_stream(1, 50), serve_stream(2, 50));
        assert_ne!(tenant_grids(1), tenant_grids(2));
        assert_ne!(corpus_seed(1), corpus_seed(2));
    }

    #[test]
    fn inputs_stay_in_their_documented_ranges() {
        for seed in 0..200 {
            let s = search_input(seed);
            assert!((20.0..=26.0).contains(&s.target), "{s:?}");
            for (_, jobs) in tenant_grids(seed) {
                assert_eq!(jobs.len(), 4);
                assert!(jobs.iter().all(|&(t, _)| (20.0..26.0).contains(&t)));
            }
        }
    }

    #[test]
    fn tenants_overlap_pairwise() {
        let g = tenant_grids(3);
        for i in 0..3 {
            for j in i + 1..3 {
                let shared = g[i].1.iter().filter(|job| g[j].1.contains(job)).count();
                assert_eq!(shared, 1, "{} and {}", g[i].0, g[j].0);
            }
        }
    }

    #[test]
    fn the_serve_stream_never_repeats_an_architecture() {
        let stream = serve_stream(11, 5_000);
        let keys: HashSet<u64> = stream.iter().map(architecture_key).collect();
        assert_eq!(keys.len(), stream.len());
    }
}
