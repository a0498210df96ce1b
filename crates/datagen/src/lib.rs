//! # pigeonring-datagen
//!
//! Seeded synthetic dataset generators standing in for the paper's eight
//! real datasets (GIST, SIFT, Enron, DBLP, IMDB, PubMed, AIDS, Protein).
//! Every generator is deterministic given its config (same seed → same
//! data), plants groups of near-duplicates so that thresholded queries
//! have non-trivial result sets, and reproduces the distributional
//! features the filters are sensitive to (each module's docs give the
//! substitution argument for its datasets). The graph generators also
//! scale vertex counts down so that exact GED verification stays
//! tractable.
//!
//! * [`vectors`] — clustered binary vectors (GIST-like 256-d, SIFT-like
//!   512-d).
//! * [`sets`] — Zipfian token sets (Enron-like avg 142 tokens, DBLP-like
//!   avg 14).
//! * [`strings`] — skewed-alphabet strings with planted typo variants
//!   (IMDB-like len ≈ 16, PubMed-like len ≈ 101).
//! * [`graphs`] — sparse labeled graphs with planted edit variants
//!   (AIDS-like: many labels; Protein-like: few labels, denser).
//! * [`zipf`] — the exact inverse-CDF Zipf sampler the above share.

pub mod graphs;
pub mod sets;
pub mod strings;
pub mod vectors;
pub mod zipf;

pub use graphs::GraphConfig;
pub use sets::SetConfig;
pub use strings::StringConfig;
pub use vectors::VectorConfig;

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The workspace-wide seeded RNG constructor.
pub fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Deterministically samples `count` query indices from a dataset of
/// `n` items (evenly spaced with a seeded offset, as the paper samples
/// 1,000 queries per dataset).
pub fn sample_query_ids(n: usize, count: usize, seed: u64) -> Vec<usize> {
    assert!(n > 0, "cannot sample queries from an empty dataset");
    let count = count.min(n);
    let stride = n / count.max(1);
    let offset = (seed as usize) % stride.max(1);
    (0..count)
        .map(|i| (offset + i * stride.max(1)) % n)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_ids_are_unique_and_in_range() {
        let ids = sample_query_ids(1000, 100, 42);
        assert_eq!(ids.len(), 100);
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100);
        assert!(ids.iter().all(|&i| i < 1000));
    }

    #[test]
    fn query_sampling_handles_small_datasets() {
        let ids = sample_query_ids(5, 100, 7);
        assert_eq!(ids.len(), 5);
    }
}
