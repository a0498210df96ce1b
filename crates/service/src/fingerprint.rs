//! Result-set fingerprinting.
//!
//! [`ResultHasher`] folds every query's result ids into one
//! deterministic FxHash value. Equal fingerprints across shard counts,
//! worker counts, processes and the wire certify identical result sets:
//! it is the equality check behind `repro query` / `repro server-smoke`,
//! the server integration suites and the repo benchmark's per-domain
//! digests.

use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

use pigeonring_core::fxhash::FxHasher;

/// Order-sensitive FxHash fingerprint over a sequence of result-id
/// sets. Two runs that return the same ids for the same queries in the
/// same order produce equal fingerprints — the cross-configuration
/// (and, via `pigeonring-server`, cross-process) equality check.
pub struct ResultHasher {
    hasher: FxHasher,
}

impl Default for ResultHasher {
    fn default() -> Self {
        ResultHasher::new()
    }
}

impl ResultHasher {
    /// An empty fingerprint.
    pub fn new() -> Self {
        ResultHasher {
            hasher: BuildHasherDefault::<FxHasher>::default().build_hasher(),
        }
    }

    /// Folds one query's result ids into the fingerprint.
    pub fn push(&mut self, ids: &[u32]) {
        self.hasher.write_usize(ids.len());
        for id in ids {
            self.hasher.write_u32(*id);
        }
    }

    /// The fingerprint over everything pushed so far.
    pub fn finish(&self) -> u64 {
        self.hasher.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_hasher_matches_push_order() {
        let mut a = ResultHasher::new();
        a.push(&[1, 2, 3]);
        a.push(&[]);
        let mut b = ResultHasher::new();
        b.push(&[1, 2, 3]);
        b.push(&[]);
        assert_eq!(a.finish(), b.finish());
        let mut c = ResultHasher::new();
        c.push(&[1, 2]);
        c.push(&[3]);
        assert_ne!(a.finish(), c.finish(), "boundaries are hashed");
        let mut d = ResultHasher::new();
        d.push(&[1, 2, 4]);
        d.push(&[]);
        assert_ne!(a.finish(), d.finish(), "ids are hashed, not only counts");
    }
}
