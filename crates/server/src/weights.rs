//! The lane-weight policy: how the [`FairQueue`](crate::queue::FairQueue)
//! sizes each domain's share of a dispatch micro-batch.
//!
//! Shares are derived from the per-domain cost EMA the engine set
//! already measures (`EngineSet::run_streaming`): cheap domains earn
//! larger shares, expensive domains smaller ones, so a batch costs
//! roughly the same wall-clock no matter which lanes are backlogged.
//! There is one policy and nothing to configure.

use crate::queue::NUM_LANES;

/// Smallest share a lane may receive: even the most expensive domain
/// keeps making progress every sweep.
const FLOOR: usize = 1;
/// Largest share a lane may receive; the cheapest sampled lane is pinned
/// here and the others scale down from it.
const CEIL: usize = 8;
/// Retune cadence, in dispatched batches. Derivation is a handful of
/// atomic loads, so this mostly bounds how fast the mix can oscillate
/// under a shifting workload.
pub(crate) const REFRESH_BATCHES: u32 = 32;

/// The weights in force until the first retune (and for as long as a
/// server has no cost signal), in [`Domain::ALL`](crate::wire::Domain::ALL)
/// order — hamming, editdist, setsim, graph.
pub(crate) const INITIAL_WEIGHTS: [usize; NUM_LANES] = [8, 4, 8, 2];

/// Derives per-lane weights from per-lane cost estimates in nanoseconds
/// (`0` = no sample yet for that lane).
///
/// The cheapest sampled lane gets `CEIL`; every other lane gets
/// `CEIL · cheapest / cost`, clamped to `[FLOOR, CEIL]` — i.e. shares
/// are inversely proportional to measured cost, so a sweep admits
/// roughly equal *work* from every backlogged lane. Unsampled lanes
/// optimistically get `CEIL` until their first completion reprices them.
pub(crate) fn derive(cost_ns: [u64; NUM_LANES]) -> [usize; NUM_LANES] {
    let Some(cheapest) = cost_ns.iter().copied().filter(|&c| c > 0).min() else {
        return [CEIL; NUM_LANES];
    };
    cost_ns.map(|c| {
        // `None` is an unsampled lane (cost 0).
        (CEIL as u64)
            .saturating_mul(cheapest)
            .checked_div(c)
            .map_or(CEIL, |scaled| (scaled as usize).clamp(FLOOR, CEIL))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_inverse_to_cost_and_clamped() {
        // Costs 1×, 2×, 4×, 100× the cheapest → shares 8, 4, 2, floor.
        assert_eq!(
            derive([10_000, 20_000, 40_000, 1_000_000]),
            [CEIL, 4, 2, FLOOR]
        );
    }

    #[test]
    fn derive_treats_unsampled_lanes_optimistically() {
        assert_eq!(derive([0, 0, 0, 0]), [CEIL; NUM_LANES]);
        // One sampled lane: it is the cheapest, others stay at ceil.
        assert_eq!(derive([0, 5_000, 0, 0]), [CEIL; NUM_LANES]);
        // An unsampled lane among sampled ones still gets ceil.
        assert_eq!(derive([1_000, 0, 2_000, 8_000]), [8, 8, 4, 1]);
    }
}
