//! Virtual-time cost model for reductions.
//!
//! Table 2 reports mean computation times per step (one pair: S-polynomial
//! plus reduction) of 26.7 ms (Lazard), 85 ms (Katsura-4) and 111.9 ms
//! (Katsura-5) on the 50 MHz i860 over arbitrary-precision arithmetic.
//! Our reductions count exact GF(p) coefficient operations and monomial
//! operations; the constants below convert those counts to simulated
//! i860 time. They are chosen so that the *mean step time and total
//! sequential runtime land at Table 2's scale* for the same inputs
//! (multiprecision rational arithmetic is far costlier per operation
//! than a word-size prime field, which the larger per-op constants
//! absorb; see EXPERIMENTS.md for measured-vs-paper values).

use crate::spoly::Work;
use earth_sim::VirtualDuration;

/// Simulated time per coefficient operation (multiprecision-equivalent).
pub const NS_PER_COEFF_OP: u64 = 40_000;

/// Simulated time per monomial comparison / divisibility test.
pub const NS_PER_MONO_OP: u64 = 4_000;

/// Fixed cost of starting one reduction step.
pub const NS_PER_STEP: u64 = 20_000;

/// Convert a reduction's operation counts into simulated time.
pub fn work_cost(w: &Work) -> VirtualDuration {
    VirtualDuration::from_ns(
        w.coeff_ops * NS_PER_COEFF_OP + w.mono_ops * NS_PER_MONO_OP + w.steps * NS_PER_STEP,
    )
}

/// Cost of the bookkeeping around inserting a polynomial into the basis
/// (pair generation, criteria checks).
pub fn insert_cost(new_pairs: usize) -> VirtualDuration {
    VirtualDuration::from_us(50 + 20 * new_pairs as u64)
}

/// Sequential virtual runtime of a completion run: the sum of its step
/// costs plus insertion bookkeeping — the Figure 4/5 speedup denominator.
pub fn sequential_runtime(stats: &crate::buchberger::BuchbergerStats) -> VirtualDuration {
    let steps: VirtualDuration = stats.step_works.iter().map(work_cost).sum();
    steps + insert_cost(8).times(stats.polys_added as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buchberger::{buchberger, SelectionStrategy};
    use crate::inputs::{katsura, lazard_workload};

    #[test]
    fn work_cost_is_linear_in_counts() {
        let w = Work {
            coeff_ops: 10,
            mono_ops: 100,
            steps: 1,
        };
        let t = work_cost(&w);
        assert_eq!(
            t.as_ns(),
            10 * NS_PER_COEFF_OP + 100 * NS_PER_MONO_OP + NS_PER_STEP
        );
    }

    /// The counts are the cost model's spec: a kernel change that alters
    /// the reduction order fails here on a named count, not as a golden
    /// diff.
    #[test]
    fn katsura4_sugar_work_is_pinned() {
        let (ring, input) = katsura(4);
        let (basis, stats) = buchberger(&ring, &input, SelectionStrategy::Sugar);
        assert_eq!(stats.pairs_processed, 188, "pairs processed");
        assert_eq!(stats.polys_added, 42, "polys added");
        assert_eq!(basis.len(), 47, "basis elements");
        assert_eq!(
            stats.work,
            Work {
                coeff_ops: 150_156,
                mono_ops: 320_880,
                steps: 8_371,
            }
        );
        assert_eq!(sequential_runtime(&stats).as_ns(), 7_466_000_000);
    }

    #[test]
    fn lazard_workload_runtime_is_seconds_scale() {
        let (ring, input) = lazard_workload();
        let (_, stats) = buchberger(&ring, &input, SelectionStrategy::Sugar);
        let t = sequential_runtime(&stats);
        // Table 2 reports 3761 ms for the paper's Lazard input; our
        // stand-in must land at the same order of magnitude.
        assert!(
            t.as_ms_f64() > 500.0 && t.as_ms_f64() < 60_000.0,
            "sequential Lazard workload {t}"
        );
    }
}
