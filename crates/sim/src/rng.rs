//! A small, self-contained, deterministic PRNG.
//!
//! The reproduction of the paper's indeterminism study (Fig. 4b / Fig. 5
//! min/mean/max envelopes over 20 runs) depends on being able to rerun a
//! simulation bit-identically from a seed, on any platform, forever. We
//! therefore avoid external RNG crates inside the simulator and use
//! xoshiro256** (Blackman & Vigna) seeded through SplitMix64 — the
//! standard, well-tested construction.

/// xoshiro256** generator with SplitMix64 seeding.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One word of a counter-based random stream: a pure function of
/// `(seed, lane, k)`, so decision `k` on lane `lane` is the same no matter
/// when — or whether — the other decisions are drawn. This is the same
/// template as the fault plane's fate stream: consumers that must not
/// perturb each other (arrival processes, fault fates) address their
/// randomness by counter instead of sharing a stateful generator.
#[inline]
pub fn stream_word(seed: u64, lane: u64, k: u64) -> u64 {
    let mut s =
        seed ^ lane.wrapping_mul(0xA24B_AED4_963E_E407) ^ k.wrapping_mul(0x9FB2_1C65_1E98_DF25);
    let a = splitmix64(&mut s);
    splitmix64(&mut s) ^ a.rotate_left(23)
}

/// Map a raw 64-bit word to a uniform float in `[0, 1)` with 53 bits of
/// precision — the counter-stream counterpart of [`Rng::gen_f64`].
#[inline]
pub fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Map a raw 64-bit word to a uniform integer in `[0, bound)` by the
/// multiply-shift method — the counter-stream counterpart of
/// [`Rng::gen_range`]. Being a pure function of the word, it composes
/// with [`stream_word`] for counter-addressed draws (deadline widths,
/// retry jitter) without the rejection loop a stateful generator can
/// afford; the residual bias at 64-bit word width is unobservable for
/// simulation-sized bounds.
#[inline]
pub fn word_bounded(x: u64, bound: u64) -> u64 {
    assert!(bound > 0, "word_bounded bound must be positive");
    ((x as u128 * bound as u128) >> 64) as u64
}

/// Bounded-Pareto inverse CDF: map a uniform `u ∈ [0, 1)` to a
/// heavy-tailed size in `[lo, hi]` with tail index `alpha`.
///
/// The bounded Pareto is the standard model for job-size distributions in
/// serving systems ("many small requests, a few huge ones"): mass
/// concentrates near `lo`, while the truncation at `hi` keeps every draw —
/// and therefore every simulated run — finite. Being a pure function of
/// `u`, it composes with [`stream_word`] for counter-addressed sampling.
#[inline]
pub fn bounded_pareto(u: f64, alpha: f64, lo: f64, hi: f64) -> f64 {
    assert!(alpha > 0.0, "bounded_pareto requires alpha > 0");
    assert!(lo > 0.0 && hi >= lo, "bounded_pareto requires 0 < lo <= hi");
    let ratio = (lo / hi).powf(alpha);
    let x = lo / (1.0 - u * (1.0 - ratio)).powf(1.0 / alpha);
    // Clamp away the float dust at the u -> 1 edge.
    x.clamp(lo, hi)
}

impl Rng {
    /// Create a generator from a 64-bit seed. Distinct seeds yield
    /// independent-looking streams; the all-zero internal state is
    /// unreachable by construction.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derive an independent child stream, e.g. one per simulated node.
    /// Children of distinct `salt`s do not correlate with the parent.
    pub fn fork(&mut self, salt: u64) -> Rng {
        Rng::new(self.next_u64() ^ salt.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift method
    /// (unbiased enough for simulation jitter; exact rejection is not
    /// required here but we include the standard fixup loop anyway).
    #[inline]
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_range(bound as u64) as usize
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    #[inline]
    pub fn gen_f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.gen_f64()
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_index(i + 1);
            items.swap(i, j);
        }
    }

    /// Pick a uniformly random element, or `None` for an empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.gen_index(items.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should not track each other");
    }

    #[test]
    fn fork_is_independent() {
        let mut parent = Rng::new(7);
        let mut c1 = parent.fork(0);
        let mut c2 = parent.fork(1);
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            assert!(r.gen_range(17) < 17);
        }
    }

    #[test]
    fn gen_range_hits_all_residues() {
        let mut r = Rng::new(11);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[r.gen_range(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = Rng::new(5);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::new(9);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle of 100 elements should move something");
    }

    #[test]
    fn stream_word_is_a_pure_function() {
        assert_eq!(stream_word(42, 3, 17), stream_word(42, 3, 17));
        // Any single coordinate change moves the word.
        assert_ne!(stream_word(42, 3, 17), stream_word(43, 3, 17));
        assert_ne!(stream_word(42, 3, 17), stream_word(42, 4, 17));
        assert_ne!(stream_word(42, 3, 17), stream_word(42, 3, 18));
    }

    #[test]
    fn stream_word_lanes_do_not_track_each_other() {
        let same = (0..256)
            .filter(|&k| stream_word(9, 0, k) == stream_word(9, 1, k))
            .count();
        assert!(same < 4, "lanes should be independent, {same} collisions");
    }

    #[test]
    fn word_bounded_respects_bound_and_spreads() {
        let mut seen = [false; 7];
        for k in 0..1_000u64 {
            let x = word_bounded(stream_word(3, 0, k), 7);
            assert!(x < 7);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should occur");
        // Pure: the same word maps to the same value, and the extremes
        // of the word range pin the extremes of the output range.
        assert_eq!(word_bounded(0, 100), 0);
        assert_eq!(word_bounded(u64::MAX, 100), 99);
        assert_eq!(word_bounded(42, 1), 0);
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn word_bounded_zero_bound_panics() {
        let _ = word_bounded(1, 0);
    }

    #[test]
    fn bounded_pareto_pins_min_and_max() {
        // u = 0 is exactly the lower bound; u -> 1 approaches the upper.
        assert_eq!(bounded_pareto(0.0, 1.5, 2.0, 64.0), 2.0);
        let near_one = 1.0 - 1e-15;
        let top = bounded_pareto(near_one, 1.5, 2.0, 64.0);
        assert!(
            top <= 64.0 && top > 60.0,
            "u->1 should approach hi, got {top}"
        );
        // Every counter-addressed draw stays inside [lo, hi].
        for k in 0..10_000u64 {
            let u = unit_f64(stream_word(7, 0, k));
            let x = bounded_pareto(u, 1.3, 4.0, 256.0);
            assert!((4.0..=256.0).contains(&x), "draw {x} escaped [4, 256]");
        }
    }

    #[test]
    fn bounded_pareto_degenerate_interval_is_constant() {
        for k in 0..100u64 {
            let u = unit_f64(stream_word(1, 0, k));
            assert_eq!(bounded_pareto(u, 2.0, 8.0, 8.0), 8.0);
        }
    }

    #[test]
    fn bounded_pareto_seeded_mean_matches_analytic() {
        // E[X] for the bounded Pareto with alpha != 1:
        //   lo^a / (1 - (lo/hi)^a) * a/(a-1) * (lo^(1-a) - hi^(1-a))
        let (alpha, lo, hi) = (1.5f64, 2.0f64, 200.0f64);
        let ratio = (lo / hi).powf(alpha);
        let expect = lo.powf(alpha) / (1.0 - ratio)
            * (alpha / (alpha - 1.0))
            * (lo.powf(1.0 - alpha) - hi.powf(1.0 - alpha));
        let n = 200_000u64;
        let sum: f64 = (0..n)
            .map(|k| bounded_pareto(unit_f64(stream_word(13, 2, k)), alpha, lo, hi))
            .sum();
        let mean = sum / n as f64;
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "seeded mean {mean} far from analytic {expect}"
        );
    }

    #[test]
    fn choose_empty_is_none() {
        let mut r = Rng::new(1);
        let empty: &[u8] = &[];
        assert!(r.choose(empty).is_none());
        assert_eq!(r.choose(&[42u8]), Some(&42));
    }
}
