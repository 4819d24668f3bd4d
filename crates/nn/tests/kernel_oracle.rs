//! The textbook row-major kernels, kept as the bit-for-bit oracle for
//! `earth_nn::net::Layer`'s blocked layout.
//!
//! Every comparison is on `to_bits`: the blocked kernels must round
//! exactly as these do, on every slice a node or the sequential
//! reference can ask for.

use earth_nn::net::{sigmoid, Layer};
use earth_nn::Mlp;
use earth_sim::Rng;
use earth_testkit::prelude::*;

/// A layer in the textbook layout: `w[u * fanin + i]` connects input `i`
/// to unit `u`.
struct RowMajor {
    fanin: usize,
    w: Vec<f32>,
    b: Vec<f32>,
}

impl RowMajor {
    fn of(layer: &Layer) -> RowMajor {
        let w = (0..layer.units)
            .flat_map(|u| (0..layer.fanin).map(move |i| layer.weight(u, i)))
            .collect();
        RowMajor {
            fanin: layer.fanin,
            w,
            b: layer.b.clone(),
        }
    }

    fn net_input(&self, unit: usize, input: &[f32]) -> f32 {
        let row = &self.w[unit * self.fanin..(unit + 1) * self.fanin];
        let mut s = self.b[unit];
        for (wi, xi) in row.iter().zip(input) {
            s += wi * xi;
        }
        s
    }

    fn forward_slice(&self, lo: usize, hi: usize, input: &[f32]) -> Vec<f32> {
        (lo..hi)
            .map(|u| sigmoid(self.net_input(u, input)))
            .collect()
    }

    fn backward_partials(&self, lo: usize, hi: usize, delta: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.fanin];
        for u in lo..hi {
            let row = &self.w[u * self.fanin..(u + 1) * self.fanin];
            let d = delta[u - lo];
            for (o, wi) in out.iter_mut().zip(row) {
                *o += wi * d;
            }
        }
        out
    }

    fn update_slice(&mut self, lo: usize, hi: usize, delta: &[f32], input: &[f32], lr: f32) {
        for u in lo..hi {
            let d = delta[u - lo];
            let row = &mut self.w[u * self.fanin..(u + 1) * self.fanin];
            for (wi, xi) in row.iter_mut().zip(input) {
                *wi -= lr * d * xi;
            }
            self.b[u] -= lr * d;
        }
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every weight and bias of `layer` equals the oracle's, bit for bit.
fn same_params(layer: &Layer, oracle: &RowMajor, what: &str) -> TestResult {
    prop_assert_eq!(bits(&layer.b), bits(&oracle.b), "{} biases", what);
    for u in 0..layer.units {
        for i in 0..layer.fanin {
            let (got, want) = (layer.weight(u, i), oracle.w[u * oracle.fanin + i]);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{} w[{}][{}]", what, u, i);
        }
    }
    Ok(())
}

/// A slice `lo..hi` of `units` units drawn from two raw words.
fn slice(units: usize, a: u64, b: u64) -> (usize, usize) {
    let x = (a % (units as u64 + 1)) as usize;
    let y = (b % (units as u64 + 1)) as usize;
    (x.min(y), x.max(y))
}

fn values(rng: &mut Rng, n: usize, scale: f64) -> Vec<f32> {
    (0..n)
        .map(|_| rng.gen_f64_range(-scale, scale) as f32)
        .collect()
}

props! {
    #![config(Config::with_cases(160))]

    #[test]
    fn blocked_kernels_match_the_row_major_oracle(
        units in 1usize..41,
        fanin in 1usize..41,
        seed in any::<u64>(),
        cuts in collection::vec(any::<u64>(), 8),
    ) {
        let mut layer = Mlp::new(fanin, units, 1, seed).hidden;
        let mut oracle = RowMajor::of(&layer);
        let mut rng = Rng::new(seed ^ 0x0A11);
        // Not a power of two, so `(lr · d) · x` and `lr · (d · x)` differ.
        let lr = rng.gen_f64_range(0.05, 0.95) as f32;
        for round in 0..4 {
            let (lo, hi) = slice(units, cuts[2 * round], cuts[2 * round + 1]);
            let one = (cuts[round] % units as u64) as usize;
            let empty = (cuts[round + 4] % (units as u64 + 1)) as usize;
            let x = values(&mut rng, fanin, 1.0);
            for (lo, hi) in [(0, units), (lo, hi), (one, one + 1), (empty, empty)] {
                prop_assert_eq!(
                    bits(&layer.forward_slice(lo, hi, &x)),
                    bits(&oracle.forward_slice(lo, hi, &x)),
                    "round {} forward {}..{}", round, lo, hi
                );
                let delta = values(&mut rng, hi - lo, 0.5);
                prop_assert_eq!(
                    bits(&layer.backward_partials(lo, hi, &delta)),
                    bits(&oracle.backward_partials(lo, hi, &delta)),
                    "round {} backward {}..{}", round, lo, hi
                );
            }
            let delta = values(&mut rng, hi - lo, 0.5);
            layer.update_slice(lo, hi, &delta, &x, lr);
            oracle.update_slice(lo, hi, &delta, &x, lr);
            same_params(&layer, &oracle, &format!("round {round} update {lo}..{hi}"))?;
        }
        // A node's own rows: the same parameters, and local unit `u`
        // computes what unit `lo + u` of the whole layer computes.
        let (lo, hi) = slice(units, cuts[6], cuts[7]);
        let rows = layer.rows(lo, hi);
        prop_assert_eq!(rows.units, hi - lo);
        let cut = RowMajor {
            fanin,
            w: oracle.w[lo * fanin..hi * fanin].to_vec(),
            b: oracle.b[lo..hi].to_vec(),
        };
        same_params(&rows, &cut, "rows")?;
        let x = values(&mut rng, fanin, 1.0);
        prop_assert_eq!(
            bits(&rows.forward(&x)),
            bits(&oracle.forward_slice(lo, hi, &x)),
            "rows {}..{} forward", lo, hi
        );
        let delta = values(&mut rng, hi - lo, 0.5);
        prop_assert_eq!(
            bits(&rows.backward_partials(0, hi - lo, &delta)),
            bits(&oracle.backward_partials(lo, hi, &delta)),
            "rows {}..{} backward", lo, hi
        );
    }
}

#[test]
fn seeded_nets_draw_weights_unit_major() {
    // Layer::new draws unit-major, input-minor, as the row-major layout
    // stored them: the first draws after the seed are unit 0's weights.
    let net = Mlp::new(5, 11, 3, 42);
    let mut rng = Rng::new(42);
    let scale = (1.0f64 / 5.0).sqrt() as f32;
    for u in 0..11 {
        for i in 0..5 {
            let want = (rng.gen_f64_range(-1.0, 1.0) as f32) * scale;
            assert_eq!(
                net.hidden.weight(u, i).to_bits(),
                want.to_bits(),
                "({u}, {i})"
            );
        }
    }
}
