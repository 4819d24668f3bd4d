//! The sequential feedforward network: forward pass, backpropagation,
//! stochastic-gradient update.
//!
//! All arithmetic uses `f32` ("all computations using floats for the
//! operands", Table 3). The parallel application computes *exactly* these
//! formulas, unit-slice by unit-slice, so its outputs are validated
//! bit-for-bit against this implementation.
//!
//! # Weight layout and summation order
//!
//! A [`Layer`] stores its weights in blocks of 8 units. Inside a block
//! the weights are fan-in-major: the 8 weights of input `i` lie side by
//! side, one lane per unit. The last block is padded with `+0.0`
//! weights.
//!
//! The layout changes which sums run side by side, never the order of
//! any one sum:
//! - the forward pass accumulates a block's units in parallel lanes, and
//!   each unit still starts from its bias and adds `w[u][i] · x[i]`
//!   (one multiply, one add) for `i` ascending;
//! - the backward partial of input `j` still adds `w[u][j] · delta[u]`
//!   for `u` ascending, starting from `+0.0`;
//! - the update still subtracts `(lr · delta[u]) · x[i]` from each
//!   weight and `lr · delta[u]` from each bias.
//!
//! Every result is therefore bit-identical to the textbook row-major
//! kernels, which the crate's `kernel_oracle` tests keep as the
//! reference.
//!
//! Kernels work on whole blocks. On a slice that starts or ends inside a
//! block:
//! - the forward pass computes every lane and keeps the slice's;
//! - the backward pass gives every lane outside the slice a zero delta.
//!   This is exact while the weights are finite. Each partial sum starts
//!   at `+0.0`, and a float sum is `-0.0` only when both addends are, so
//!   the sum is never `-0.0` and adding a `±0.0` product leaves it as it
//!   was. A non-finite weight would add NaN;
//! - the update selects the slice's lanes explicitly, because subtracting
//!   a zero step turns a `-0.0` weight into `+0.0`. Only padding lanes
//!   take a zero step, which keeps them `+0.0` under finite inputs.

use earth_sim::Rng;
use std::ops::Range;

/// Units per weight block: one 32-byte row of `f32` lanes per input.
const BLOCK: usize = 8;

/// One fully-connected layer: `units × fanin` weights plus a bias per
/// unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Layer {
    /// Number of units in this layer.
    pub units: usize,
    /// Incoming connections per unit.
    pub fanin: usize,
    /// Weights in blocks of `BLOCK` units (see the module docs):
    /// `w[(u / BLOCK * fanin + i) * BLOCK + u % BLOCK]` connects input `i`
    /// to unit `u`.
    w: Vec<f32>,
    /// Biases, one per unit.
    pub b: Vec<f32>,
}

/// The blocks holding units `lo..hi` of a layer of `units` units, each
/// with the lanes of it in the range.
fn blocks(lo: usize, hi: usize, units: usize) -> impl Iterator<Item = (usize, Range<usize>)> {
    assert!(lo <= hi && hi <= units, "units {lo}..{hi} of {units}");
    let end = if lo < hi { hi.div_ceil(BLOCK) } else { 0 };
    (lo / BLOCK..end).map(move |blk| {
        let base = blk * BLOCK;
        (blk, lo.max(base) - base..hi.min(base + BLOCK) - base)
    })
}

impl Layer {
    /// A layer of zero weights and biases.
    fn zeros(units: usize, fanin: usize) -> Self {
        Layer {
            units,
            fanin,
            w: vec![0.0; units.div_ceil(BLOCK) * fanin * BLOCK],
            b: vec![0.0; units],
        }
    }

    fn new(units: usize, fanin: usize, rng: &mut Rng) -> Self {
        let scale = (1.0 / fanin as f64).sqrt() as f32;
        let mut layer = Layer::zeros(units, fanin);
        // Drawn unit-major, input-minor, whatever the storage order.
        for u in 0..units {
            for i in 0..fanin {
                let at = layer.index(u, i);
                layer.w[at] = (rng.gen_f64_range(-1.0, 1.0) as f32) * scale;
            }
        }
        for b in &mut layer.b {
            *b = rng.gen_f64_range(-0.1, 0.1) as f32;
        }
        layer
    }

    fn index(&self, u: usize, i: usize) -> usize {
        assert!(
            u < self.units && i < self.fanin,
            "weight ({u}, {i}) outside a {}×{} layer",
            self.units,
            self.fanin
        );
        (u / BLOCK * self.fanin + i) * BLOCK + u % BLOCK
    }

    /// The weight connecting input `i` to unit `u`.
    pub fn weight(&self, u: usize, i: usize) -> f32 {
        self.w[self.index(u, i)]
    }

    /// Units `lo..hi` as a layer of their own: unit `u` here is unit
    /// `lo + u` of `self`, with the same weights and bias.
    pub fn rows(&self, lo: usize, hi: usize) -> Layer {
        assert!(
            lo <= hi && hi <= self.units,
            "rows {lo}..{hi} of {}",
            self.units
        );
        let mut out = Layer::zeros(hi - lo, self.fanin);
        for u in lo..hi {
            for i in 0..self.fanin {
                let at = out.index(u - lo, i);
                out.w[at] = self.weight(u, i);
            }
        }
        out.b.copy_from_slice(&self.b[lo..hi]);
        out
    }

    /// Block `blk`'s weights, one row of lanes per input.
    fn block(&self, blk: usize) -> &[[f32; BLOCK]] {
        let n = self.fanin * BLOCK;
        self.w[blk * n..(blk + 1) * n].as_chunks().0
    }

    fn block_mut(&mut self, blk: usize) -> &mut [[f32; BLOCK]] {
        let n = self.fanin * BLOCK;
        self.w[blk * n..(blk + 1) * n].as_chunks_mut().0
    }

    /// Activations of units `lo..hi` — the slice a machine node computes
    /// under unit parallelism.
    pub fn forward_slice(&self, lo: usize, hi: usize, input: &[f32]) -> Vec<f32> {
        assert_eq!(input.len(), self.fanin);
        let mut out = Vec::with_capacity(hi - lo);
        for (blk, lanes) in blocks(lo, hi, self.units) {
            // Every lane is computed; lanes outside the slice, padding
            // included, are dropped unread.
            let mut acc = [0.0f32; BLOCK];
            let bias = &self.b[blk * BLOCK..self.units.min((blk + 1) * BLOCK)];
            acc[..bias.len()].copy_from_slice(bias);
            for (row, &x) in self.block(blk).iter().zip(input) {
                for (a, &w) in acc.iter_mut().zip(row) {
                    *a += w * x;
                }
            }
            out.extend(acc[lanes].iter().map(|&s| sigmoid(s)));
        }
        out
    }

    /// Full-layer activations.
    pub fn forward(&self, input: &[f32]) -> Vec<f32> {
        self.forward_slice(0, self.units, input)
    }

    /// Contribution of output-unit deltas `lo..hi` to the previous layer's
    /// error terms: `partial[j] = Σ_{u in lo..hi} w[u][j] · delta[u - lo]`.
    /// Under unit parallelism each node computes this for the units it
    /// owns; the partial vectors are then summed.
    pub fn backward_partials(&self, lo: usize, hi: usize, delta: &[f32]) -> Vec<f32> {
        assert_eq!(delta.len(), hi - lo);
        let mut out = vec![0.0f32; self.fanin];
        for (blk, lanes) in blocks(lo, hi, self.units) {
            // Lanes outside the slice get a zero delta (see the module
            // docs for why that is exact).
            let mut d = [0.0f32; BLOCK];
            let first = blk * BLOCK + lanes.start - lo;
            d[lanes.clone()].copy_from_slice(&delta[first..first + lanes.len()]);
            for (o, row) in out.iter_mut().zip(self.block(blk)) {
                let mut s = *o;
                for (w, d) in row.iter().zip(&d) {
                    s += w * d;
                }
                *o = s;
            }
        }
        out
    }

    /// Gradient-descent update of units `lo..hi` for one sample:
    /// `w[u][i] -= lr · delta[u] · input[i]`, `b[u] -= lr · delta[u]`.
    pub fn update_slice(&mut self, lo: usize, hi: usize, delta: &[f32], input: &[f32], lr: f32) {
        assert_eq!(delta.len(), hi - lo);
        assert_eq!(input.len(), self.fanin);
        for (blk, lanes) in blocks(lo, hi, self.units) {
            let base = blk * BLOCK;
            let mut step = [0.0f32; BLOCK];
            for l in lanes.clone() {
                step[l] = lr * delta[base + l - lo];
                self.b[base + l] -= step[l];
            }
            let real = self.units.min(base + BLOCK) - base;
            let rows = self.block_mut(blk);
            if lanes == (0..real) {
                // Every lane outside the slice is padding, which a zero
                // step keeps at +0.0. Four input rows per step: LLVM
                // vectorizes a loop over single rows across rows, which
                // costs a lane transpose per load and per store.
                let (quads, rest) = rows.as_chunks_mut::<4>();
                let (xs, x_rest) = input.as_chunks::<4>();
                for (quad, xs) in quads.iter_mut().zip(xs) {
                    for (row, &x) in quad.iter_mut().zip(xs) {
                        for (w, s) in row.iter_mut().zip(&step) {
                            *w -= s * x;
                        }
                    }
                }
                for (row, &x) in rest.iter_mut().zip(x_rest) {
                    for (w, s) in row.iter_mut().zip(&step) {
                        *w -= s * x;
                    }
                }
            } else {
                for (row, &x) in rows.iter_mut().zip(input) {
                    for (w, s) in row[lanes.clone()].iter_mut().zip(&step[lanes.clone()]) {
                        *w -= s * x;
                    }
                }
            }
        }
    }
}

/// The logistic activation — the paper's "quite simple" Θ function.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Derivative of the sigmoid expressed through its value.
#[inline]
pub fn sigmoid_prime(y: f32) -> f32 {
    y * (1.0 - y)
}

/// A 3-layer (input → hidden → output) fully-connected feedforward
/// network, the configuration of all the paper's measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct Mlp {
    /// Hidden layer (fanin = input width).
    pub hidden: Layer,
    /// Output layer (fanin = hidden width).
    pub output: Layer,
}

/// Activations produced by a forward pass.
#[derive(Clone, Debug, PartialEq)]
pub struct Activations {
    /// Hidden-layer outputs.
    pub hidden: Vec<f32>,
    /// Output-layer outputs.
    pub output: Vec<f32>,
}

/// Per-sample error terms produced by backpropagation.
#[derive(Clone, Debug, PartialEq)]
pub struct Deltas {
    /// Output-unit deltas.
    pub output: Vec<f32>,
    /// Hidden-unit deltas.
    pub hidden: Vec<f32>,
}

impl Mlp {
    /// A seeded network with `inputs` inputs, `hidden` hidden units and
    /// `outputs` output units. The paper uses equal widths per layer.
    pub fn new(inputs: usize, hidden: usize, outputs: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        Mlp {
            hidden: Layer::new(hidden, inputs, &mut rng),
            output: Layer::new(outputs, hidden, &mut rng),
        }
    }

    /// The paper's square configuration: `units` per layer everywhere.
    pub fn square(units: usize, seed: u64) -> Self {
        Mlp::new(units, units, units, seed)
    }

    /// Forward pass.
    pub fn forward(&self, input: &[f32]) -> Activations {
        let hidden = self.hidden.forward(input);
        let output = self.output.forward(&hidden);
        Activations { hidden, output }
    }

    /// Backpropagate the squared-error loss `½‖output − target‖²`.
    pub fn backprop(&self, acts: &Activations, target: &[f32]) -> Deltas {
        let output: Vec<f32> = acts
            .output
            .iter()
            .zip(target)
            .map(|(&a, &t)| (a - t) * sigmoid_prime(a))
            .collect();
        let partial = self.output.backward_partials(0, self.output.units, &output);
        let hidden: Vec<f32> = acts
            .hidden
            .iter()
            .zip(&partial)
            .map(|(&a, &p)| p * sigmoid_prime(a))
            .collect();
        Deltas { output, hidden }
    }

    /// One full online-learning step (forward, backward, update).
    /// Returns the sample's squared error before the update.
    pub fn train_sample(&mut self, input: &[f32], target: &[f32], lr: f32) -> f32 {
        let acts = self.forward(input);
        let err: f32 = acts
            .output
            .iter()
            .zip(target)
            .map(|(&a, &t)| (a - t) * (a - t))
            .sum();
        let deltas = self.backprop(&acts, target);
        self.output
            .update_slice(0, self.output.units, &deltas.output, &acts.hidden, lr);
        self.hidden
            .update_slice(0, self.hidden.units, &deltas.hidden, input, lr);
        0.5 * err
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Add `eps` to the weight from input `i` to unit `u`.
    fn bump(layer: &mut Layer, u: usize, i: usize, eps: f32) {
        let before = layer.weight(u, i);
        let at = layer.index(u, i);
        layer.w[at] += eps;
        assert_eq!(layer.weight(u, i), before + eps);
    }

    #[test]
    fn forward_slices_compose_to_full_layer() {
        let net = Mlp::square(16, 3);
        let input: Vec<f32> = (0..16).map(|i| (i as f32) / 16.0).collect();
        let full = net.hidden.forward(&input);
        let mut stitched = Vec::new();
        for (lo, hi) in [(0, 5), (5, 11), (11, 16)] {
            stitched.extend(net.hidden.forward_slice(lo, hi, &input));
        }
        assert_eq!(full, stitched, "slicing must be exact, not approximate");
    }

    #[test]
    fn backward_partials_compose_by_summation() {
        let net = Mlp::square(12, 5);
        let delta: Vec<f32> = (0..12).map(|i| 0.01 * i as f32).collect();
        let full = net.output.backward_partials(0, 12, &delta);
        let a = net.output.backward_partials(0, 7, &delta[0..7]);
        let b = net.output.backward_partials(7, 12, &delta[7..12]);
        for j in 0..12 {
            let sum = a[j] + b[j];
            assert!(
                (full[j] - sum).abs() < 1e-5,
                "partial sums diverge at {j}: {} vs {sum}",
                full[j]
            );
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut net = Mlp::new(4, 6, 3, 9);
        let input = [0.2f32, -0.4, 0.7, 0.1];
        let target = [0.9f32, 0.1, 0.5];
        let acts = net.forward(&input);
        let deltas = net.backprop(&acts, &target);
        // analytic dE/dw for output weight (u=1, i=2): delta_out[1] * hidden[2]
        let analytic = deltas.output[1] as f64 * acts.hidden[2] as f64;
        let loss = |n: &Mlp| -> f64 {
            let a = n.forward(&input);
            0.5 * a
                .output
                .iter()
                .zip(&target)
                .map(|(&x, &t)| ((x - t) as f64).powi(2))
                .sum::<f64>()
        };
        let eps = 1e-3f32;
        let base = loss(&net);
        bump(&mut net.output, 1, 2, eps);
        let bumped = loss(&net);
        let numeric = (bumped - base) / eps as f64;
        assert!(
            (analytic - numeric).abs() < 1e-3,
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn hidden_gradient_matches_finite_differences() {
        let mut net = Mlp::new(3, 5, 2, 21);
        let input = [0.5f32, -0.3, 0.8];
        let target = [0.2f32, 0.7];
        let acts = net.forward(&input);
        let deltas = net.backprop(&acts, &target);
        let analytic = deltas.hidden[2] as f64 * input[1] as f64;
        let loss = |n: &Mlp| -> f64 {
            let a = n.forward(&input);
            0.5 * a
                .output
                .iter()
                .zip(&target)
                .map(|(&x, &t)| ((x - t) as f64).powi(2))
                .sum::<f64>()
        };
        let eps = 1e-3f32;
        let base = loss(&net);
        bump(&mut net.hidden, 2, 1, eps);
        let numeric = (loss(&net) - base) / eps as f64;
        assert!(
            (analytic - numeric).abs() < 1e-3,
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn online_training_reduces_error() {
        let mut net = Mlp::new(2, 8, 1, 4);
        // XOR — the classic non-linearly-separable check.
        let samples = [
            ([0.0f32, 0.0], [0.05f32]),
            ([0.0, 1.0], [0.95]),
            ([1.0, 0.0], [0.95]),
            ([1.0, 1.0], [0.05]),
        ];
        let sweep = |net: &mut Mlp, lr: f32| -> f32 {
            samples
                .iter()
                .map(|(x, t)| net.train_sample(x, t, lr))
                .sum()
        };
        let first = sweep(&mut net, 2.0);
        let mut last = first;
        for _ in 0..3000 {
            last = sweep(&mut net, 2.0);
        }
        assert!(
            last < first / 10.0,
            "training stuck: first {first}, last {last}"
        );
    }

    #[test]
    fn sigmoid_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(10.0) > 0.999);
        assert!(sigmoid(-10.0) < 0.001);
        let y = sigmoid(0.3);
        assert!((sigmoid_prime(y) - y * (1.0 - y)).abs() < 1e-7);
    }

    #[test]
    fn seeded_networks_are_reproducible() {
        assert_eq!(Mlp::square(80, 7), Mlp::square(80, 7));
        assert_ne!(Mlp::square(80, 7), Mlp::square(80, 8));
    }
}
