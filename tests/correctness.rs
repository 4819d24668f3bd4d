//! Cross-crate integration: every parallel application must produce the
//! same *result* as its sequential substrate, on a spread of machine
//! sizes, argument-fetch variants, and cost models.

use earth_manna::algebra::buchberger::{buchberger, is_groebner, reduce_basis, SelectionStrategy};
use earth_manna::algebra::inputs::{cyclic, katsura, lazard};
use earth_manna::apps::eigen::{run_eigen, FetchMode};
use earth_manna::apps::groebner::run_groebner;
use earth_manna::apps::neural::{run_neural, CommsShape, PassMode};
use earth_manna::linalg::bisect::bisect_all;
use earth_manna::linalg::SymTridiagonal;
use earth_manna::nn::net::Mlp;
use earth_manna::sim::Rng;

#[test]
fn eigen_agrees_with_sequential_across_machine_sizes() {
    let m = SymTridiagonal::random_clustered(80, 4, 13);
    let tol = 1e-6;
    let (seq, _) = bisect_all(&m, tol);
    for nodes in [1u16, 2, 3, 7, 12, 20] {
        for mode in [FetchMode::Individual, FetchMode::Block] {
            let run = run_eigen(&m, tol, nodes, 99, mode);
            assert_eq!(run.eigenvalues.len(), seq.len(), "{nodes} nodes {mode:?}");
            for (p, s) in run.eigenvalues.iter().zip(&seq) {
                assert!((p - s).abs() <= 2.0 * tol, "{nodes} nodes: {p} vs {s}");
            }
        }
    }
}

#[test]
fn eigen_toeplitz_matches_analytic_spectrum_through_the_runtime() {
    let n = 48;
    let m = SymTridiagonal::toeplitz(n, -2.0, 1.0);
    let want = SymTridiagonal::toeplitz_eigenvalues(n, -2.0, 1.0);
    let run = run_eigen(&m, 1e-8, 6, 1, FetchMode::Block);
    for (got, want) in run.eigenvalues.iter().zip(&want) {
        assert!((got - want).abs() < 1e-6, "{got} vs {want}");
    }
}

#[test]
fn groebner_same_ideal_for_every_configuration() {
    let (ring, input) = katsura(3);
    let (seq_basis, _) = buchberger(&ring, &input, SelectionStrategy::Sugar);
    let reference = reduce_basis(&ring, &seq_basis);
    for nodes in [1u16, 2, 4, 9] {
        for seed in [0u64, 1] {
            let run = run_groebner(&ring, &input, nodes, seed, SelectionStrategy::Sugar, None);
            assert!(is_groebner(&ring, &run.basis), "nodes={nodes} seed={seed}");
            assert_eq!(
                reduce_basis(&ring, &run.basis),
                reference,
                "nodes={nodes} seed={seed}"
            );
        }
    }
}

#[test]
fn groebner_correct_under_message_passing_costs() {
    // The cost model must never change the mathematics.
    let (ring, input) = lazard();
    let (seq_basis, _) = buchberger(&ring, &input, SelectionStrategy::Sugar);
    let reference = reduce_basis(&ring, &seq_basis);
    for us in [300u64, 1000] {
        let run = run_groebner(&ring, &input, 5, 3, SelectionStrategy::Sugar, Some(us));
        assert_eq!(reduce_basis(&ring, &run.basis), reference, "{us}us");
    }
}

#[test]
fn groebner_handles_cyclic_inputs() {
    let (ring, input) = cyclic(4);
    let run = run_groebner(&ring, &input, 6, 1, SelectionStrategy::Normal, None);
    assert!(is_groebner(&ring, &run.basis));
}

#[test]
fn groebner_selection_strategies_agree_in_parallel() {
    let (ring, input) = katsura(3);
    let mut reduced = Vec::new();
    for strategy in [
        SelectionStrategy::Normal,
        SelectionStrategy::Sugar,
        SelectionStrategy::Fifo,
    ] {
        let run = run_groebner(&ring, &input, 4, 2, strategy, None);
        reduced.push(reduce_basis(&ring, &run.basis));
    }
    assert_eq!(reduced[0], reduced[1]);
    assert_eq!(reduced[1], reduced[2]);
}

#[test]
fn neural_forward_is_bit_exact_for_many_slicings() {
    let units = 30;
    for nodes in [1u16, 2, 3, 5, 7, 11, 16] {
        let run = run_neural(units, nodes, 2, 21, PassMode::Forward, CommsShape::Tree);
        let net = Mlp::square(units, 21 ^ 0xD1);
        let mut rng = Rng::new(21 ^ 0x5A);
        for out in &run.outputs {
            let x: Vec<f32> = (0..units)
                .map(|_| rng.gen_f64_range(-1.0, 1.0) as f32)
                .collect();
            let _t: Vec<f32> = (0..units)
                .map(|_| rng.gen_f64_range(0.1, 0.9) as f32)
                .collect();
            assert_eq!(out, &net.forward(&x).output, "{nodes} nodes");
        }
    }
}

#[test]
fn neural_both_comm_shapes_compute_the_same_function() {
    let units = 24;
    let a = run_neural(units, 6, 2, 3, PassMode::Forward, CommsShape::Sequential);
    let b = run_neural(units, 6, 2, 3, PassMode::Forward, CommsShape::Tree);
    assert_eq!(a.outputs, b.outputs);
}

mod generated_correctness {
    use super::*;
    use earth_testkit::prelude::*;

    props! {
        #![config(Config::with_cases(12))]

        #[test]
        fn eigen_matches_sequential_for_generated_sizes(
            n in 6usize..30,
            nodes in 1u16..9,
            seed in any::<u64>(),
        ) {
            let m = SymTridiagonal::random_clustered(n, 2, seed);
            let tol = 1e-6;
            let (seq, _) = bisect_all(&m, tol);
            let run = run_eigen(&m, tol, nodes, seed, FetchMode::Block);
            prop_assert_eq!(run.eigenvalues.len(), seq.len());
            for (p, s) in run.eigenvalues.iter().zip(&seq) {
                prop_assert!((p - s).abs() <= 2.0 * tol, "{p} vs {s}");
            }
        }
    }
}
