#!/usr/bin/env bash
# Offline CI gate: everything here must pass with no network access and
# no crates beyond the workspace itself (std only).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline, all targets) =="
cargo build --release --offline --workspace --all-targets

echo "== tests =="
cargo test -q --offline --workspace

echo "== nn, apps and algebra tests (release: the vectorized f32 kernels and the optimized term-order and mask kernels meet their oracles) =="
cargo test -q --release --offline -p earth-nn -p earth-apps -p earth-algebra

echo "== clippy (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== example smoke (release) =="
for ex in examples/*.rs; do
    name="$(basename "$ex" .rs)"
    echo "-- example: $name"
    cargo run --release --offline --example "$name" >/dev/null
done

echo "== chaos smoke (mid-run node crash per app vs fault-free golden) =="
cargo run --release --offline --example chaos_smoke >/dev/null

echo "== format =="
cargo fmt --check

echo "== host clock (read only by the testkit bench runner; simulated time stays deterministic) =="
if grep -rnE 'Instant::now|SystemTime|std::time' crates src tests examples |
    grep -v '^crates/testkit/src/bench\.rs:'; then
    echo "host clock read outside crates/testkit/src/bench.rs"
    exit 1
fi

echo "== primitives bench smoke (1 iteration per benchmark) =="
cargo bench --offline -p earth-bench --bench primitives -- --smoke >/dev/null

echo "== benchmark self-test (Groebner, eigen and NN output checks end to end) =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== benchmark virtual digests (seed 1997; only a declared model change moves a pin) =="
for pin in paper_apps:0226ce5ce341459c scale_1024:ec95d2252960371d serve_chaos:a07f0b1ff118e73b; do
    workload="${pin%%:*}"
    want="${pin##*:}"
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1997 --seconds 0 --trace 0 > "/tmp/perfbench_$workload.txt"
    if ! grep -q "virtual digest $want\$" "/tmp/perfbench_$workload.txt"; then
        echo "$workload: virtual digest moved (pinned $want)"
        grep "virtual digest" "/tmp/perfbench_$workload.txt" || true
        exit 1
    fi
done

echo "== EventQueue and LadderQueue vs the (time, seq) heap oracle, pop for pop (perfbench's hold probe times the ladder) =="
cargo test -q --offline -p earth-sim --test queue_diff

echo "== topology scale smoke (256 nodes, every app x interconnect, byte-identical reruns) =="
cargo run --release --offline -p earth-bench --bin repro -- scale --smoke --json > /tmp/scale_smoke_a.json
cargo run --release --offline -p earth-bench --bin repro -- scale --smoke --json > /tmp/scale_smoke_b.json
cmp /tmp/scale_smoke_a.json /tmp/scale_smoke_b.json
cmp /tmp/scale_smoke_a.json crates/bench/tests/golden/scale_smoke.json
grep -q '"experiment":"scale"' /tmp/scale_smoke_a.json
grep -q '"topologies":\["crossbar","hypercube","torus3d","fattree"\]' /tmp/scale_smoke_a.json

echo "== traffic smoke (open-loop streams through admission, byte-identical reruns) =="
cargo run --release --offline -p earth-bench --bin repro -- traffic --smoke --json > /tmp/traffic_smoke_a.json
cargo run --release --offline -p earth-bench --bin repro -- traffic --smoke --json > /tmp/traffic_smoke_b.json
cmp /tmp/traffic_smoke_a.json /tmp/traffic_smoke_b.json
cmp /tmp/traffic_smoke_a.json crates/bench/tests/golden/traffic_smoke.json
grep -q '"experiment":"traffic"' /tmp/traffic_smoke_a.json
grep -q '"variant":"crashed"' /tmp/traffic_smoke_a.json

echo "== overload smoke (goodput under saturation, defenses off vs on, byte-identical reruns) =="
cargo run --release --offline -p earth-bench --bin repro -- overload --smoke --json > /tmp/overload_smoke_a.json
cargo run --release --offline -p earth-bench --bin repro -- overload --smoke --json > /tmp/overload_smoke_b.json
cmp /tmp/overload_smoke_a.json /tmp/overload_smoke_b.json
cmp /tmp/overload_smoke_a.json crates/bench/tests/golden/overload_smoke.json
grep -q '"experiment":"overload"' /tmp/overload_smoke_a.json
grep -q '"variant":"naive"' /tmp/overload_smoke_a.json
grep -q '"variant":"defended_crashed"' /tmp/overload_smoke_a.json

echo "== straggler smoke (gray failure, naive vs defended, byte-identical reruns) =="
cargo run --release --offline -p earth-bench --bin repro -- stragglers --smoke --json > /tmp/stragglers_smoke_a.json
cargo run --release --offline -p earth-bench --bin repro -- stragglers --smoke --json > /tmp/stragglers_smoke_b.json
cmp /tmp/stragglers_smoke_a.json /tmp/stragglers_smoke_b.json
cmp /tmp/stragglers_smoke_a.json crates/bench/tests/golden/stragglers_smoke.json
grep -q '"experiment":"stragglers"' /tmp/stragglers_smoke_a.json
grep -q '"variant":"naive"' /tmp/stragglers_smoke_a.json
grep -q '"variant":"defended_lossy"' /tmp/stragglers_smoke_a.json
grep -q '"variant":"defended_crashed"' /tmp/stragglers_smoke_a.json

echo "== fault and crash sweeps (pinned bytes) =="
cargo run --release --offline -p earth-bench --bin repro -- faults --json > /tmp/faults.json
cargo run --release --offline -p earth-bench --bin repro -- crashes --json > /tmp/crashes.json
cmp /tmp/faults.json crates/bench/tests/golden/faults.json
cmp /tmp/crashes.json crates/bench/tests/golden/crashes.json

echo "== paper-scale output (every table and figure, pinned bytes) =="
cargo run --release --offline -p earth-bench --bin repro > /tmp/repro_paper_scale.txt
cmp /tmp/repro_paper_scale.txt repro_paper_scale.txt

echo "== repro rejects unknown experiment names =="
if cargo run --release --offline -p earth-bench --bin repro -- nosuch 2>/dev/null; then
    echo "repro nosuch exited 0"
    exit 1
fi

echo "== topology scale full (1024 nodes; terminates inside the smoke budget) =="
cargo run --release --offline -p earth-bench --bin repro -- scale --json > /tmp/scale_full.json
grep -q '"nodes":\[20,64,256,1024\]' /tmp/scale_full.json

echo "ci.sh: all green"
