#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every commit.
#
#   1. release build of the whole workspace (no target-cpu=native — the
#      build must be portable; SIMD is selected at runtime)
#   2. full test suite, TWICE: once under the host's native kernel
#      dispatch (AVX-512/AVX2 where available) and once with
#      APA_FORCE_SCALAR_KERNEL=1 pinning the portable scalar tier — the
#      same binary must be correct on both paths
#   3. the dispatch-matrix suite (bitwise cross-tier agreement) as an
#      explicit gate
#   4. fault-injection suites (lane panics/stalls, torn checkpoint writes,
#      crash drills with bitwise-identical resume), including the
#      apa-serve overload chaos drill — a bounded (~tens of seconds)
#      >2x-capacity storm with panics, stalls, NaNs and corrupted
#      products that asserts every client gets a typed answer
#   5. ABFT checksum suites: single-bit flips injected into packed A,
#      packed B and finished C tiles must be detected, localized and
#      repaired in place, on BOTH the native SIMD tiers and the forced
#      scalar tier (the repair path recomputes with the scalar tier, so
#      it must hold when scalar is also the primary)
#   6. planner suites (plan compiler + persistent store), natively and
#      under the forced scalar tier — a compiled plan must be the same
#      decision on both dispatch paths of the same fingerprint, and the
#      cold-store vs warm-store determinism gate (same plan bitwise on
#      first compile and on reload) is run as an explicit check
#   7. the 2D cooperative-packing parallel suites (bitwise parallel ==
#      single-threaded across plain/fused x f32/f64 x ragged shapes x
#      thread counts, the Seq zero-atomics gate, and the panic-in-lane
#      drill), run natively AND again under APA_THREADS=2 APA_NO_PIN=1 —
#      the oversubscribed, unpinned configuration every CI container
#      sees must be just as correct as the pinned native one
#   8. the training-step gates, natively AND under
#      APA_FORCE_SCALAR_KERNEL=1: a warm Mlp::train_batch allocates
#      nothing on the calling thread (plain SGD, with a fallback, with an
#      Optimizer), the buffered step is bitwise equal to a per-layer
#      Dense adapter loop, and the tiled transpose is bitwise equal to a
#      naive loop on ragged shapes and strided views
#   9. rustfmt check
#  10. clippy with warnings promoted to errors
#
# Usage: scripts/tier1.sh   (from anywhere inside the repo)

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: cargo build --release =="
cargo build --release

echo "== tier1: cargo test (native kernel dispatch) =="
cargo test -q

echo "== tier1: cargo test (APA_FORCE_SCALAR_KERNEL=1, portable scalar tier) =="
APA_FORCE_SCALAR_KERNEL=1 cargo test -q

echo "== tier1: cargo test -p apa-gemm --test dispatch_matrix (bitwise cross-tier agreement) =="
cargo test -q -p apa-gemm --test dispatch_matrix

echo "== tier1: cargo test -p apa-gemm --test forced_scalar (env override) =="
cargo test -q -p apa-gemm --test forced_scalar

echo "== tier1: cargo test -p apa-gemm (fused pack / gemm_combined) =="
cargo test -q -p apa-gemm

echo "== tier1: cargo test -p apa-matmul --test fusion_equivalence =="
cargo test -q -p apa-matmul --test fusion_equivalence

echo "== tier1: cargo test -p apa-matmul --features fault-inject =="
cargo test -q -p apa-matmul --features fault-inject

echo "== tier1: cargo test -p apa-nn --features fault-inject (crash drills) =="
cargo test -q -p apa-nn --features fault-inject

echo "== tier1: cargo test -p apa-serve --features fault-inject (serving fault drills + overload chaos) =="
cargo test -q -p apa-serve --features fault-inject

echo "== tier1: cargo test -p apa-serve --test chaos --features fault-inject (typed-answer contract under storm) =="
cargo test -q -p apa-serve --test chaos --features fault-inject

echo "== tier1: ABFT flip suites, native dispatch (detect + localize + in-place repair) =="
cargo test -q -p apa-gemm --features fault-inject
cargo test -q -p apa-matmul --test abft_guard --features fault-inject

echo "== tier1: ABFT flip suites, APA_FORCE_SCALAR_KERNEL=1 (scalar primary + scalar repair tier) =="
APA_FORCE_SCALAR_KERNEL=1 cargo test -q -p apa-gemm --features fault-inject
APA_FORCE_SCALAR_KERNEL=1 cargo test -q -p apa-matmul --features fault-inject
APA_FORCE_SCALAR_KERNEL=1 cargo test -q -p apa-nn --features fault-inject
APA_FORCE_SCALAR_KERNEL=1 cargo test -q -p apa-serve --features fault-inject

echo "== tier1: cargo test -p apa-gemm --test parallel2d (2D cooperative packing, native) =="
cargo test -q -p apa-gemm --test parallel2d

echo "== tier1: cargo test -p apa-gemm --test parallel2d (APA_THREADS=2 APA_NO_PIN=1) =="
APA_THREADS=2 APA_NO_PIN=1 cargo test -q -p apa-gemm --test parallel2d

echo "== tier1: cargo test -p apa-gemm --test parallel_fault --features fault-inject (panic-in-lane drill, native) =="
cargo test -q -p apa-gemm --test parallel_fault --features fault-inject

echo "== tier1: cargo test -p apa-gemm --test parallel_fault --features fault-inject (APA_THREADS=2 APA_NO_PIN=1) =="
APA_THREADS=2 APA_NO_PIN=1 cargo test -q -p apa-gemm --test parallel_fault --features fault-inject

echo "== tier1: cargo test -p apa-gemm (APA_THREADS=2 APA_NO_PIN=1, full crate) =="
APA_THREADS=2 APA_NO_PIN=1 cargo test -q -p apa-gemm

echo "== tier1: cargo test -p apa-planner (plan compiler + store, native dispatch) =="
cargo test -q -p apa-planner

echo "== tier1: cargo test -p apa-planner (APA_FORCE_SCALAR_KERNEL=1) =="
APA_FORCE_SCALAR_KERNEL=1 cargo test -q -p apa-planner

echo "== tier1: cargo test -p apa-planner (APA_THREADS=2 APA_NO_PIN=1) =="
APA_THREADS=2 APA_NO_PIN=1 cargo test -q -p apa-planner

echo "== tier1: cold-store vs warm-store determinism gate =="
cargo test -q -p apa-planner --test store_integrity roundtrip_is_bitwise_and_file_is_deterministic

echo "== tier1: training-step gates, native (zero-alloc step, bitwise-equal step, tiled transpose) =="
cargo test -q -p apa-nn --test training_alloc --test training_equivalence
cargo test -q -p apa-gemm --test transpose

echo "== tier1: training-step gates, APA_FORCE_SCALAR_KERNEL=1 =="
APA_FORCE_SCALAR_KERNEL=1 cargo test -q -p apa-nn --test training_alloc --test training_equivalence
APA_FORCE_SCALAR_KERNEL=1 cargo test -q -p apa-gemm --test transpose

echo "== tier1: cargo fmt --check =="
cargo fmt --all -- --check

echo "== tier1: cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier1: cargo clippy -p apa-gemm --features fault-inject (deny warnings) =="
cargo clippy -p apa-gemm --all-targets --features fault-inject -- -D warnings

echo "== tier1: cargo clippy -p apa-matmul --features fault-inject (deny warnings) =="
cargo clippy -p apa-matmul --all-targets --features fault-inject -- -D warnings

echo "== tier1: cargo clippy -p apa-nn --features fault-inject (deny warnings) =="
cargo clippy -p apa-nn --all-targets --features fault-inject -- -D warnings

echo "== tier1: cargo clippy -p apa-serve --features fault-inject (deny warnings) =="
cargo clippy -p apa-serve --all-targets --features fault-inject -- -D warnings

echo "== tier1: cargo clippy -p apa-bench --features fault-inject (deny warnings) =="
cargo clippy -p apa-bench --all-targets --features fault-inject -- -D warnings

echo "== tier1: cargo clippy -p apa-planner (deny warnings) =="
cargo clippy -p apa-planner --all-targets -- -D warnings

echo "== tier1: OK =="
