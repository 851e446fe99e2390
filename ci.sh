#!/usr/bin/env bash
# Local CI: formatting, lints, and the full offline test suite.
# Everything runs with --offline — the workspace must never need the
# network (proptest resolves to an in-tree stand-in in vendor/).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo clippy hot-path crates (no redundant clones, no fat enums)"
cargo clippy --offline -p gr-sim -p gr-phy -p gr-mac -p gr-net -p gr-transport -- \
  -D warnings -D clippy::redundant_clone -D clippy::large_enum_variant

echo "==> cargo build --release"
cargo build --release --workspace --offline

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> simbench (tests, then a seed-1 run per workload: pinned digests, no failed jobs)"
cargo test --release --offline -q --manifest-path simbench/Cargo.toml
for w in hotspot_udp paper_sweep world_cochannel; do
  cargo run --release --offline -q --manifest-path simbench/Cargo.toml -- \
    --workload "$w" --seed 1 --seconds 1 --trace 0 >/dev/null
done

echo "==> simbench traced (split untraced/traced passes, world_cochannel's lockstep pool: same pinned digests)"
for w in hotspot_udp paper_sweep world_cochannel; do
  cargo run --release --offline -q --manifest-path simbench/Cargo.toml -- \
    --workload "$w" --seed 1 --seconds 1 --trace 1 >/dev/null
done

echo "==> obs determinism (artifacts byte-identical across --jobs)"
cargo test --offline -q -p gr-bench --test obs_determinism

echo "==> scheduler vs reference-queue property tests"
cargo test --offline -q -p gr-sim --test properties

echo "==> checkpoint round-trip (resume must emit byte-identical CSVs and the recorded ladders' tails)"
CK=$(mktemp -d)
trap 'rm -rf "$CK"' EXIT
# Quick runs last 2 s, so every run's newest checkpoint is at 1.4 s and
# its resume simulates 0.6 s, crossing the audit rungs at 1.5 s and 2 s.
CK_AT_NS=1400000000
cargo run --release --offline -p gr-bench --bin repro -- \
  run --quick --checkpoint-every 700 --audit-every 500 --out "$CK/rec" fig2 fig6 tab5 >/dev/null
cargo run --release --offline -p gr-bench --bin repro -- \
  run --quick --jobs 8 --audit-every 500 --resume "$CK/rec" --out "$CK/res" fig2 fig6 tab5 >/dev/null
for id in fig2 fig6 tab5; do
  cmp "$CK/rec/$id.csv" "$CK/res/$id.csv"
done
for a in "$CK"/rec/audit/*.audit; do
  r="$CK/res/audit/$(basename "$a")"
  grep -q '^[0-9]' "$r" || { echo "resumed ladder without rungs: $r" >&2; exit 1; }
  diff <(awk -F '\t' -v at="$CK_AT_NS" '/^[0-9]/ && $1 > at' "$a") <(grep '^[0-9]' "$r")
done

echo "==> committed artifacts (every full-fidelity paper artifact and the CC zoo cmp-equal to results/)"
cargo run --release --offline -p gr-bench --bin repro -- \
  run --jobs 2 --out "$CK/full" all >/dev/null
for f in results/*.csv; do
  case "$(basename "$f")" in cc*) continue ;; esac
  cmp "$f" "$CK/full/$(basename "$f")"
done
for f in "$CK"/full/*.csv; do
  [ -f "results/$(basename "$f")" ] || { echo "uncommitted artifact CSV: $f" >&2; exit 1; }
done
cargo run --release --offline -p gr-bench --bin repro -- \
  cc --jobs 2 --out "$CK/ccfull" >/dev/null
for f in results/cc*.csv; do
  cmp "$f" "$CK/ccfull/$(basename "$f")"
done
for f in "$CK"/ccfull/*.csv; do
  [ -f "results/$(basename "$f")" ] || { echo "uncommitted CC CSV: $f" >&2; exit 1; }
done

echo "==> conformance checking leaves ext2's DOMINO column alone (full fidelity)"
cargo run --release --offline -p gr-bench --bin repro -- \
  run --jobs 2 --conform --out "$CK/fullconf" ext2 >/dev/null
cmp "$CK/fullconf/ext2.csv" results/ext2.csv

echo "==> detection-science artifacts (full-fidelity roc and intensity diff-equal to results/roc/ and results/intensity/)"
cargo run --release --offline -p gr-bench --bin repro -- \
  roc --jobs 2 --out "$CK/rocfull" >/dev/null
diff -r results/roc "$CK/rocfull/roc"
cargo run --release --offline -p gr-bench --bin repro -- \
  intensity --jobs 2 --out "$CK/intfull" >/dev/null
diff -r results/intensity "$CK/intfull/intensity"

echo "==> audit ladders (re-recorded seeds must show zero divergence)"
cargo run --release --offline -p gr-bench --bin repro -- \
  run --quick --audit-every 500 --out "$CK/rec2" fig2 fig6 tab5 >/dev/null
for a in "$CK"/rec/audit/*.audit; do
  cargo run --release --offline -p gr-bench --bin repro -- \
    audit "$a" "$CK/rec2/audit/$(basename "$a")" >/dev/null
done

echo "==> golden-trace corpus (structural fixtures)"
cargo test --offline -q -p gr-net --test golden

echo "==> world determinism (3x3 CSVs cmp-equal to results/world/ at --jobs 1 and 8)"
cargo run --release --offline -p gr-bench --bin repro -- \
  world --cells 3x3 --quick --jobs 1 --out "$CK/wa" >/dev/null
cargo run --release --offline -p gr-bench --bin repro -- \
  world --cells 3x3 --quick --jobs 8 --out "$CK/wb" >/dev/null
for f in results/world/*.csv; do
  cmp "$f" "$CK/wa/$(basename "$f")"
  cmp "$f" "$CK/wb/$(basename "$f")"
done
for f in "$CK"/wa/world*.csv; do
  [ -f "results/world/$(basename "$f")" ] || { echo "uncommitted world CSV: $f" >&2; exit 1; }
done

echo "==> world conformance (honest 2x2 cells must check clean per-cell)"
cargo run --release --offline -p gr-bench --bin repro -- \
  world --cells 2x2 --quick --conform --out "$CK/wconf" >/dev/null

echo "==> conformance: invariant-on and recorded replays of fig2/fig6/tab5 match the plain run"
cargo run --release --offline -p gr-bench --bin repro -- \
  run --quick --out "$CK/plain" fig2 fig6 tab5 >/dev/null
cargo run --release --offline -p gr-bench --bin repro -- \
  run --quick --conform --out "$CK/conf" fig2 fig6 tab5 >/dev/null
cargo run --release --offline -p gr-bench --bin repro -- \
  run --quick --record --out "$CK/recd" fig2 fig6 tab5 >/dev/null
for id in fig2 fig6 tab5; do
  cmp "$CK/plain/$id.csv" "$CK/conf/$id.csv"
  cmp "$CK/plain/$id.csv" "$CK/recd/$id.csv"
done

echo "==> conformance: whitelist-removal drill must fail on fig2"
if cargo run --release --offline -p gr-bench --bin repro -- \
  run --quick --conform-no-whitelist --out "$CK/wl" fig2 >/dev/null 2>&1; then
  echo "whitelist-removed greedy run passed — checker is not armed" >&2
  exit 1
fi

echo "==> fuzz smoke (25 cases, fixed seed, deterministic artifacts)"
cargo run --release --offline -p gr-bench --bin repro -- \
  fuzz 25 --seed 7 --out "$CK/fz1" > "$CK/fuzz1.log"
cargo run --release --offline -p gr-bench --bin repro -- \
  fuzz 25 --seed 7 --out "$CK/fz2" > "$CK/fuzz2.log"
cmp "$CK/fuzz1.log" "$CK/fuzz2.log"
if [ -d "$CK/fz1/conform" ] || [ -d "$CK/fz2/conform" ]; then
  diff -r "$CK/fz1/conform" "$CK/fz2/conform"
fi

echo "==> cc zoo smoke (4 controllers x 4 attacks, 2 seeds, jobs 1 vs 8 byte-identical)"
cargo run --release --offline -p gr-bench --bin repro -- \
  cc --quick --seeds 2 --jobs 1 --out "$CK/cc1" >/dev/null
cargo run --release --offline -p gr-bench --bin repro -- \
  cc --quick --seeds 2 --jobs 8 --out "$CK/cc8" >/dev/null
for f in "$CK"/cc1/*.csv; do
  cmp "$f" "$CK/cc8/$(basename "$f")"
done

echo "==> roc detection-science smoke (ROC/adaptive/delay artifacts, jobs 1 vs 8 byte-identical)"
cargo run --release --offline -p gr-bench --bin repro -- \
  roc --quick --seeds 2 --jobs 1 --out "$CK/roc1" >/dev/null
cargo run --release --offline -p gr-bench --bin repro -- \
  roc --quick --seeds 2 --jobs 8 --out "$CK/roc8" >/dev/null
diff -r "$CK/roc1/roc" "$CK/roc8/roc"

echo "==> intensity frontier smoke (2-point grid, jobs 1 vs 8 byte-identical)"
cargo run --release --offline -p gr-bench --bin repro -- \
  intensity --quick --seeds 2 --points 2 --jobs 1 --out "$CK/int1" >/dev/null
cargo run --release --offline -p gr-bench --bin repro -- \
  intensity --quick --seeds 2 --points 2 --jobs 8 --out "$CK/int8" >/dev/null
diff -r "$CK/int1/intensity" "$CK/int8/intensity"

echo "==> planted NAV bug is caught and shrunk (fault injection)"
cargo test --offline -q -p gr-bench --test conform --features inject-nav-bug

echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q
