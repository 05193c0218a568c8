#!/usr/bin/env bash
# The benchmark's one command. Builds the package (both binaries: the
# benchmark and the worker it spawns) and runs it with the given
# arguments, from the repository root:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh [--seed N] [--sets 2] [--trace] [--out-dir DIR]
#   benchmark/run.sh --selftest
#
# Cargo's own output goes to stderr; stdout is the benchmark's alone.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins 1>&2
exec "$target/release/approx-bench" "$@"
