#!/bin/bash
# Regenerates every table/figure/ablation/extension of the paper at
# full scale (1M-tuple table, 10000 transactions, GEMM up to 1024)
# through the experiment registry: one `gsdram-sim sweep <name>` per
# experiment, each emitting a human-readable transcript (results/*.txt)
# and the full stats tree (results/*.json). Extra flags are forwarded
# to every sweep (e.g. `./run_experiments.sh --serial` or
# `./run_experiments.sh --tuples 65536` for a quick pass).
set -e
cd "$(dirname "$0")"
R=results
mkdir -p "$R"
cargo build -q --release -p gsdram-cli
sim() { cargo run -q --release -p gsdram-cli -- "$@"; }
# The registry is the one list of experiments: `sweep --list` prints a
# header line, then one name (and its title) per experiment.
EXPERIMENTS=$(sim sweep --list | tail -n +2 | awk '{print $1}')
for exp in $EXPERIMENTS; do
    echo "=== $exp ==="
    sim sweep "$exp" --json "$R/$exp.json" "$@" | tee "$R/$exp.txt"
done
echo ALL_EXPERIMENTS_DONE
