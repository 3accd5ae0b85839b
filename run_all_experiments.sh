#!/bin/bash
# Regenerates every table and figure of the paper (see EXPERIMENTS.md).
#
# Delegates to the exp_all suite planner: one process collects every
# experiment's job requests, dedups identical simulations across figures,
# runs the unique set once (longest-estimated-job-first) and writes each
# figure to results/<binary-name>.txt — byte-identical to what the
# standalone binary prints. Results persist in results/.runcache/, so
# re-running after a partial edit — or after an interruption, even kill -9;
# every entry on disk is replayed — only simulates what is missing.
# Pass --no-cache to force a fully fresh pass.
set -eu
cd "$(dirname "$0")"
mkdir -p results
./target/release/exp_all "${1:-small}" "${@:2}"
echo "all experiments done"
