#!/usr/bin/env bash
# One-command entry: build the harness offline in release mode, then run a
# subcommand (default: `aa`, two sets of runs compared against the bounds).
#   benchmark/run.sh            # A/A check
#   benchmark/run.sh run        # all workloads -> table + out/result.json
#   benchmark/run.sh trace      # per-layer metrics + out/trace.json
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
exec "${CARGO_TARGET_DIR:-target}/release/fh-perf" "${@:-aa}"
