#!/usr/bin/env bash
# Incremental strict type-checking over an allowlist of modules.
#
# The repo is not fully typed; rather than run mypy loosely everywhere,
# we hold a small allowlist to strict standards and grow it module by
# module.  Add a file here once its public surface carries precise
# annotations (see src/repro/api/store.py and src/repro/obs/metrics.py
# for the expected level).
#
# mypy is optional tooling: when it is not installed the script skips
# with exit 0 so tier-1 environments without it stay green.
set -euo pipefail

cd "$(dirname "$0")/.."

if ! command -v mypy >/dev/null 2>&1; then
    echo "typecheck: mypy not installed; skipping"
    exit 0
fi

STRICT_MODULES=(
    src/repro/api/store.py
    src/repro/api/stages.py
    src/repro/obs/metrics.py
    src/repro/utils/clock.py
    src/repro/utils/blas.py
    src/repro/lint/findings.py
    src/repro/lint/callgraph.py
    src/repro/lint/fingerprint.py
)

echo "typecheck: mypy over ${#STRICT_MODULES[@]} strict modules"
MYPYPATH=src exec mypy \
    --strict \
    --warn-unreachable \
    --no-error-summary \
    --follow-imports=silent \
    "${STRICT_MODULES[@]}"
