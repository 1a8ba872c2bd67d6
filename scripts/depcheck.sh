#!/usr/bin/env bash
# Removed-API and one-surface gate. The v1 cleanup deleted the deprecated facade symbols —
# Run and RunSWF (use RunContext/RunSWFContext) and SweepSpec.Progress /
# SweepProgress (use SweepSpec.Observer). This check keeps them deleted:
# no definition may reintroduce them, and no new `Deprecated:` marker may
# accumulate without a removal plan recorded here.
#
# staticcheck would flag reintroductions through SA1019, but the repo is
# stdlib-only; this grep is the dependency-free equivalent, run by CI next
# to go vet.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# The facade lives in the repo root (package pdpasim); internal packages
# may name things Run freely.
hits=$(grep -n -E '^func Run(SWF)?\(' ./*.go || true)
if [[ -n "$hits" ]]; then
    echo "depcheck: removed facade symbols Run/RunSWF reintroduced (keep RunContext/RunSWFContext):" >&2
    echo "$hits" >&2
    fail=1
fi

hits=$(grep -rn --include='*.go' -E 'Progress func\(SweepProgress\)|type SweepProgress ' . || true)
if [[ -n "$hits" ]]; then
    echo "depcheck: removed SweepSpec.Progress/SweepProgress reintroduced (keep SweepSpec.Observer):" >&2
    echo "$hits" >&2
    fail=1
fi

# Match only real deprecation markers (a doc-comment line starting with
# "// Deprecated:"), not prose that merely mentions the convention.
hits=$(grep -rn --include='*.go' -E '^\s*// Deprecated:' . || true)
if [[ -n "$hits" ]]; then
    echo "depcheck: new Deprecated: markers — remove the symbol or register its removal plan here:" >&2
    echo "$hits" >&2
    fail=1
fi

# One v1 surface: internal/server is the only implementation of the run and
# sweep routes, for every role (the fleet coordinator is a server.Backend).
# A /v1/runs or /v1/sweeps route pattern registered anywhere else is a
# second surface growing back.
hits=$(grep -rn --include='*.go' -E 'Handle(Func)?\("([A-Z]+ )?/v1/(runs|sweeps)' . | grep -v '^\./internal/server/' || true)
if [[ -n "$hits" ]]; then
    echo "depcheck: /v1/runs or /v1/sweeps routes registered outside internal/server (serve them through a server.Backend):" >&2
    echo "$hits" >&2
    fail=1
fi

if [[ "$fail" -ne 0 ]]; then
    exit 1
fi
echo "depcheck: removed APIs stayed removed, no stray deprecation markers, one v1 surface"
