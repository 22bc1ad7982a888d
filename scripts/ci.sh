#!/usr/bin/env sh
# CI gate for the RLB simulator. Runs the tiers in fail-fast order:
#
#   1. build       — everything compiles
#   2. lint        — gofmt gate (no tracked Go file outside testdata/ needs
#                    formatting) + go vet + simlint (determinism / poolcheck /
#                    timercheck / unitsafe / hotpath; see TESTING.md
#                    "Static analysis tier"). Findings are also
#                    captured as a JSON Lines artifact (simlint.jsonl under
#                    $CI_ARTIFACT_DIR, default artifacts/) for tooling, even
#                    when the tier fails.
#   3. race smoke  — -race -short over the simulator internals
#   4. full suite  — bench-smoke perf gate + all tests incl. golden figures
#   5. examples    — every examples/* main runs to a zero exit
#   6. results     — the bench-scale figure tables regenerate to the
#                    committed results_bench.txt, every line but `done:`
#   7. spec verify — canonical-spec contracts: byte-stable JSON round trips,
#                    compiler thresholds/fabric params/fault schedules pinned
#                    to literal values, figure-grid golden, committed
#                    corpus + repro fixture decode, repro files rejecting
#                    unknown fields and trailing data (TESTING.md "Spec
#                    round-trip tier")
#   8. telemetry   — observation-only contract: fingerprints bit-identical
#                    with sampling and events on/off, JSONL golden (series
#                    and events) byte-stable, event counts reconciled with
#                    run counters, sampler tick and event record
#                    allocation-free (TESTING.md "Telemetry tier")
#   9. fuzz smoke  — metamorphic scenario sweep + seeded-breach meta-test +
#                    time-boxed mutating fuzz over the committed corpus
#  10. bench pass  — one pass of every benchmark workload (bench/README.md);
#                    fails on any simulation that breaks a check (compile
#                    error, panic, invariant violation, drop under PFC). The
#                    records are kept next to simlint.jsonl as bench.jsonl.
#
# Each tier only runs if the previous one passed, so a compile error is not
# buried under lint output and a lint finding is not buried under test logs.
set -eu

cd "$(dirname "$0")/.."

GO=${GO:-go}

echo "==> build"
"$GO" build ./...

echo "==> lint (gofmt + vet + simlint)"
make fmt-check
"$GO" vet ./...
# Run simlint twice: the human-readable gate, plus a machine-readable JSON
# Lines artifact. The JSON run goes first and is allowed to "fail" (findings
# exit 1) so the artifact exists even when the gate below stops CI.
ARTIFACT_DIR=${CI_ARTIFACT_DIR:-artifacts}
mkdir -p "$ARTIFACT_DIR"
"$GO" run ./cmd/simlint -json ./... > "$ARTIFACT_DIR/simlint.jsonl" || true
echo "    simlint findings artifact: $ARTIFACT_DIR/simlint.jsonl"
"$GO" run ./cmd/simlint ./...

echo "==> race smoke (-race -short)"
"$GO" test -race -short ./internal/...

# The lint and race tiers above already ran, so invoke the remaining
# `make test` pieces directly instead of re-running them through make.
echo "==> full suite (perf smoke + tests + golden figures)"
make bench-smoke
"$GO" test ./...

# The examples are built by `go build ./...` above; this runs them, so an
# example whose main panics or exits non-zero fails CI.
echo "==> examples (run every examples/* main)"
make examples

# The committed figure tables must be what the code prints today: a change
# that moves a figure has to regenerate results_bench.txt (`make results`)
# in the same commit. ~21 s on a 2-core host.
echo "==> results verify (results_bench.txt matches a fresh bench-scale run)"
make results-verify

# The spec tests also ran inside `go test ./...`; the dedicated tier re-runs
# them uncached (-count=1) so a cached pass can never mask a drifted golden
# or corpus file, and so the tier is meaningful standalone.
echo "==> spec verify (round trips, compiler math, grid golden, corpus)"
make spec-verify

# The telemetry tests also ran inside `go test ./...`; the dedicated tier
# re-runs them uncached so a cached pass can never mask a drifted telemetry
# golden, a fingerprint divergence, an event count that no longer matches its
# counter, or a sampler tick or event record that started allocating.
echo "==> telemetry verify (on/off parity, JSONL golden with events, zero-alloc tick and record)"
make telemetry-verify

# The deterministic halves of the fuzz tier (sweep + meta-test) already ran
# inside `go test ./...`; re-running them here is cheap and keeps the tier
# self-contained when invoked standalone. The -fuzztime bound keeps the
# mutating half deterministic in duration, not in coverage — real fuzzing
# sessions use `make fuzz`.
echo "==> fuzz smoke (metamorphic sweep + seeded breach + 20s mutation)"
make fuzz-smoke

# One pass of every benchmark workload (~30 s): a correctness gate over the
# benchmark's simulations, not a timing gate — a single pass is too short to
# judge speed. Compare full runs with `go run ./bench -compare a.json b.json`
# (see bench/README.md). bench/run.sh needs bash; its build cache stays under
# .bench_build.
echo "==> bench pass (one pass of every workload)"
bash bench/run.sh --seconds 0 > "$ARTIFACT_DIR/bench.jsonl"
echo "    bench records artifact: $ARTIFACT_DIR/bench.jsonl"

echo "==> ci passed"
