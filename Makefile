GO ?= go

.PHONY: all build test short race race-short vet fmt-check lint simlint golden grids-golden spec-verify telemetry-verify telemetry-golden results results-verify bench bench-smoke examples fuzz-smoke fuzz cover clean ci

all: build lint test

build:
	$(GO) build ./...

# Tier-1 gate: static analysis, the race-detector smoke pass, the
# allocation-free hot-path smoke check, and the full suite including the
# bench-scale golden-figure regression (see TESTING.md).
test: lint race-short bench-smoke
	$(GO) test ./...

# Perf smoke: the engine-dispatch and predictor-round zero-alloc assertions
# plus one quick pass over the engine (typed dispatch, same-instant clusters)
# and port micro-benchmarks. Fails the build if the hot path starts
# allocating again.
bench-smoke:
	$(GO) test -run 'TestEngineDispatchZeroAlloc' -count=1 ./internal/sim/
	$(GO) test -run 'TestTickerRoundZeroAlloc' -count=1 ./internal/core/
	$(GO) test -run '^$$' -bench 'EngineDispatchTyped|EngineSameInstantCluster|PortPingPong' -benchtime 100x -benchmem ./internal/sim/ ./internal/fabric/

# Telemetry tier (TESTING.md "Telemetry tier"): the observation-only
# contract in one command — determinism fingerprints bit-identical with
# sampling and event recording on and off, the exported JSONL (series and
# events) pinned byte-for-byte to its golden, every event kind reconciled
# against its run counter, and the sampler/event-log/registry/exporter unit
# suite including the zero-allocation tick and record assertions.
telemetry-verify:
	$(GO) test -count=1 ./internal/telemetry/
	$(GO) test -count=1 -run 'TestTelemetry|TestEvents' ./internal/harness/

# Refresh the committed telemetry golden after an intentional change to the
# exporter format or the simulation's observable trajectory; review the diff.
telemetry-golden:
	$(GO) test ./internal/harness/ -run TestTelemetryGoldenJSONL -update-telemetry

# Fuzz tier (see TESTING.md "Fuzz tier"): the deterministic metamorphic
# sweep (50 generated scenarios, every property checked, failures shrunk
# into repro files) plus the seeded-breach meta-test proving the pipeline
# catches real bugs, then a time-boxed run of the mutating fuzzer over the
# committed corpus. Scenario failures write repro files replayable with
# `rlbsim -repro <file>` (set RLB_REPRO_DIR to choose where).
fuzz-smoke:
	$(GO) test -run 'TestMetamorphicSweep|TestSeededBreachIsCaughtAndShrunk' -count=1 ./internal/scenario/
	$(GO) test -run '^$$' -fuzz FuzzScenario -fuzztime 20s ./internal/scenario/

# Open-ended fuzzing session: run until interrupted or a failure is found.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzScenario ./internal/scenario/

# Coverage over the simulator internals (internal/... only: the CLIs and
# examples add little line coverage).
cover:
	$(GO) test -coverprofile=coverage.out ./internal/...
	$(GO) tool cover -func=coverage.out | tail -1

# Quick iteration loop: skips the bench-scale golden run.
short:
	$(GO) test -short ./...

# Race-enabled pass over the simulator internals. The strict invariant tier
# runs inside TestStrictInvariantsCleanAcrossSchemes, so this exercises the
# harness's worker parallelism, the checker, and the data plane together.
race:
	$(GO) test -race ./internal/...

# Race-detector smoke: same packages as `race` but with -short, skipping the
# bench-scale golden runs. Fast enough to sit inside `make test`.
race-short:
	$(GO) test -race -short ./internal/...

vet:
	$(GO) vet ./...

# Formatting gate: gofmt must list no tracked Go file outside testdata/ (the
# analyzer fixtures under testdata/ are inputs, not project code).
fmt-check:
	@out=$$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# Static-analysis tier: the gofmt gate, go vet, and the project-specific
# simlint suite (determinism, poolcheck, timercheck, unitsafe, hotpath — see
# TESTING.md).
lint: fmt-check vet simlint

simlint:
	$(GO) run ./cmd/simlint ./...

# Spec-layer verification tier (TESTING.md "Spec round-trip tier"): the
# canonical-spec contracts in one command — JSON round trips byte-stable with
# unknown fields rejected, the compiler's thresholds, fabric params and fault
# schedules pinned to literal values, the declarative figure grids pinned to
# their golden, a serialized cell replaying bit-identically, every
# committed fuzz-corpus entry and repro fixture still decoding, and repro
# files decoding as strictly as specs.
spec-verify:
	$(GO) test -count=1 ./internal/spec/
	$(GO) test -count=1 -run 'TestCompile|TestFigureGrids' ./internal/harness/
	$(GO) test -count=1 -run 'TestCommittedCorpusStillDecodes|TestCommittedReproStillReplays|TestLoadReproRejectsUnknownFields' ./internal/scenario/

# Run every examples/* main (~2 s); fails on the first non-zero exit. The
# examples' stdout is discarded: they are smoke runs of the public API here.
examples:
	@for d in examples/*/; do \
		echo "    $$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

# Full CI sequence: build → lint → race smoke → full suite with goldens →
# examples → committed figure tables → spec, telemetry, fuzz and bench tiers.
ci:
	./scripts/ci.sh

# Refresh the committed golden figures after an intentional behavior change,
# then review the diff (TESTING.md explains what "intentional" means here).
golden:
	$(GO) test ./internal/harness/ -run TestGoldenFigures -update-golden

# Refresh the committed figure-grid golden after deliberately changing which
# experiments a figure runs, then review the diff.
grids-golden:
	$(GO) test ./internal/harness/ -run TestFigureGridsGolden -update-grids

# Regenerate the committed bench-scale figure tables after an intentional
# change to what a figure measures or prints, then review the diff.
results:
	$(GO) run ./cmd/figures -scale bench -seed 11 > results_bench.txt

# Regenerate the figure tables into a temp file and diff every line except
# the wall-clock `done:` line against the committed results_bench.txt (~21 s
# on a 2-core host), so the committed tables cannot go stale.
results-verify:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/figures -scale bench -seed 11 > "$$tmp/got.txt" || exit 1; \
	grep -v '^done:' results_bench.txt > "$$tmp/want.txt"; \
	grep -v '^done:' "$$tmp/got.txt" > "$$tmp/got-tables.txt"; \
	diff -u "$$tmp/want.txt" "$$tmp/got-tables.txt" || \
		{ echo "results_bench.txt is stale: run 'make results' and review the diff"; exit 1; }

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

clean:
	$(GO) clean ./...
