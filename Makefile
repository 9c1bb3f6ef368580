# Development targets. `make check` is the pre-merge gate: vet and the
# full test suite under the race detector, which includes the project's
# contract analyzers (uotsvet's TestTreeIsClean).

GO ?= go

.PHONY: build vet lint wire-schema options stats-golden test race fuzz-smoke mutants lines bench bench-quick check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint builds the project's analyzer suite and runs it once over every
# package, printing findings to stderr. The same run audits the
# //uots:allow escape hatch — a directive that no longer suppresses a
# diagnostic fails the target and must be pruned. `go test ./...` runs
# the identical check (internal/analysis/uotsvet.TestTreeIsClean); this
# target is the human-readable form. See CONTRIBUTING.md for the
# enforced contracts.
lint:
	$(GO) build -o bin/uotsvet ./cmd/uotsvet
	./bin/uotsvet -unused-allows ./...

# wire-schema regenerates internal/rpc/wire_schema.golden from the
# compiled wire structs. Run it only for a deliberate wire change, and
# commit the golden diff (TestWireSchemaGolden, its one generator and
# checker, fails until you do).
wire-schema:
	cd internal/rpc && $(GO) test -run TestWireSchemaGolden -args -update-wire-schema

# options regenerates testdata/options.golden, the census of settable
# values (every flag of cmd/*/main.go, every exported config-struct
# field). Run it for a deliberate new or removed knob, and commit the
# golden diff (TestOptionsGolden, its one generator and checker, fails
# until you do).
options:
	$(GO) test . -run TestOptionsGolden -args -update-options

# stats-golden regenerates internal/core/testdata/stats.golden, the
# deterministic work counters (settles, scans, probes, prunes) of a fixed
# set of searches. Run it only for a change that is meant to move work,
# and say in the commit which rows moved and why (TestWorkCountersGolden,
# its one generator and checker, fails until you do).
stats-golden:
	cd internal/core && $(GO) test -run TestWorkCountersGolden -args -update-stats

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz-smoke fuzzes each target for ten seconds: the store file
# (trajdb.ReadStore against diskstore.Open), the index sidecar, the
# road-network search faces (every face against Floyd-Warshall, a reused
# workspace against a fresh one), the shard server's request boundary
# (a coded 400 or the engine's own answer, never a 500), the HTTP
# /search and /batch routes (a coded 4xx, a deadline 503 or the engine's
# own answer, never a 500), the live-ingest POST /trajectories route (a
# coded 4xx, a deadline 503 or a 200 whose IDs read back, never a 500),
# and the differential harness (every backend against the exhaustive
# oracle, from any seed).
# -fuzzminimizetime keeps the engine's input minimisation from eating the
# ten seconds.
fuzz-smoke:
	$(GO) test ./internal/trajdb -run '^$$' -fuzz '^FuzzReadStore$$' -fuzztime 10s -fuzzminimizetime 10x
	$(GO) test ./internal/trajdb -run '^$$' -fuzz '^FuzzReadSidecar$$' -fuzztime 10s -fuzzminimizetime 10x
	$(GO) test ./internal/roadnet -run '^$$' -fuzz '^FuzzSearchFaces$$' -fuzztime 10s -fuzzminimizetime 10x
	$(GO) test ./internal/rpc -run '^$$' -fuzz '^FuzzShardServer$$' -fuzztime 10s -fuzzminimizetime 10x
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzSearchHandler$$' -fuzztime 10s -fuzzminimizetime 10x
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzIngestHandler$$' -fuzztime 10s -fuzzminimizetime 10x
	$(GO) test ./internal/shard -run '^$$' -fuzz '^FuzzDifferential$$' -fuzztime 10s -fuzzminimizetime 10x

# mutants checks that the tests kill every mutant in the table of
# internal/mutants: each mutated file is swapped in with go test -overlay
# from a temp dir, so the tree is never edited. It fails if a mutant
# survives, no longer applies, or does not build.
mutants:
	$(GO) run ./internal/mutants

# lines prints the line counts of the non-test and of the test .go
# files outside benchmark/, the size figures ROADMAP.md and CHANGES.md
# quote.
GOFILES = find . -name '*.go' -not -path './benchmark/*'
lines:
	@echo "non-test $$($(GOFILES) ! -name '*_test.go' -exec cat {} + | wc -l)"
	@echo "test     $$($(GOFILES) -name '*_test.go' -exec cat {} + | wc -l)"

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-quick is the smoke of the benchmark gate (BENCHMARK.json): it
# vets benchmark/ and runs all four workloads for a twentieth of their
# length, so a refactor that breaks a symbol the benchmark imports fails
# here and not at the gate. Never use its numbers. It then fails if a
# process started from benchmark/out/bin/ (uotsserve, uotsshard, layers)
# outlived the run; the bracket keeps pgrep from matching this shell.
bench-quick:
	$(GO) vet ./benchmark/...
	$(GO) run ./benchmark -quick
	@if pgrep -af '$(CURDIR)/[b]enchmark/out/bin/'; then \
		echo 'bench-quick: the processes above outlived the benchmark run' >&2; exit 1; \
	fi

check: vet race
