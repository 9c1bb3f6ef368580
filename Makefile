# Development targets. `make check` is the pre-merge gate: vet, the
# project's own contract analyzers (uotsvet), and the full test suite
# under the race detector.

GO ?= go

.PHONY: build vet lint lint-audit wire-schema test race bench bench-quick check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint builds the project's analyzer suite and runs it over every
# package through go vet's vettool protocol. See CONTRIBUTING.md for
# the enforced contracts and the //uots:allow escape hatch.
lint:
	$(GO) build -o bin/uotsvet ./cmd/uotsvet
	$(GO) vet -vettool=$(CURDIR)/bin/uotsvet ./...

# lint-audit runs the analyzers in standalone mode with the
# unused-allows audit: every //uots:allow directive must still suppress
# a diagnostic, or the target fails and the directive must be pruned.
lint-audit:
	$(GO) build -o bin/uotsvet ./cmd/uotsvet
	./bin/uotsvet -unused-allows ./...

# wire-schema regenerates internal/rpc/wire_schema.golden from the
# compiled wire structs. Run it only for a deliberate wire change, and
# commit the golden diff (TestWireSchemaGolden, its one generator and
# checker, fails until you do).
wire-schema:
	cd internal/rpc && $(GO) test -run TestWireSchemaGolden -args -update-wire-schema

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-quick is the smoke of the benchmark gate (BENCHMARK.json): it
# vets benchmark/ and runs all four workloads for a twentieth of their
# length, so a refactor that breaks a symbol the benchmark imports fails
# here and not at the gate. Never use its numbers.
bench-quick:
	$(GO) vet ./benchmark/...
	$(GO) run ./benchmark -quick

check: vet lint lint-audit race
