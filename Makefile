# Convenience targets for the meshsort reproduction.

GO ?= go

.PHONY: all build test test-race bench experiments experiments-quick experiments-output lemmas fmt vet cover lint meshlint vet-perf serve-smoke store-smoke fabric-smoke

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./internal/engine/ ./internal/experiments/ \
		./internal/mcbatch/ ./internal/serve/ ./internal/kerneltest/ ./internal/fabric/

bench:
	$(GO) test -bench=. -benchmem ./...

experiments:
	$(GO) run ./cmd/experiments

experiments-quick:
	$(GO) run ./cmd/experiments -quick

# experiments-output regenerates the full experiments transcript locally.
# The file is gitignored: it is a build artifact of cmd/experiments, and
# the committed source of truth for the paper tables is EXPERIMENTS.md.
experiments-output:
	$(GO) run ./cmd/experiments > experiments_output.txt
	@echo "wrote experiments_output.txt"

lemmas:
	$(GO) run ./cmd/lemmas -side 8 -trials 500

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

# meshlint runs only the project's own invariant-enforcing passes
# (oblivious, schedpurity, detrand, floateq, hotalloc, ctxflow,
# lockguard, leakcheck); see docs/INVARIANTS.md.
meshlint:
	$(GO) run ./cmd/meshlint ./...

# vet-perf is the performance-invariant gate: the eight meshlint passes
# plus the gcdiag escape/bounds-check manifest diff over the kernel hot
# files. The gcdiag half is pinned to one Go toolchain version and skips
# itself with a notice under any other, so this target is safe to run
# everywhere; CI runs it on the pinned toolchain where it bites.
vet-perf:
	$(GO) run ./cmd/meshlint -gcdiag ./...

# End-to-end smoke of the trial-serving daemon: boots meshsortd on a
# random port, serves one job per algorithm through meshsortctl, asserts
# a cache hit on resubmit, queue-full 429 backpressure, and that SIGTERM
# drains without dropping a queued job's result.
serve-smoke:
	sh scripts/serve_smoke.sh

# store-smoke is the crash-resume gate: SIGKILL meshsortd mid-campaign
# (race-detector build), restart over the same store directory, and assert
# the resumed campaign runs only the missing cells and exports
# byte-identically to an uninterrupted run.
store-smoke:
	sh scripts/store_smoke.sh

# fabric-smoke is the dead-peer gate: boot three worker daemons and a
# coordinator (race-detector builds), SIGKILL one worker mid-sweep, and
# assert the coordinator requeues its shards onto the survivors and the
# exported payload is byte-identical to a single-node run.
fabric-smoke:
	sh scripts/fabric_smoke.sh

# lint is the full static gate CI runs: formatting, go vet, meshlint,
# and — when the tools are installed — staticcheck and govulncheck.
# The optional tools are skipped locally if absent so the target works
# offline; CI installs them.
lint:
	@fmtout="$$(gofmt -l .)"; if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/meshlint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "lint: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "lint: govulncheck not installed, skipping"; fi

cover:
	$(GO) test -cover ./...
