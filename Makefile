# The same commands CI runs (.github/workflows/ci.yml), runnable locally.

GO ?= go
# Packages with real goroutine concurrency; the race detector gates them
# on every change.
RACE_PKGS = ./internal/engine ./internal/wire ./internal/taskq ./internal/faultnet ./internal/obs ./internal/journal ./internal/event ./internal/admission ./internal/profile ./internal/loadgen ./internal/bipartite
# Examples whose workers run on goroutines against a live engine: `make
# race` runs each under the race detector too. overload is left out: it
# has no goroutine workers and takes half a minute under -race.
RACE_EXAMPLES = ./examples/quickstart ./examples/imagesearch ./examples/trafficwatch
# Packages whose statement coverage must not fall below COVER_FLOOR; the
# scheduling engine and the metrics layer are the paper's core claims,
# the linter is the gate everything else leans on, the journal is what
# crash recovery trusts, the event spine is what every consumer of
# lifecycle state (journal, obs, wire) now rides on, the
# admission plane decides which tasks are turned away at the door, the
# profiles hold the laws Eq. 2, Eq. 3 and the admission gates act on, and
# the simulation harness (experiments on sim) is where every scheduling
# claim is checked first, the wire layer is every live connection, and
# the load generator is the live crowd the chaos and recovery runs lean on.
COVER_PKGS = internal/engine internal/metrics internal/lint internal/journal internal/event internal/admission internal/profile internal/experiments internal/sim internal/wire internal/loadgen
COVER_FLOOR = 70

.PHONY: all build fmt-check shim-check lint lint-typed lockorder lockorder-check vet test race chaos recovery determinism bench fuzz coverage ci

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every tracked Go file outside testdata/ must be gofmt-clean; the lint
# fixtures under testdata/ are deliberately left as written.
fmt-check:
	@out=$$(git ls-files '*.go' | grep -v '/testdata/' | xargs $$($(GO) env GOROOT)/bin/gofmt -l); \
		if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; echo "run gofmt -w on them"; exit 1; fi

# internal/core is two type aliases kept only so the benchmark module
# (benchmark/, outside `go build ./...`) compiles until it is re-based
# (ROADMAP item 8): no package of module react, tests included, may import
# it.
shim-check:
	@out=$$($(GO) list -f '{{.ImportPath}}: {{join .Imports " "}} {{join .TestImports " "}} {{join .XTestImports " "}}' ./... | \
		grep -E ' react/internal/core( |$$)' | cut -d: -f1); \
		if [ -n "$$out" ]; then echo "only benchmark/ may import react/internal/core; these packages do:"; echo "$$out"; exit 1; fi

# reactlint is the project-specific suite (docs/LINTING.md). Both tiers:
# syntactic (clock discipline, seeded randomness, lock hygiene, goroutine
# lifecycle, dropped errors, print-debugging) and typed (lock-order
# deadlock detection, hook reentrancy, blocking-under-lock,
# interprocedural clock/RNG taint). Exits non-zero on any finding.
lint: vet fmt-check shim-check
	$(GO) run ./cmd/reactlint ./...

# Just the typed dataflow tier (type-checks the module; slower than the
# syntactic tier, still a few seconds).
lint-typed:
	$(GO) run ./cmd/reactlint -tier typed ./...

# Regenerate the inferred lock-ordering document from the current code.
lockorder:
	$(GO) run ./cmd/reactlint -lockorder-out docs/LOCKORDER.md ./...

# CI gate: docs/LOCKORDER.md must match what the code implies. The test
# regenerates the document in memory; `go test ./...` runs it too.
lockorder-check:
	$(GO) test ./internal/lint -run '^TestLockOrderDocMatchesTree$$' -count=1

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)
	@for ex in $(RACE_EXAMPLES); do \
		echo "$(GO) run -race $$ex"; $(GO) run -race $$ex > /dev/null || exit 1; \
	done

# Fault-injection suite under the race detector, via internal/faultnet:
# the wire layer through resets, a slow peer and idle-deadline expiry, and loadgen's
# resilient sessions through connection resets and a full server restart
# recovered from its journal. `reactload -chaos` is the restart scenario
# as a live command.
chaos:
	$(GO) test -race -run 'Chaos|Proxy|Resilient' ./internal/wire ./internal/faultnet ./internal/loadgen

# Crash-durability gate: a real reactd with -data-dir is SIGKILLed twice
# mid-run and must recover from its write-ahead journal with zero
# unresolved tasks (docs/PERSISTENCE.md). Skips itself without REACTD_BIN,
# so plain `go test ./...` stays hermetic.
recovery:
	$(GO) build -o /tmp/reactd-recovery ./cmd/reactd
	REACTD_BIN=/tmp/reactd-recovery $(GO) test -race -run 'TestKillRecovery|TestGridSmoke' -count=1 -v ./internal/loadgen

# Two same-seed simulation runs must produce byte-identical reports —
# the reproducibility property the linter exists to protect. Figures
# 3/4 are excluded: they measure real matcher wall time by design.
# Each figure is additionally diffed against a checked-in golden file
# (testdata/golden_fig<N>_seed7.txt) so refactors of the scheduling path
# can't silently shift the numbers, and so is the -losses table (the
# ledger's miss attribution). Figures 5-8 are the full 750-worker
# scenario (-quick does not shrink them); 9/10 and -losses run -quick.
# Last, the Eq. 2 threshold sweep that once stalled the virtual clock
# (-sensitivity -seed 42, ~10 s) must finish.
determinism:
	$(GO) build -o /tmp/reactsim-determinism ./cmd/reactsim
	@for fig in 5 6 7 8 9 10; do \
		quick=; [ $$fig -ge 9 ] && quick=-quick; \
		/tmp/reactsim-determinism -fig $$fig $$quick -seed 7 > /tmp/reactsim-det-a || exit 1; \
		/tmp/reactsim-determinism -fig $$fig $$quick -seed 7 > /tmp/reactsim-det-b || exit 1; \
		cmp /tmp/reactsim-det-a /tmp/reactsim-det-b || { echo "fig $$fig NOT deterministic"; exit 1; }; \
		cmp /tmp/reactsim-det-a testdata/golden_fig$${fig}_seed7.txt || { echo "fig $$fig DIVERGES from testdata/golden_fig$${fig}_seed7.txt"; exit 1; }; \
		echo "fig $$fig: byte-identical + matches golden"; \
	done
	@/tmp/reactsim-determinism -losses -quick -seed 7 | cmp - testdata/golden_losses_seed7.txt || { \
		echo "losses table DIVERGES from testdata/golden_losses_seed7.txt"; exit 1; }
	@echo "losses: matches golden"
	@timeout 120 /tmp/reactsim-determinism -sensitivity -seed 42 > /dev/null || { \
		echo "sensitivity -seed 42 did not finish within 120 s"; exit 1; }
	@echo "sensitivity: finished"

# The repo's yardstick (BENCHMARK.json, benchmark/) is a Go module of its
# own, outside `go build ./...`: vet and test it here so an internal rename
# that breaks it fails CI. Its tests run every mode x workload once as a
# smoke with the output checker (~6 s); measuring is `bash benchmark/run.sh`.
bench:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# Short fuzz budgets over the frame codec, the journal decoder, the
# snapshot merge (against a full rebuild), the
# journal record codec (against encoding/json) and Eq. 3's log-space
# pruning test (against the verbatim probability) — the nightly workflow's
# fast leg, runnable locally. FUZZTIME scales it.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzMessageDecode -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzJournalDecode -fuzztime $(FUZZTIME) ./internal/journal
	$(GO) test -run '^$$' -fuzz FuzzSnapshotMerge -fuzztime $(FUZZTIME) ./internal/journal
	$(GO) test -run '^$$' -fuzz FuzzRecordCodec -fuzztime $(FUZZTIME) ./internal/journal
	$(GO) test -run '^$$' -fuzz FuzzDeadlineCut -fuzztime $(FUZZTIME) ./internal/powerlaw

# Coverage floor: whole-repo profile (coverage.out is the CI artifact),
# then per-package floors on the packages named in COVER_PKGS.
coverage:
	@$(GO) test -coverprofile=coverage.out ./... > coverage.txt; \
		status=$$?; cat coverage.txt; \
		[ $$status -eq 0 ] || exit $$status
	@for pkg in $(COVER_PKGS); do \
		pct=$$(grep "react/$$pkg" coverage.txt | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "coverage: no figure for $$pkg"; exit 1; fi; \
		if awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(p+0 >= f) }'; then \
			echo "coverage: $$pkg $$pct% (floor $(COVER_FLOOR)%)"; \
		else \
			echo "coverage: $$pkg $$pct% BELOW the $(COVER_FLOOR)% floor"; exit 1; \
		fi; \
	done

ci: build lint test race chaos recovery determinism bench
