# The same commands CI runs (.github/workflows/ci.yml), runnable locally.

GO ?= go
# Packages with real goroutine concurrency; the race detector gates them
# on every change.
RACE_PKGS = ./internal/engine ./internal/core ./internal/wire ./internal/federation ./internal/taskq ./internal/faultnet ./internal/obs ./internal/journal ./internal/event ./internal/admission ./internal/profile ./internal/loadgen
# Packages whose statement coverage must not fall below COVER_FLOOR; the
# scheduling engine and the metrics layer are the paper's core claims,
# the linter is the gate everything else leans on, the journal is what
# crash recovery trusts, the event spine is what every consumer of
# lifecycle state (journal, obs, wire) now rides on, and the
# admission plane decides which tasks are turned away at the door.
COVER_PKGS = internal/engine internal/metrics internal/lint internal/journal internal/event internal/admission
COVER_FLOOR = 70

.PHONY: all build lint lint-typed lockorder lockorder-check vet test race chaos recovery determinism bench fuzz coverage ci

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# reactlint is the project-specific suite (docs/LINTING.md). Both tiers:
# syntactic (clock discipline, seeded randomness, lock hygiene, goroutine
# lifecycle, dropped errors, print-debugging) and typed (lock-order
# deadlock detection, hook reentrancy, blocking-under-lock,
# interprocedural clock/RNG taint). Exits non-zero on any finding.
lint: vet
	$(GO) run ./cmd/reactlint ./...

# Just the typed dataflow tier (type-checks the module; slower than the
# syntactic tier, still a few seconds).
lint-typed:
	$(GO) run ./cmd/reactlint -tier typed ./...

# Regenerate the inferred lock-ordering document from the current code.
lockorder:
	$(GO) run ./cmd/reactlint -lockorder-out docs/LOCKORDER.md ./...

# CI gate: docs/LOCKORDER.md must match what the code implies.
lockorder-check:
	@$(GO) run ./cmd/reactlint -lockorder-out /tmp/LOCKORDER.regen.md ./... || true
	@cmp docs/LOCKORDER.md /tmp/LOCKORDER.regen.md || { \
		echo "docs/LOCKORDER.md is out of date; run 'make lockorder' and commit the result"; exit 1; }

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

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
# Figure 5 is additionally diffed against a checked-in golden file so
# refactors of the scheduling path can't silently shift the numbers, and
# so is the -losses table (the ledger's miss attribution).
determinism:
	$(GO) build -o /tmp/reactsim-determinism ./cmd/reactsim
	@for fig in 5 6 7 8 9 10; do \
		/tmp/reactsim-determinism -fig $$fig -quick -seed 7 > /tmp/reactsim-det-a || exit 1; \
		/tmp/reactsim-determinism -fig $$fig -quick -seed 7 > /tmp/reactsim-det-b || exit 1; \
		cmp /tmp/reactsim-det-a /tmp/reactsim-det-b || { echo "fig $$fig NOT deterministic"; exit 1; }; \
		if [ $$fig = 5 ]; then \
			cmp /tmp/reactsim-det-a testdata/golden_fig5_seed7.txt || { echo "fig 5 DIVERGES from testdata/golden_fig5_seed7.txt"; exit 1; }; \
			echo "fig 5: byte-identical + matches golden"; \
		else \
			echo "fig $$fig: byte-identical"; \
		fi; \
	done
	@/tmp/reactsim-determinism -losses -quick -seed 7 | cmp - testdata/golden_losses_seed7.txt || { \
		echo "losses table DIVERGES from testdata/golden_losses_seed7.txt"; exit 1; }
	@echo "losses: matches golden"

# The repo's yardstick (BENCHMARK.json, benchmark/) is a Go module of its
# own, outside `go build ./...`: vet and test it here so an internal rename
# that breaks it fails CI. Its tests run every mode x workload once as a
# smoke with the output checker (~6 s); measuring is `bash benchmark/run.sh`.
bench:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# Short fuzz budgets over the frame codec, the journal decoder and the
# journal record codec (against encoding/json) — the nightly workflow's
# fast leg, runnable locally. FUZZTIME scales it.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzMessageDecode -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzJournalDecode -fuzztime $(FUZZTIME) ./internal/journal
	$(GO) test -run '^$$' -fuzz FuzzRecordCodec -fuzztime $(FUZZTIME) ./internal/journal

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
