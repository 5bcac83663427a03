# Developer entry points. CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test soak lint lint-invariants fmt vet

all: build lint test

build:
	$(GO) build ./...

# bench/ is a nested module (own go.mod, `replace skueue => ../`) that
# ./... never compiles, yet it calls internal/core and internal/server
# directly: vet and test it here so a renamed entry point fails locally.
test:
	$(GO) test -race ./...
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...

# soak repeats the chaos and fail-stop recovery scenarios under the race
# detector. Scale is env-tunable: SKUEUE_CHAOS_MEMBERS (in-process cluster
# size), SKUEUE_CHAOS_PROC_MEMBERS / SKUEUE_CHAOS_KILLS / SKUEUE_CHAOS_OPS
# (multi-process storm), SOAK_COUNT (repetitions). Example:
#   SOAK_COUNT=5 SKUEUE_CHAOS_MEMBERS=64 SKUEUE_CHAOS_PROC_MEMBERS=8 make soak
SOAK_COUNT ?= 3

soak:
	$(GO) test -race -count=$(SOAK_COUNT) -timeout 60m \
		-run 'TestSimScenario|TestChaosProc|TestKillsLandInsideBatchWindow' \
		./internal/chaos/
	$(GO) test -race -count=$(SOAK_COUNT) -timeout 60m \
		-run 'TestMemberRestartFromSnapshot|TestStackMemberRestartExactlyOnce' \
		./internal/server/

# lint runs everything that gates a merge locally: formatting, vet, and the
# repo-specific invariant analyzers (see DESIGN.md, "Enforced invariants").
# staticcheck/govulncheck need network access to install, so CI owns those.
lint: fmt vet lint-invariants

lint-invariants:
	$(GO) run ./cmd/skueue-lint ./...
	$(GO) test ./internal/analysis/...

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...
