# Local mirror of .github/workflows/ci.yml — `make ci` runs the same
# gates CI enforces on push/PR.

GO ?= go

.PHONY: ci build vet fmt-check lint test test-shuffle fuzz-smoke race bench-smoke bench bench-sealer bench-sealer-baseline bench-timing bench-timing-baseline unreached fmt

ci: build vet fmt-check lint test test-shuffle fuzz-smoke race bench-smoke bench-sealer bench-timing

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Tier-1 at one and two scheduler threads: a test whose verdict depends
# on goroutine scheduling shows up at one of them. -count=1 because the
# test cache does not key on GOMAXPROCS.
test:
	GOMAXPROCS=1 $(GO) test -count=1 ./...
	GOMAXPROCS=2 $(GO) test -count=1 ./...

# Shuffled test order flushes out inter-test state dependencies that a
# fixed order silently satisfies.
test-shuffle:
	$(GO) test -shuffle=on -count=1 ./...

# Every committed fuzz target, 10 s each (stdlib fuzzing; tier-1 only
# replays the seed corpora). Targets are discovered per package, so a
# new Fuzz* function is picked up without editing this or the workflow.
# -fuzzminimizetime bounds the minimisation of each new interesting
# input: unbounded (60 s by default) it can eat the whole 10 s, and on a
# cold fuzz cache the run then executes nothing after its first seconds.
fuzz-smoke:
	@for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "== $$pkg $$target"; \
			$(GO) test -run=NONE -fuzz="^$$target\$$" -fuzztime=10s -fuzzminimizetime=100x $$pkg || exit 1; \
		done; \
	done

# Static analysis: the repo's own obliviousness linter (horam-lint:
# ctflow, ctmask, errdrop) plus staticcheck and govulncheck when
# installed. See README "Static obliviousness guarantees".
lint:
	./scripts/lint.sh

race:
	$(GO) test -race ./...

bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Full benchmark run (slow) — the reproduction's headline numbers.
bench:
	$(GO) test -run=NONE -bench=. -benchmem ./...

# Sealer throughput gate: fail if the seal/open microbenchmarks fall
# below 80% of the committed BENCH_sealer.json baseline.
bench-sealer:
	./scripts/sealer_gate.sh

# Regenerate the committed sealer baseline (BENCH_sealer.json).
bench-sealer-baseline:
	./scripts/sealer_gate.sh -update

# Timing-variance gate: constant-time pairs must be statistically
# indistinguishable AND the default-mode canary must stay detectable.
bench-timing:
	./scripts/timing_gate.sh

# Regenerate the committed timing baseline (BENCH_timing.json).
bench-timing-baseline:
	./scripts/timing_gate.sh -update

# Reachability report (not a gate, not in ci): the non-test functions
# no binary links. See scripts/unreached.sh.
unreached:
	./scripts/unreached.sh

fmt:
	gofmt -w .
