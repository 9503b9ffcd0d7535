# hvscan — reproduction of "HTML Violations and Where to Find Them" (IMC '22)

GO ?= go

.PHONY: all build test vet lint bench bench-json bench-gate ci chaos serve-chaos fmt-check study report fuzz clean conform conform-update fix-conform fix-conform-update fuzz-smoke perfbench-test

all: build test

# Mirrors .github/workflows/ci.yml so the tier-1 gate is reproducible
# locally: build, vet, lint, formatting, race-enabled tests, chaos
# smoke, fuzz smokes.
ci: build vet lint fmt-check
	$(GO) test -race ./...
	$(MAKE) chaos
	$(MAKE) serve-chaos
	$(MAKE) conform
	$(MAKE) fix-conform
	$(GO) test -run '^$$' -fuzz='^FuzzParse$$' -fuzztime=15s ./internal/htmlparse
	$(GO) test -run '^$$' -fuzz='^FuzzClassify$$' -fuzztime=10s ./internal/resilience
	$(GO) test -run '^$$' -fuzz='^FuzzReadJournal$$' -fuzztime=10s ./internal/store
	$(MAKE) fuzz-smoke
	$(MAKE) perfbench-test
	$(MAKE) bench-gate

# Conformance gate: run the checked-in html5lib-style corpus (tree
# construction + tokenizer) through hvconform. Fails on any fixture
# divergence, on an emitted ErrorCode with no provoking fixture, on a
# stale skiplist entry, or if the corpus shrinks below 300 cases.
conform:
	$(GO) run ./cmd/hvconform

# Regenerate goldens after an intentional parser change, then rerun the
# gate. Review the fixture diff before committing — every hunk is a
# behavior change.
conform-update:
	$(GO) run ./cmd/hvconform -update
	$(GO) run ./cmd/hvconform

# Repair verification gate: the golden fix corpus (every strategy
# covered, each case's output re-parsed and re-checked, ≥60 cases), the
# two repair invariants (fix-idempotence, fix-monotonicity) over their
# seed corpora, and the 356-case repaired-corpus differential.
fix-conform:
	$(GO) run ./cmd/hvfix -corpus internal/autofix/testdata -min 60
	$(GO) test -count=1 -run 'TestFix|TestRepairedCorpusDifferential' ./internal/conformance

# Regenerate the fix goldens after an intentional engine change, then
# rerun the gate. Review the diff — every hunk is a behavior change.
fix-conform-update:
	$(GO) run ./cmd/hvfix -corpus internal/autofix/testdata -update
	$(MAKE) fix-conform

# Metamorphic fuzz smoke: 30s per oracle-free invariant (render→reparse
# fixpoint, truncation stability, attribute-order invariance, decoder
# agreement, one-pass check ≡ replayed check) over the checked-in seed
# corpora, the serializer against its reference, the position resolver
# against a per-offset reference, the fragment parser (which shares the
# recording body with Parse), plus the pooled WARC decoder against a
# fresh one.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz='^FuzzRenderParseFixpoint$$' -fuzztime=30s ./internal/conformance
	$(GO) test -run '^$$' -fuzz='^FuzzTruncationStability$$' -fuzztime=30s ./internal/conformance
	$(GO) test -run '^$$' -fuzz='^FuzzAttrReorderInvariance$$' -fuzztime=30s ./internal/conformance
	$(GO) test -run '^$$' -fuzz='^FuzzDecoderAgreement$$' -fuzztime=30s ./internal/conformance
	$(GO) test -run '^$$' -fuzz='^FuzzFixIdempotence$$' -fuzztime=30s ./internal/conformance
	$(GO) test -run '^$$' -fuzz='^FuzzFixMonotonicity$$' -fuzztime=30s ./internal/conformance
	$(GO) test -run '^$$' -fuzz='^FuzzOnePassAgreement$$' -fuzztime=30s ./internal/conformance
	$(GO) test -run '^$$' -fuzz='^FuzzRender$$' -fuzztime=30s ./internal/conformance
	$(GO) test -run '^$$' -fuzz='^FuzzResolvePositions$$' -fuzztime=30s ./internal/htmlparse
	$(GO) test -run '^$$' -fuzz='^FuzzParseFragment$$' -fuzztime=30s ./internal/htmlparse
	$(GO) test -run '^$$' -fuzz='^FuzzReadRecordAt$$' -fuzztime=30s ./internal/warc

# The end-to-end benchmark's own tests, under the race detector. perfbench
# is a separate module (it builds the repo through a replace directive),
# so ./... from the root does not reach it. Its output checks must keep
# catching a checker that drops a finding or a server that fails requests.
perfbench-test:
	cd perfbench && $(GO) test -race ./...

# Chaos smoke: the seeded fault-injection acceptance tests (~10%
# transient faults, deterministic schedule) under the race detector —
# budget compliance, crash-and-resume equivalence, breaker behavior.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestResume|TestBreaker' ./internal/crawler ./internal/commoncrawl

# Serving-layer chaos: the hvserve acceptance suite (overload bursts,
# slowloris bodies, mid-request disconnects, hostile nesting, graceful
# drain, goroutine/heap leak sweep) plus the tiered cache's
# cancellation edge cases, all under the race detector.
serve-chaos:
	$(GO) test -race -count=1 -run 'TestServeChaos|TestTiered.*Cancel' ./internal/serve ./internal/commoncrawl

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# hvlint: the repo's own analyzers (internal/lint) — parser coverage,
# error classification, cancellable sleeps, metric naming, rule purity,
# zero-copy view lifetimes, hot-path allocation freedom, and goroutine
# hygiene. Runs over every library and command package explicitly.
# Suppress a finding with `//lint:ignore <analyzer> <reason>`.
lint:
	$(GO) run ./cmd/hvlint ./internal/... ./cmd/...

# Regenerates every table/figure as benchmark metrics (paper values inline).
bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark run for the perf trajectory across PRs: the
# parser, full-check, and archive-cache benchmarks folded into the
# stable internal/perf schema (min of 5 runs per benchmark, git SHA +
# date stamped inside the payload), one BENCH_<yyyymmdd>.json per day.
bench-json:
	$(GO) run ./cmd/hvbench -record

# Benchmark regression gate: re-run the tracked benchmarks and fail if
# any of them regresses more than 10% ns/op against the checked-in
# BENCH_baseline.json (or vanishes from the run). Refresh the baseline
# after an intentional perf change with:
#   go run ./cmd/hvbench -record -out BENCH_baseline.json
bench-gate:
	$(GO) run ./cmd/hvbench

# The full eight-snapshot study at laptop scale, then the report.
study:
	$(GO) run ./cmd/hvcrawl -domains 2400 -pages 10 -out results.jsonl -stats stats.json

report: 
	$(GO) run ./cmd/hvreport -store results.jsonl -stats stats.json -experiment all

# Continuous fuzzing entry points (Ctrl-C to stop).
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 60s ./internal/htmlparse

fuzz-resilience:
	$(GO) test -fuzz FuzzClassify -fuzztime 60s ./internal/resilience

fuzz-journal:
	$(GO) test -fuzz FuzzReadJournal -fuzztime 60s ./internal/store

clean:
	rm -f results.jsonl stats.json
	rm -rf archive
