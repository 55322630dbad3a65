GO ?= go

# The committed performance baseline `make bench-check` gates against;
# refresh it with `make bench` and commit the new file (see PERF.md).
BENCH_BASELINE ?= BENCH_2026-08-06.json

.PHONY: build test fmt lint race check paper-check chaos chaos-cluster obs-smoke cluster-smoke tenant-smoke bench bench-check bench-smoke go-bench engine-bench loc

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# The formatting gate: every Go file outside the perfbench build
# output must be gofmt-clean.
fmt:
	@out=$$(find . -name '*.go' -not -path './.bench_build/*' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

# The project-invariant static analysis (internal/lint + cmd/pdflint):
# determinism, lock discipline, goroutine hygiene, obs hygiene, plus
# the interprocedural facts engine (lockorder, ctxflow, nondetflow,
# closeleak). Nonzero exit on any finding; also emits pdflint.sarif
# for CI code-scanning upload. See README "Static analysis".
lint:
	$(GO) run ./cmd/pdflint -sarif pdflint.sarif ./...

# The concurrency-bearing packages under the race detector (cheap;
# always part of check). The list is derived from the module itself:
# `pdflint -concurrent` prints every package whose syntax bears a go
# statement, channel op, select or sync primitive, so a new concurrent
# package cannot silently skip the race detector. Falls back to ./...
# if the derivation fails. The list spans the separate perfbench
# module, whose packages are tested from inside it.
race:
	@set -e; pkgs=$$($(GO) run ./cmd/pdflint -concurrent ./... || echo ./...); \
	root=$$(echo "$$pkgs" | grep -v '^repro/perfbench' || true); \
	bench=$$(echo "$$pkgs" | grep '^repro/perfbench' || true); \
	echo "go test -race $$(echo $$root)"; $(GO) test -race $$root; \
	if [ -n "$$bench" ]; then \
		echo "(cd perfbench) go test -race $$(echo $$bench)"; \
		cd perfbench && GOWORK=off $(GO) test -race $$bench; \
	fi

# The paper-scale golden gate: Tables 3-7 at N_P=10000, N_P0=1000 must
# match the recorded CSV in every column but Table 7's rt_ratio, a
# wall-clock ratio that is printed and not gated. Refresh the golden
# only for a change meant to alter the tables, and say why.
paper-check:
	@set -e; out=$$($(GO) run ./cmd/tables -np 10000 -np0 1000 -format csv); \
	echo "Table 7 rt_ratio (not gated):"; \
	echo "$$out" | awk -F, '/rt_ratio/{t=1} t{print "  " $$1, $$NF}'; \
	echo "$$out" | awk '/rt_ratio/{t=1} t{sub(/,[^,]*$$/, "")} 1' | diff -u cmd/tables/testdata/paper_np10000_np0_1000.csv -; \
	echo "paper-check: tables match cmd/tables/testdata/paper_np10000_np0_1000.csv"

# The fault-injection suite: panic containment, retry/backoff, crash +
# journal replay, load shedding — twice under the race detector.
chaos:
	$(GO) test -race -count=2 -run 'TestChaos|TestWait|TestRetry|TestDo|TestDelay|TestJournal|TestLive|TestOpen' \
		./internal/engine/ ./internal/journal/ ./internal/retry/

# The cluster chaos suite: partitions, injected error rates and backend
# death via the chaosnet fault-injecting transport, pinning no-job-lost,
# breaker open/close, replication and hinted handoff — plus the durable
# store's kill -9 warm-restart acceptance test.
chaos-cluster:
	$(GO) test -race ./internal/chaosnet/
	$(GO) test -race -count=1 -run 'TestChaos' -v ./internal/cluster/
	$(GO) test -race -count=1 -run 'TestPDFDStoreWarmRestart' -v ./internal/cli/

# Observability smoke: boot pdfd, run a compacted c17 job, assert the
# Prometheus exposition and the job's span timeline are well-formed.
obs-smoke:
	$(GO) test -race -count=1 -run 'TestObsSmoke' -v ./internal/cli/

# Cluster smoke: boot two pdfd backends and a pdfd -coordinator over
# them, batch-submit across the fleet, assert owner affinity and a
# cache hit on resubmission.
cluster-smoke:
	$(GO) test -race -count=1 -run 'TestClusterSmoke' -v ./internal/cli/

# Tenant smoke: boot pdfd with a -tenants roster file, prove bearer
# auth (401), per-tenant quota backpressure (429 + shed counters),
# tenant-labelled health/metrics, and 404 on the removed unversioned
# routes.
tenant-smoke:
	$(GO) test -race -count=1 -run 'TestTenantSmoke' -v ./internal/cli/

# The CI gate: formatting + vet (perfbench too: it is a separate module
# that compiles against internal APIs) + build + full suite under -race
# + the paper-scale table golden + every go-test benchmark run once +
# the performance regression gate against the committed baseline.
check:
	$(MAKE) fmt
	$(GO) vet ./...
	cd perfbench && GOWORK=off $(GO) vet ./...
	$(MAKE) lint
	$(GO) build ./...
	$(GO) test -race ./...
	$(MAKE) cluster-smoke
	$(MAKE) tenant-smoke
	$(MAKE) chaos-cluster
	$(MAKE) paper-check
	$(MAKE) bench-smoke
	$(MAKE) bench-check

# Run the perfreg suite and write a fresh BENCH_<date>.json snapshot
# (wall time, per-stage span seconds, allocations, test counts, P0/P1
# coverage). Commit the file to refresh the baseline.
bench:
	$(GO) run ./cmd/pdfbench -reps 3

# The regression gate: re-run the suite and diff against the committed
# baseline; exits non-zero on any regression (see PERF.md thresholds).
bench-check:
	$(GO) run ./cmd/pdfbench -reps 3 -baseline $(BENCH_BASELINE)

# Every go-test benchmark, one iteration each: `go vet` only compiles
# benchmarks, so this is what catches one that fails at run time.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The stock go-test microbenchmarks (pre-perfreg behavior of `bench`).
go-bench:
	$(GO) test -bench=. -benchmem ./...

# The ENGINE_BENCH entry in EXPERIMENTS.md.
engine-bench:
	$(GO) test -run='^$$' -bench='Engine|Count' -benchtime=3x ./internal/engine/ ./internal/faultsim/

# The figure ROADMAP judges simplifications by: non-test Go lines
# outside perfbench/ and testdata/.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './perfbench/*' -not -path '*/testdata/*' -not -path './.bench_build/*' | xargs cat | wc -l
