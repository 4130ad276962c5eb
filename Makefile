# Build/test/benchmark entry points.
#
# Benchmark workflow (the BENCH_*.json trajectory): see BENCH.md for how to
# read the snapshots and their caveats. In short:
#   `make bench` runs the full root benchmark suite and captures the
#   test2json event stream in $(BENCH_OUT) (default BENCH_local.json)
#   alongside the human-readable console lines. Committed snapshots record
#   the trajectory across PRs — BENCH_PR1.json (lockstep/oracle zero-alloc
#   baseline), BENCH_PR2.json (batching of a since-removed concurrent
#   engine + engine Reset reuse), BENCH_PR3.json (value-indexed node
#   state: the σ-scaling table from `make bench-selectivity`), BENCH_PR7.json
#   (filter-interval mirror: the violation-sweep before/after from
#   `make bench-violation`) — and
#   future PRs diff against them with benchstat or jq, e.g.:
#     jq -r 'select(.Action=="output") | .Output' BENCH_PR2.json | grep Benchmark
#   `make bench-smoke` is the CI-speed variant (one iteration per
#   benchmark, alloc regressions still fail loudly via the *Allocs tests).
#   `make bench-selectivity` reruns only BenchmarkSweepSelectivity — the
#   σ-vs-n scaling of the value-indexed Sweep/Collect — into $(BENCH_SEL_OUT).
#
# `make check` = build + fmt-check + vet + api-check + test, the same gate
# CI runs.

GO ?= go
BENCHTIME ?= 300ms
BENCH_OUT ?= BENCH_local.json
BENCH_SEL_OUT ?= BENCH_local_selectivity.json
BENCH_VIO_OUT ?= BENCH_local_violation.json
BENCH_SERVE_OUT ?= BENCH_local_serve.json
BENCH_WAL_OUT ?= BENCH_local_wal.json
BENCH_SKETCH_OUT ?= BENCH_local_sketch.json
SERVE_ADDR ?= 127.0.0.1:7070

.PHONY: all build fmt-check vet api-check test race fuzz check cover bench bench-smoke bench-selectivity bench-violation bench-sketch serve bench-serve bench-wal smoke-crash

all: check

build:
	$(GO) build ./...

# fmt-check fails (listing the files) if any file needs gofmt.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "files need gofmt:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# api-check enforces the public-API boundary: cmd/ and examples/ consume
# the embeddable topk package and must not import internal/... directly.
# One sanctioned exception: cmd/topkd may import topkmon/internal/serve
# (the HTTP frontend's tenant pool + handlers, factored out for socketless
# testing); in exchange, internal/serve itself may import only
# internal/wal (its durability layer) beyond the public topk facade, and
# internal/wal in turn imports only topk — so the whole server path still
# consumes the supported API. Two sketch-layer rules complete the map:
# internal/sketch is a stdlib-only leaf (no module imports at all), and
# the public topk/items layer consumes only topk + internal/sketch. Two
# engine-side rules: internal/idset, the node-id set the engine and the
# protocols share, is a stdlib-only leaf, and the node index is a leaf
# under the lockstep engine — internal/vindex imports only internal/eps
# and internal/wire from this module. The topk boundary tests pin the same
# rules inside `go test ./...`.
api-check:
	@leaks=$$($(GO) list -f '{{.ImportPath}}: {{join .Imports " "}}' ./cmd/... ./examples/... \
		| grep 'topkmon/internal' \
		| grep -v '^topkmon/cmd/topkd:' || true); \
	if [ -n "$$leaks" ]; then \
		echo "internal imports leaked into public entry points:"; \
		echo "$$leaks"; exit 1; \
	fi
	@topkd=$$($(GO) list -f '{{join .Imports "\n"}}' ./cmd/topkd \
		| grep 'topkmon/internal' | grep -v '^topkmon/internal/serve$$' || true); \
	if [ -n "$$topkd" ]; then \
		echo "cmd/topkd may import only topkmon/internal/serve, but imports:"; \
		echo "$$topkd"; exit 1; \
	fi
	@serveleaks=$$($(GO) list -f '{{join .Imports "\n"}}' ./internal/serve \
		| grep 'topkmon/internal' | grep -v '^topkmon/internal/wal$$' || true); \
	if [ -n "$$serveleaks" ]; then \
		echo "internal/serve may only consume topk and internal/wal, but imports:"; \
		echo "$$serveleaks"; exit 1; \
	fi
	@walleaks=$$($(GO) list -f '{{join .Imports "\n"}}' ./internal/wal \
		| grep 'topkmon/internal' || true); \
	if [ -n "$$walleaks" ]; then \
		echo "internal/wal may only consume the public topk facade, but imports:"; \
		echo "$$walleaks"; exit 1; \
	fi
	@sketchleaks=$$($(GO) list -f '{{join .Imports "\n"}}' ./internal/sketch \
		| grep '^topkmon' || true); \
	if [ -n "$$sketchleaks" ]; then \
		echo "internal/sketch must stay a stdlib-only leaf, but imports:"; \
		echo "$$sketchleaks"; exit 1; \
	fi
	@itemsleaks=$$($(GO) list -f '{{join .Imports "\n"}}' ./topk/items \
		| grep '^topkmon' | grep -v '^topkmon/topk$$' | grep -v '^topkmon/internal/sketch$$' || true); \
	if [ -n "$$itemsleaks" ]; then \
		echo "topk/items may only consume topk and internal/sketch, but imports:"; \
		echo "$$itemsleaks"; exit 1; \
	fi
	@idsetleaks=$$($(GO) list -f '{{join .Imports "\n"}}' ./internal/idset \
		| grep '^topkmon' || true); \
	if [ -n "$$idsetleaks" ]; then \
		echo "internal/idset must stay a stdlib-only leaf, but imports:"; \
		echo "$$idsetleaks"; exit 1; \
	fi
	@vindexleaks=$$($(GO) list -f '{{join .Imports "\n"}}' ./internal/vindex \
		| grep '^topkmon' | grep -v '^topkmon/internal/eps$$' \
		| grep -v '^topkmon/internal/wire$$' || true); \
	if [ -n "$$vindexleaks" ]; then \
		echo "internal/vindex may only consume internal/eps and internal/wire, but imports:"; \
		echo "$$vindexleaks"; exit 1; \
	fi

test:
	$(GO) test ./...

# race runs the whole module under the race detector (short mode bounds the
# heavy property suites); CI runs the same job.
race:
	$(GO) test -race -short ./...

# fuzz gives the seeded fuzz targets a short randomized session each — the
# interval algebra, the Pred.Bounds value-routing contract against the
# engine's match, the engine's violator set under fault injection, the
# HTTP frontend's all-or-nothing batch-decode path, the WAL decoder's
# torn-write obligations (no panic, exact canonical prefix, idempotent
# truncation) on arbitrary bytes, the streaming summaries' estimate
# invariants (Space-Saving/Misra-Gries one-sided bounds, Count-Min
# never-under-estimates, Reset replay identity) on arbitrary op tapes, and
# the node-id set against a map + sort reference on op tapes.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz FuzzIntervalContainment -fuzztime $(FUZZTIME) ./internal/filter/
	$(GO) test -fuzz FuzzPredBounds -fuzztime $(FUZZTIME) ./internal/lockstep/
	$(GO) test -fuzz FuzzFilterMirror -fuzztime $(FUZZTIME) ./internal/lockstep/
	$(GO) test -fuzz FuzzBatchDecode -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz FuzzWALDecode -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -fuzz FuzzSpaceSaving -fuzztime $(FUZZTIME) ./internal/sketch/
	$(GO) test -fuzz FuzzCountMin -fuzztime $(FUZZTIME) ./internal/sketch/
	$(GO) test -fuzz FuzzIDSet -fuzztime $(FUZZTIME) ./internal/idset/

# cover prints per-package statement coverage for the engine-core packages
# the violation-routing test matrix concentrates on — the index, the id
# set, the engine, and the fault layer — plus the sketch leaf the item
# layer stands on and the monitoring protocols. CI publishes the same table.
cover:
	$(GO) test -cover ./internal/vindex/ ./internal/idset/ ./internal/lockstep/ ./internal/faults/ ./internal/sketch/ ./internal/protocol/

check: build fmt-check vet api-check test

# bench runs the full root benchmark suite and captures machine-readable
# JSON (test2json event stream) in $(BENCH_OUT) alongside the human-readable
# console output — the format future PRs diff with benchstat / jq. Every
# run is stamped with a "bench-env:" line (TestMain in benchenv_test.go)
# recording go version, GOOS/GOARCH, GOMAXPROCS, and NumCPU, so multi-core
# claims stay attributable when CI hardware changes.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) -json . > $(BENCH_OUT)
	@grep -o '"Output":"Benchmark[^"]*"' $(BENCH_OUT) | sed -e 's/^"Output":"//' -e 's/"$$//' -e 's/\\t/\t/g' -e 's/\\n//'
	@echo "wrote $(BENCH_OUT)"

# bench-smoke is the CI-speed variant: one iteration per benchmark.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem .

# bench-selectivity emits the σ-scaling table of the value-indexed engine
# (BenchmarkSweepSelectivity: collect/sweep latency vs σ at fixed n, vs n at
# fixed σ, and the full-scan fallbacks) as test2json into $(BENCH_SEL_OUT).
# The committed snapshot of this table — annotated with environment and
# before/after context — is BENCH_PR3.json. See BENCH.md.
bench-selectivity:
	$(GO) test -run='^$$' -bench='^BenchmarkSweepSelectivity$$' -benchmem \
		-benchtime=$(BENCHTIME) -json . > $(BENCH_SEL_OUT)
	@grep -o '"Output":"Benchmark[^"]*"' $(BENCH_SEL_OUT) | sed -e 's/^"Output":"//' -e 's/"$$//' -e 's/\\t/\t/g' -e 's/\\n//'
	@echo "wrote $(BENCH_SEL_OUT)"

# bench-violation emits the violation-sweep before/after table
# (BenchmarkViolationSweep: the engine's violator set vs. the FullScan
# ablation, quiet and one-violator, at n=4096 and n=16384) as test2json into
# $(BENCH_VIO_OUT). The committed snapshot of this table is BENCH_PR7.json.
# See BENCH.md.
bench-violation:
	$(GO) test -run='^$$' -bench='^BenchmarkViolationSweep$$' -benchmem \
		-benchtime=$(BENCHTIME) -json . > $(BENCH_VIO_OUT)
	@grep -o '"Output":"Benchmark[^"]*"' $(BENCH_VIO_OUT) | sed -e 's/^"Output":"//' -e 's/"$$//' -e 's/\\t/\t/g' -e 's/\\n//'
	@echo "wrote $(BENCH_VIO_OUT)"

# bench-sketch emits the sketch-layer tables: the summaries' hot paths
# (BenchmarkSketchObserve/BenchmarkSketchHeavy — Observe stays 0 allocs/op),
# one committed step of the item-monitoring layer (BenchmarkItemsStep), and
# the E13 recall-vs-summary-size run (BenchmarkE13HeavyHitters), as
# test2json into $(BENCH_SKETCH_OUT). The committed snapshot of this table
# is BENCH_PR10.json. See BENCH.md.
bench-sketch:
	$(GO) test -run='^$$' -bench='^(BenchmarkSketchObserve|BenchmarkSketchHeavy|BenchmarkItemsStep|BenchmarkE13HeavyHitters)$$' -benchmem \
		-benchtime=$(BENCHTIME) -json . > $(BENCH_SKETCH_OUT)
	@grep -o '"Output":"Benchmark[^"]*"' $(BENCH_SKETCH_OUT) | sed -e 's/^"Output":"//' -e 's/"$$//' -e 's/\\t/\t/g' -e 's/\\n//'
	@echo "wrote $(BENCH_SKETCH_OUT)"

# serve runs the multi-tenant HTTP frontend on $(SERVE_ADDR) with the
# stock per-server defaults (override via topkd flags, see cmd/topkd).
serve:
	$(GO) run ./cmd/topkd -addr $(SERVE_ADDR)

# bench-serve measures the served path end to end: boot topkd, drive it
# with the closed-loop load generator (thousands of client goroutines ×
# multiple tenants), and capture throughput + latency percentiles + the
# final per-tenant /cost scrape into $(BENCH_SERVE_OUT). The loadgen exits
# nonzero on any request error or any silent-invalid tenant (Check failed
# while Health still reported Fresh), so this target doubles as an
# integration gate. The committed snapshot of this table is BENCH_PR8.json.
bench-serve:
	$(GO) build -o /tmp/topkd ./cmd/topkd
	$(GO) build -o /tmp/topkd-loadgen ./internal/tools/loadgen
	@/tmp/topkd -addr $(SERVE_ADDR) & pid=$$!; \
	/tmp/topkd-loadgen -addr http://$(SERVE_ADDR) -tenants 8 -clients 256 \
		-requests 400 -batch 16 -out $(BENCH_SERVE_OUT); status=$$?; \
	kill $$pid 2>/dev/null; \
	exit $$status
	@echo "wrote $(BENCH_SERVE_OUT)"

# bench-wal measures what durability costs: per-batch ingest under each
# fsync policy vs. the volatile baseline (BenchmarkDurableCommit — the
# steady path stays zero-alloc) and boot-time replay vs. log length
# (BenchmarkRecovery — the curve that motivates snapshot compaction).
# The committed snapshot of this table is BENCH_PR9.json. See BENCH.md.
bench-wal:
	$(GO) test -run='^$$' -bench='^(BenchmarkDurableCommit|BenchmarkRecovery)$$' -benchmem \
		-benchtime=$(BENCHTIME) -json ./internal/serve/ > $(BENCH_WAL_OUT)
	@grep -o '"Output":"Benchmark[^"]*"' $(BENCH_WAL_OUT) | sed -e 's/^"Output":"//' -e 's/"$$//' -e 's/\\t/\t/g' -e 's/\\n//'
	@echo "wrote $(BENCH_WAL_OUT)"

# smoke-crash is the durability layer's end-to-end gate: boot topkd with a
# data dir, drive it, SIGKILL it mid-load, restart on the same dir, and
# assert every tenant recovers Fresh with no silent-invalid verdict and no
# lost acked batch — then re-drive the recovered server under loadgen's
# exactly-once accounting. CI runs the same script (crash-smoke job).
smoke-crash:
	sh scripts/crash_smoke.sh
