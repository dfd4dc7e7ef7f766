# AdaMBE reproduction — convenience targets.

GO ?= go

.PHONY: all build test test-race test-e2ebench bench bench-kernels bench-parallel check-dist repro repro-quick fuzz difftest difftest-extended clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# The end-to-end benchmark's own tests (a separate module, so `go test ./...`
# at the root skips them): TestSmoke runs every workload at a tiny size,
# traced and untraced, checking digests and the BENCHMARK.json schema.
test-e2ebench:
	cd e2ebench && $(GO) test ./...

# One testing.B benchmark per paper table/figure plus kernel micro-benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# Hot-path kernel micro-benches only: the batched packed-mask kernels at
# word widths 2/4 (batched vs per-vertex, fused vs two-pass), the
# gallop-vs-merge intersection sweep and the two-hop suffix ordering's
# scan-vs-sort crossover. CI runs the same set once each with
# KERNEL_BENCHTIME=1x.
KERNEL_BENCHTIME ?= 1s
bench-kernels:
	$(GO) test -run='^$$' -bench='Packed|IntersectGallop|SortIDs' -benchtime=$(KERNEL_BENCHTIME) -benchmem ./internal/bitset ./internal/vset

# Regenerate the checked-in scheduler perf trajectory (serial AdaMBE vs the
# ParAdaMBE thread sweep, with spawn/steal/inline counters). Fails if any
# parallel count diverges from the serial reference, and refuses to record
# at GOMAXPROCS=1 — a one-thread "parallel" trajectory can't show scaling.
bench-parallel:
	$(GO) run ./cmd/mbebench -json BENCH_parallel.json -datasets UL,UF,GH

# Distributed-enumeration smoke (docs/DISTRIBUTED.md): coordinator plus
# three workers on this host, one worker kill -9'd mid-run, global digest
# compared against a direct single-process run; then the dist package's
# in-process cluster tests under the race detector.
check-dist:
	$(GO) build -o mbecoord_bin ./cmd/mbecoord
	$(GO) build -o mbe_bin ./cmd/mbe
	bash scripts/check_dist.sh ./mbecoord_bin ./mbe_bin ceb
	$(GO) test -race -count=1 ./internal/dist
	rm -f mbecoord_bin mbe_bin

# Regenerate every table and figure of the paper's evaluation (text tables
# to stdout, CSV series to results/). Takes tens of minutes at full scale.
repro:
	$(GO) run ./cmd/mbebench -exp all -tle 60s -csv results/

repro-quick:
	$(GO) run ./cmd/mbebench -exp all -quick

# Differential + metamorphic correctness sweep (digest equality across all
# engines × orderings × thread counts); the PR-gating leg.
difftest:
	$(GO) test ./internal/difftest -v -run 'TestSweep|TestBBK|TestMetamorphic|TestInjected|TestDup|TestReplay'

# Nightly-scale sweep: larger graphs, fresh seed, race detector. Any
# disagreement is minimized into internal/difftest/testdata/repros/.
difftest-extended:
	MBE_DIFFTEST_EXTENDED=1 MBE_DIFFTEST_SEED=$${MBE_DIFFTEST_SEED:-$$(date +%s)} \
		$(GO) test -race ./internal/difftest -v -timeout 60m -run 'TestExtendedSweep|TestSweep|TestBBK|TestMetamorphic|TestReplay'

fuzz:
	$(GO) test ./internal/graph -fuzz FuzzReadKonect -fuzztime 30s
	$(GO) test ./internal/graph -fuzz FuzzReadBinary -fuzztime 30s
	$(GO) test ./internal/core -fuzz FuzzEnumerateAgreement -fuzztime 60s
	$(GO) test ./internal/difftest -fuzz FuzzBBK -fuzztime 60s

clean:
	rm -rf results/
