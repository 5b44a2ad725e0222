GO ?= go

.PHONY: build test race vet ci docscheck perf-smoke fuse-bench serve-smoke serve-bench trace-smoke span-bench cluster-smoke cluster-bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The engine and compile cache are the concurrent pieces; -race over
# them doubles as the determinism gate (parallel vs serial tables).
race:
	$(GO) test -race ./internal/exp/... ./internal/rt/...

vet:
	$(GO) vet ./...

# Pre-PR check: formatting, vet, the full suite once plainly and once
# under the race detector, then every smoke and guard once. The
# workflow runs this target and does not repeat its parts, so a smoke
# added here runs in CI too. The multi-minute golden-table comparisons
# (fig3/fig4/fig5/table2, and fig6/fig7a/fig7b/ablation-guards/
# hardening) skip themselves under -race, so the plain run is where
# every golden is checked.
ci:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./...
	$(MAKE) docscheck
	sh tools/servesmoke.sh
	sh tools/tracesmoke.sh
	sh tools/clustersmoke.sh
	$(MAKE) fuse-bench
	$(MAKE) span-bench
	$(MAKE) perf-smoke

# The repo benchmark (bench/, BENCHMARK.json) is its own Go module, so
# nothing above compiles it: vet it, run its tests, and run every
# workload once in smoke mode, each op still checked against ir.Interp.
# About 25 s cold, 1 s warm; writes only under the git-ignored
# .bench_build/. TestSmokeEveryWorkload is skipped until a benchmark PR
# lets mem.resident_pages read 0: it requires the two pages per closed
# instance that rt.Instance.Close used to leak (run.sh -smoke below
# still runs every workload, and fails on a failed op).
perf-smoke:
	$(GO) vet -C bench ./...
	$(GO) test -C bench -skip '^TestSmokeEveryWorkload$$' ./...
	bash bench/run.sh -smoke -trace 0

# Documentation gate: package comments present, ARCHITECTURE.md linked
# and complete, documented flags/ids exist, documented commands run in
# smoke mode (including the fault-injection flags).
docscheck:
	sh tools/docscheck.sh

# Fused-tier smoke: the superinstruction tier must not be slower than
# the fast tier on a real kernel (1.2x guard band for CI noise).
fuse-bench:
	REPRO_FUSEBENCH=1 $(GO) test -run TestFusedTierNotSlower -count=1 -v .

# Serving-layer smoke: boot faasd on an ephemeral port, burst it with
# faasload, check /healthz, /metrics, and /debug/requests, drain
# cleanly on SIGTERM.
serve-smoke:
	sh tools/servesmoke.sh

# Tracing smoke: boot faasd with -trace, load it, drain, and validate
# that the emitted Chrome-trace JSON parses and contains the serving
# phase spans (queue/exec/transitions on the wall-clock track).
trace-smoke:
	sh tools/tracesmoke.sh

# Span-overhead guard: with spans fully enabled, fused-tier kernel
# invocations must cost no more than 3% extra wall time versus the
# spans-disabled path (fastest of 20 interleaved five-invocation batches
# each way, to damp CI noise).
span-bench:
	REPRO_SPANBENCH=1 $(GO) test -run TestSpanOverheadBounded -count=1 -v .

# Serving-layer benchmark: sweep an open-loop RPS ramp against a live
# faasd and record the throughput/latency trajectory per step in
# SERVE_results.json (RAMP/SECONDS_PER_STEP/KERNEL/OUT env overrides).
serve-bench:
	sh tools/servebench.sh

# Cluster smoke: faasrouter supervising three faasd workers — all
# healthy, a burst through the router with zero routing-layer 5xx,
# autoscale grow decisions visible in cluster.autoscale.* counters,
# keep-warm hits across the cluster, clean SIGTERM drain.
cluster-smoke:
	sh tools/clustersmoke.sh

# Cluster benchmark: the same seeded bursty trace per isolation backend
# through a supervised cluster; records per-backend trace steps and the
# warm-instance density table (colorguard vs multiproc) as the
# "cluster" section of SERVE_results.json (WORKERS/RPS/PEAK/SEED/OUT
# env overrides).
cluster-bench:
	sh tools/clusterbench.sh
