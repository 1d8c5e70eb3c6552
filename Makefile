# Repo-wide checks. `make check` is the CI gate: formatting, vet, build,
# the full test suite under the race detector, and a short fuzz smoke over
# the untrusted-byte parsers.

GO ?= go

.PHONY: check fmt vet build test race allocs loc benchmark-build fuzz-smoke chaos obs load orch soak fission

check: fmt vet build loc race allocs benchmark-build fuzz-smoke load orch soak fission

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The allocation guards (steady-state allocations per iteration and per LPC
# frame, what a deployment costs to open, to lower from a ready spec, and a
# whole admitted session) hold their measurements to nothing under the race
# detector, whose runtime drops sync.Pool entries at random, so `race` alone
# would never enforce one: this run is the gate.
allocs:
	$(GO) test -run Allocs -count=1 ./internal/spi ./internal/lpc ./internal/session

# Non-test Go lines per package: the quantity ROADMAP aim 2 sets its
# reduction target on. Lines as `wc -l` counts them, comments included, so
# the number moves only when code or its documentation does. Each tracked
# directory has a ceiling (its count when the ceiling was last set): `make
# check` runs this target and fails when one is exceeded, so growth is an
# explicit, reviewed edit of the number below. Lower a ceiling whenever a
# change shrinks its directory.
LOC_CEILINGS = internal/spi:4070 internal/transport:4484 internal/session:1437 internal/orch:1577 cmd:2803
loc:
	@over=0; for e in $(LOC_CEILINGS); do d=$${e%:*}; max=$${e#*:}; \
		n=$$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		printf '%-20s %6d  (ceiling %d)\n' $$d $$n $$max; \
		[ $$n -le $$max ] || over=1; \
	done; \
	[ $$over -eq 0 ] || { echo "loc: a directory outgrew its ceiling; shrink it, or raise the ceiling in the Makefile on purpose"; exit 1; }

# bench/ is a module of its own (the repo benchmark, see BENCHMARK.json)
# that builds against this one: its smoke test runs here so an API change
# that breaks the benchmark's build fails in CI, not in the benchmark run.
# `bash bench/run.sh` with bench/README.md is the only benchmark harness;
# every performance claim is made with it.
benchmark-build:
	cd bench && $(GO) test ./...

# Short fuzz passes over the parsers and wire decoders (the surfaces that
# consume untrusted bytes). Each target runs for a bounded time so the
# smoke stays CI-friendly.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzDecodeStatic -fuzztime=5s ./internal/spi
	$(GO) test -run=NONE -fuzz=FuzzDecodeDynamic -fuzztime=5s ./internal/spi
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=5s ./internal/dataflow
	$(GO) test -run=NONE -fuzz=FuzzDecodeBatched -fuzztime=5s ./internal/transport
	$(GO) test -run=NONE -fuzz=FuzzDecodeSessionFrame -fuzztime=5s ./internal/transport
	$(GO) test -run=NONE -fuzz=FuzzDecodePing -fuzztime=5s ./internal/transport
	$(GO) test -run=NONE -fuzz=FuzzDecodeHello -fuzztime=5s ./internal/transport
	$(GO) test -run=NONE -fuzz=FuzzDecodeResume -fuzztime=5s ./internal/transport
	$(GO) test -run=NONE -fuzz=FuzzDecodeShmHeader -fuzztime=5s ./internal/transport
	$(GO) test -run=NONE -fuzz=FuzzFaultConnFrames -fuzztime=5s ./internal/transport
	$(GO) test -run=NONE -fuzz=FuzzDecodeCtrl -fuzztime=5s ./internal/orch

# Multi-tenant load smoke: 100 sessions multiplexed over one shared link
# against the in-process session server, on both byte carriers (loopback
# and localhost TCP), with per-session digest verification. spiload exits
# non-zero on any digest mismatch or if zero sessions were admitted, so a
# regression in the session layer fails CI here. Bounded (-duration) to
# stay CI-friendly; sessions that started before the deadline still run
# to completion.
load:
	$(GO) run ./cmd/spiload -inproc -sessions 100 -concurrency 16 -iters 10 -tenants 4 -duration 60s
	$(GO) run ./cmd/spiload -inproc-tcp -sessions 100 -concurrency 16 -iters 10 -tenants 4 -duration 60s

# The seeded fault-schedule suite: chaos link tests, the link lifecycle
# matrix (who closes first × where the connection is cut × Reconnect,
# DESIGN.md §6), distributed runs with
# drops/corruption/duplicates/severs/stalls, graceful degradation, the
# liveness layer (heartbeat timeouts, stall watchdog, deadline unwinding,
# session reaping), the pipeline.sdf + LPC residual chaos harnesses, and
# the orchestration layer's migration-under-fault suite (worker kill,
# heartbeat-declared death, mid-block sever + live migration), and the
# resync suite (ack suppression surviving drops, severs, and resumption
# with bit-identical digests and zero acks on suppressed edges), the two
# handshake tables (what HELLO refuses, and the one-sided heartbeat and
# piggyback settings that interoperate), the per-link writer's tests (no
# deadline, coalescing under load, order across the inline-write threshold,
# write errors, replay, Close draining), and the differential oracle over the
# executor core (random graphs, mappings and node splits, every execution mode
# against the scalar in-process run). The fault schedules are seeded and apply
# per frame, so they hit the same frames however the links coalesce.
chaos:
	$(GO) test -race -run 'Chaos|Lifecycle|Degraded|Fault|BatchResume|Writer|CloseDrains|Heartbeat|Stall|Deadline|Reap|Orchestrated|Migration|Resync|Handshake|MixedLocalPolicy|Differential' -count=1 \
		./internal/transport ./internal/spi ./internal/lpc ./cmd/spinode ./internal/session ./internal/orch

# Orchestration smoke: a 3-worker in-process pool under spictl, first
# with a forced live migration (planned rotation at epoch 2, zero
# aborts), then with a worker killed mid-run (abort + re-place + replay),
# then 300 fault-free epochs that must run on one standing deployment
# with no processor moved. Every run verifies the orchestrated sink
# digests bit for bit against the static single-process execution; spictl
# exits non-zero on any mismatch.
orch:
	$(GO) run ./cmd/spictl -inproc 3 -iters 24 -epoch 6 -seed 11 -migrate-at 2 -verify
	$(GO) run ./cmd/spictl -inproc 3 -iters 24 -epoch 6 -seed 11 -migrate-at 1 -kill w2@2 -verify
	$(GO) run ./cmd/spictl -inproc 3 -iters 24 -epoch 6 -seed 11 -migrate-at 2 -resync -verify
	@out=$$($(GO) run ./cmd/spictl -inproc 3 -iters 19200 -epoch 64 -seed 11 -verify) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | grep -q 'orch: .* migrations=0 deploys=1 warm=299 ' || { echo "orch smoke: a fault-free run must keep one standing deployment"; exit 1; }

# Long-link soak: 300 000 iterations of the orchestration benchmark's
# graph over three in-process loopback nodes, three times. A link that
# carries more than a resend window of frames must not wedge (both ends'
# readers once wrote their cumulative acks at each other); the timeout
# turns a hang into a failure.
soak:
	@d=$$(mktemp -d); trap 'rm -rf $$d' EXIT; \
	$(GO) build -o $$d/spinode ./cmd/spinode || exit 1; \
	for i in 1 2 3; do \
		timeout 60 $$d/spinode -inproc -transport loopback -assign 0,1,2 -iters 300000 -seed 1 \
			-graph examples/graphs/orchbench.sdf | grep '^digest' \
			|| { echo "soak run $$i wedged or failed"; exit 1; }; \
	done

# Fission smoke: pipeline.sdf digests must be bit-identical whether the
# heaviest actor runs whole or fissioned into 3 replicas behind
# scatter/gather — over the in-process loopback and over the
# shared-memory ring transport. A digest drift here means the rewrite
# reordered or resplit tokens, so this gate fails CI before any perf run
# trusts the pass.
fission:
	@base=$$($(GO) run ./cmd/spinode -inproc -graph examples/graphs/pipeline.sdf -assign 0,1,1 -iters 20 -seed 1 | grep '^digest'); \
	[ -n "$$base" ] || { echo "fission smoke: no baseline digests"; exit 1; }; \
	for t in loopback shm; do \
		d=$$(mktemp -d); \
		fiss=$$($(GO) run ./cmd/spinode -inproc -graph examples/graphs/pipeline.sdf -assign 0,1,1 -iters 20 -seed 1 -fission 3 -transport $$t -shm-dir $$d | grep '^digest'); \
		rm -rf $$d; \
		if [ "$$base" != "$$fiss" ]; then \
			echo "fission digest mismatch over $$t:"; \
			echo "base: $$base"; echo "fiss: $$fiss"; exit 1; \
		fi; \
		echo "fission/$$t digests match: $$fiss"; \
	done

# Observability suite: the obs package under the race detector and the
# spinode metrics/trace/HTTP integration tests. The instrumentation's cost
# is the benchmark's obs.trace_overhead_ratio (bash bench/run.sh -trace 1).
obs:
	$(GO) test -race -count=1 ./internal/obs
	$(GO) test -race -run 'Metrics|Trace|HTTP|Degraded' -count=1 ./cmd/spinode
