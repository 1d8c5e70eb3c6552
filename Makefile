# Repo-wide checks. `make check` is the CI gate: formatting, vet, build,
# the full test suite under the race detector, and a short fuzz smoke over
# the untrusted-byte parsers. The test suite includes the two API rules of
# internal/apicheck, and fails listing what breaks them. The declaration
# rule: every package-level declaration of a non-main package is reached
# from a program (cmd/*, examples/*, bench/) or used by another package's
# tests. The field rule: every exported field of a struct declared in a
# non-main package that non-test code reads is also written by non-test
# code (a composite-literal key, an assignment or inc/dec of it or of an
# index of it, or &x.F, which is how flags bind).

GO ?= go

.PHONY: check fmt vet build test race allocs loc benchmark-build fuzz-smoke chaos obs load orch soak fission

check: fmt vet build loc race allocs benchmark-build fuzz-smoke load orch soak fission

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# bench/ is a module of its own (see benchmark-build): vet it as well.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The allocation guards (steady-state allocations per iteration and per LPC
# frame, what a deployment costs to open — also with the stall watchdog and a
# context armed, as every benchmark workload runs (TestAllocsWatchedRun) — to
# lower from a ready spec, and a whole admitted session) hold their
# measurements to nothing under the race detector, whose runtime drops
# sync.Pool entries at random, so `race` alone would never enforce one: this
# run is the gate.
allocs:
	$(GO) test -run Allocs -count=1 ./internal/spi ./internal/lpc ./internal/session

# Non-test Go lines per package: the quantity ROADMAP aim 2 sets its
# reduction target on. Lines as `wc -l` counts them, comments included, so
# the number moves only when code or its documentation does. Every internal
# package, cmd/ and examples/ has a ceiling (its count when the ceiling was
# last set): `make check` runs this target and fails when one is exceeded,
# so growth is an explicit, reviewed edit of the number below. Lower a
# ceiling whenever a change shrinks its directory. internal/apicheck is
# test-only and stays at 0.
LOC_CEILINGS = internal/spi:3815 internal/transport:4064 internal/session:1447 internal/orch:1549 internal/lpc:1487 cmd:2765 \
	internal/alloctest:90 internal/apicheck:0 internal/dataflow:1622 internal/demo:246 internal/dsp:467 \
	internal/experiments:762 internal/fixed:92 internal/hdl:486 internal/huffman:336 internal/mpi:287 \
	internal/obs:832 internal/particle:780 internal/platform:658 internal/sched:1022 internal/signal:183 \
	internal/syncgraph:770 internal/vts:363 examples:553
loc:
	@over=0; for e in $(LOC_CEILINGS); do d=$${e%:*}; max=$${e#*:}; \
		n=$$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		printf '%-20s %6d  (ceiling %d)\n' $$d $$n $$max; \
		[ $$n -le $$max ] || over=1; \
	done; \
	for d in internal/*; do case " $(LOC_CEILINGS) " in *" $$d:"*) ;; *) echo "loc: $$d has no ceiling"; over=1;; esac; done; \
	[ $$over -eq 0 ] || { echo "loc: a directory outgrew its ceiling or has none; shrink it, or set the ceiling in the Makefile on purpose"; exit 1; }

# bench/ is a module of its own (the repo benchmark, see BENCHMARK.json)
# that builds against this one: its smoke test runs here so an API change
# that breaks the benchmark's build fails in CI, not in the benchmark run.
# `bash bench/run.sh` with bench/README.md is the only benchmark harness;
# every performance claim is made with it.
benchmark-build:
	cd bench && $(GO) test ./...

# Short fuzz passes over the parsers and wire decoders (the surfaces that
# consume untrusted bytes). Each target runs for a bounded time so the
# smoke stays CI-friendly. FUZZ_TARGETS must name exactly the func Fuzz*
# of internal/, as directory:name: the target fails before fuzzing when a
# fuzz test is missing from the list or the list names one that is gone.
FUZZ_TARGETS = internal/spi:FuzzDecodeStatic internal/spi:FuzzDecodeDynamic internal/dataflow:FuzzParse \
	internal/transport:FuzzDecodeBatched internal/session:FuzzDecodeSessionFrame internal/transport:FuzzDecodePing \
	internal/transport:FuzzDecodeHello internal/transport:FuzzDecodeResume internal/transport:FuzzDecodeShmHeader \
	internal/transport:FuzzFaultConnFrames internal/orch:FuzzDecodeCtrl
fuzz-smoke:
	@have=" $$(grep -rHoE '^func Fuzz[A-Za-z0-9_]+' --include='*_test.go' internal | sed -E 's|/[^/]*_test\.go:func |:|' | tr '\n' ' ')"; \
	want=" $(FUZZ_TARGETS) "; bad=0; \
	for e in $$have; do case "$$want" in *" $$e "*) ;; *) echo "fuzz-smoke: $$e is missing from FUZZ_TARGETS"; bad=1;; esac; done; \
	for e in $$want; do case "$$have" in *" $$e "*) ;; *) echo "fuzz-smoke: FUZZ_TARGETS names $$e, which is gone"; bad=1;; esac; done; \
	[ $$bad -eq 0 ]
	@for e in $(FUZZ_TARGETS); do d=$${e%:*}; f=$${e#*:}; \
		echo "$(GO) test -run=NONE -fuzz=^$$f\$$ -fuzztime=5s ./$$d"; \
		$(GO) test -run=NONE -fuzz="^$$f\$$" -fuzztime=5s ./$$d || exit 1; \
	done

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
# handshake tables (what HELLO refuses, and what each side sets on its own:
# heartbeats, and acks as ACK frames in the writer's pass beside DATA), the
# per-link writer's tests (no deadline, coalescing under load, order across
# the inline-write threshold, acks merged per session tag and edge, write
# errors, replay, Close draining), the session server's sever-and-resume
# tests (a RESUME lands on its link; a dead link leaves RESUME routing), the
# differential oracle over the
# executor core (random graphs, mappings and node splits, every execution mode
# against the scalar in-process run), and the carry table of blocked runs
# (every delay against every block, in process and over loopback; one send
# per block; a partial range ends a standing deployment). The orchestrated
# fault tests run blocked. The fault schedules are seeded and apply
# per frame, so they hit the same frames however the links coalesce.
chaos:
	$(GO) test -race -run 'Chaos|Lifecycle|Degraded|Fault|BatchResume|Writer|CloseDrains|Heartbeat|Stall|Deadline|Reap|Orchestrated|Migration|Resync|Handshake|MixedLocalPolicy|Differential|Carry|BlockedCheckpoint|ServeResume|ServeForgets' -count=1 \
		./internal/transport ./internal/spi ./internal/lpc ./cmd/spinode ./internal/session ./internal/orch

# Orchestration smoke: a 3-worker in-process pool under spictl, first
# with a forced live migration (planned rotation at epoch 2, zero
# aborts), then with a worker killed mid-run (abort + re-place + replay),
# then 300 fault-free epochs that must run on one standing deployment
# with no processor moved, blocked at 16 (the largest B ≤ 16 dividing the
# epoch length). Every run verifies the orchestrated sink
# digests bit for bit against the static single-process execution; spictl
# exits non-zero on any mismatch.
orch:
	$(GO) run ./cmd/spictl -inproc 3 -iters 24 -epoch 6 -seed 11 -migrate-at 2 -verify
	$(GO) run ./cmd/spictl -inproc 3 -iters 24 -epoch 6 -seed 11 -migrate-at 1 -kill w2@2 -verify
	$(GO) run ./cmd/spictl -inproc 3 -iters 24 -epoch 6 -seed 11 -migrate-at 2 -resync -verify
	@out=$$($(GO) run ./cmd/spictl -inproc 3 -iters 19200 -epoch 64 -seed 11 -verify) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | grep -q 'orch: .* migrations=0 deploys=1 warm=299 ' || { echo "orch smoke: a fault-free run must keep one standing deployment"; exit 1; }; \
	echo "$$out" | grep -q 'orch: .* block=16 ' || { echo "orch smoke: epochs of 64 must run blocked at 16"; exit 1; }

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
