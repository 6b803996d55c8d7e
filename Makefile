# Tier-1 is the gate every change must keep green; tier-2 adds static
# analysis and the race detector (the observability layer is explicitly
# concurrent, so tier-2 is what validates it); the chaos tier replays the
# seeded fault-injection suite under the race detector.

GO ?= go

# Version stamping: `make build` binaries report the tag and commit via
# their -version flag. Plain `go build` keeps the "dev (unknown)"
# defaults, so test output stays independent of the checkout state.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
COMMIT  ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)
LDFLAGS  = -X github.com/rdt-go/rdt/internal/version.Version=$(VERSION) \
           -X github.com/rdt-go/rdt/internal/version.Commit=$(COMMIT)

.PHONY: all build test grid-check bench-test bench-smoke race vet chaos chaos-supervise serve-smoke trace-smoke soak-smoke fuzz-smoke durability-smoke load-smoke shard-smoke examples-smoke check bench clean

all: test

# Stamped binaries for all CLIs and daemons.
build:
	$(GO) build -ldflags "$(LDFLAGS)" -o bin/ ./cmd/...

# Tier-1: build everything and run the full test suite.
test:
	$(GO) build ./...
	$(GO) test ./...

# Grid check: regenerate the paper-scale grid's CSVs into a temporary
# directory and compare each with its committed copy under results/.
# Tier-1 pins only the reduced grid (quick_csv.sha256); this is the
# paper-scale golden, a few seconds on two cores.
grid-check:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/rdtexperiments -csv "$$dir" >/dev/null && \
	for f in "$$dir"/*.csv; do cmp "$$f" "results/$$(basename "$$f")" || exit 1; done && \
	for f in results/*.csv; do test -f "$$dir/$$(basename "$$f")" || { echo "grid-check: no $$f generated" >&2; exit 1; }; done && \
	echo "grid-check: $$(ls "$$dir" | wc -l) CSVs identical to results/"

# The benchmark is a nested module (bench/go.mod), invisible to
# `go test ./...` from the root: its own tests run here.
bench-test:
	cd bench && $(GO) test .

# Bench smoke: every micro-benchmark under internal/ once, so a benchmark
# that panics or fails fails the gate. The timings are not read.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# Tier-2: vet + race-enabled tests across the module, then the shard
# package again: its kill-point interleavings differ from run to run.
# So do the service's lifecycle table's — which of eight goroutines finds
# an id live, held or retiring is the scheduler's choice — so its churn,
# after-Drain and create-collision tests run again on one, two and eight
# cores, with the test that reads the violation trace while four sessions
# write it. So does what the session worker finds queued when it drains a
# commit group (a close mid-drain, a retirement after a partial group),
# and what the queries find while it logs and syncs without the session
# lock: those tests run again on one core and on two. The scenario corpus must
# NOT vary: each file, supervised ones included, runs twice per
# TestCorpus pass, 17 passes on one, two and eight cores — at least 50
# runs per file, every pair byte-identical.
race: vet
	$(GO) test -race ./...
	$(GO) test -race -count=5 ./internal/shard
	$(GO) test -race -count=5 -cpu=1,2,8 -run 'LifecycleChurn|TransitionsAfterDrain|DurableCreateCollisions|ViolationTraceConcurrentReads' ./internal/service
	$(GO) test -race -count=3 -cpu=1,2 -short -run 'CrashPointDifferential|GroupCommit|QueriesNeverWaitOnPersistence' ./internal/service
	$(GO) test -race -count=17 -cpu=1,2,8 -run TestCorpus ./internal/scenario

vet:
	$(GO) vet ./...

# Chaos tier: the seeded fault-injection suite (fixed seed matrix — the
# fault schedules are reproducible) under the race detector: transport
# faults, reliable delivery, crash/restart, and end-to-end recovery.
# The rdtsim half runs `-faults`, which generates a scenario and replays
# it on the virtual clock, byte for byte.
chaos:
	$(GO) test -race -run 'Chaos|Crash|Reliable|Faulty|GiveUp|Partition' \
		./internal/transport/ ./internal/cluster/
	$(GO) test -race -run 'RunChaos' ./cmd/rdtsim/

# Supervised chaos tier: the self-healing suite under the race detector —
# heartbeat failure detection, autonomous recovery with retries and
# escalation, and the no-false-positive guarantee under injected delay.
# The rdtsim half runs `-supervise`, a generated scenario on the virtual
# clock whose seeded victim must be recovered with the same transcript on
# every run. examples/recovery then drives the real-clock supervisor
# through the rdt facade.
chaos-supervise:
	$(GO) test -race -run 'Supervis' ./internal/cluster/ ./cmd/rdtsim/
	$(GO) run ./examples/recovery

# Service smoke: boot a real rdtserved daemon and drive it end to end
# over HTTP under the race detector — including 20 concurrent sessions
# with per-session batch/verdict parity against the batch analyzer.
serve-smoke:
	$(GO) test -race -count=1 -run 'TestServeSmoke' ./cmd/rdtserved/

# Trace smoke: exercise the observability surface end to end under the
# race detector (flight recorder, causal spans, witness explain, golden
# timelines), then drive the real binaries: a simulation run writes a
# Chrome trace-event timeline and the checker explains the Figure 1
# violation with a highlighted witness.
trace-smoke:
	$(GO) test -race -count=1 -run 'Trace|Explain|Timeline|Witness|Flight|Span' \
		./internal/obs/ ./internal/cluster/ ./internal/trace/ \
		./internal/rgraph/ ./internal/service/ ./cmd/rdtsim/ ./cmd/rdtcheck/
	$(GO) run -ldflags "$(LDFLAGS)" ./cmd/rdtsim -protocol bhmr -workload ring \
		-n 4 -duration 60 -trace-out $(or $(TMPDIR),/tmp)/rdt-timeline.json
	grep -q '"traceEvents"' $(or $(TMPDIR),/tmp)/rdt-timeline.json
	$(GO) run -ldflags "$(LDFLAGS)" ./cmd/rdtcheck -figure1 -explain | grep 'witness:' >/dev/null

# Soak smoke: the deterministic chaos-scenario tier under the race
# detector — the full seed corpus of .rdts files, double-run transcript
# reproducibility, the golden replay, and a generated soak covering over
# an hour of simulated operation (virtual time makes the hour cost
# seconds of wall clock) — then the binary on a corpus file and on the
# README's supervised chaos example.
soak-smoke:
	$(GO) test -race -count=1 -run 'TestCorpus|TestGolden|TestSoak|TestGenerate|TestRun' \
		./internal/scenario/
	$(GO) run -ldflags "$(LDFLAGS)" ./cmd/rdtsim \
		-scenario internal/scenario/corpus/ring-under-drops.rdts | \
		grep -q 'all expectations held'
	$(GO) run -ldflags "$(LDFLAGS)" ./cmd/rdtsim -protocol bhmr -n 4 -rounds 20 \
		-seed 7 -supervise -faults drop=0.1,dup=0.1,reorder=0.15,err=0.05,delay=2ms | \
		grep -q 'all expectations held'

# Fuzz smoke: a short bounded run of every fuzz target over untrusted
# decoder surfaces (cluster wire messages, trace JSON, service events,
# WAL records fed to the one event reader, WAL files fed back through
# the scanner, scenario files fed to the parser, checker snapshots fed
# to the decoder and then driven on), one event stream fed to every
# consumer that judges one, which must all accept the same prefix, one
# small pattern held to the useless and minimum-checkpoint oracles, and
# one builder op stream (decoded snapshots included) whose finalized
# patterns must pass the full Validate.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeMsg' -fuzztime 10s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz 'FuzzLoad' -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeEvents' -fuzztime 10s ./internal/service/
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeRecord' -fuzztime 10s ./internal/service/
	$(GO) test -run '^$$' -fuzz 'FuzzEventStream' -fuzztime 10s ./internal/service/
	$(GO) test -run '^$$' -fuzz 'FuzzWALReplay' -fuzztime 10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz 'FuzzParse' -fuzztime 10s ./internal/scenario/
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeIncremental' -fuzztime 10s ./internal/rgraph/
	$(GO) test -run '^$$' -fuzz 'FuzzConsistencyOracles' -fuzztime 10s ./internal/rgraph/
	$(GO) test -run '^$$' -fuzz 'FuzzIncrementalOracle' -fuzztime 10s ./internal/rgraph/
	$(GO) test -run '^$$' -fuzz 'FuzzBuilderFinalize' -fuzztime 10s ./internal/model/

# Durability smoke: boot rdtserved with -data-dir, ingest a known
# stream, kill -9, restart on the same directory, and require the
# recovered verdict to be byte-identical (plus a real WAL replay); then
# the same across a SIGTERM drain and a second restart. The
# in-process counterpart is the crash-point differential test:
# TestCrashPointDifferential in internal/service.
durability-smoke:
	./scripts/durability_smoke.sh

# Load smoke: boot rdtserved with both ingest wires and run rdtload
# over each — verdict digests must match across wires (differential
# parity) and both must make progress. Throughput is bench/'s business
# (`bash bench/run.sh`, workloads mem-rotate and json-rotate).
load-smoke:
	./scripts/load_smoke.sh

# Shard smoke: boot a 3-member consistent-hash cluster behind
# rdtrouterd, remove one member and add a fresh one while rdtload
# streams — every displaced session is passivated, shipped, and
# reactivated live. The cluster's verdict digest must be bit-identical
# to an unsharded daemon's digest over the same workload, the removed
# member must drain to zero sessions, and the joiner must own at least
# one. The in-process counterparts are TestClusterChurnStress and the
# handoff-seam kill-point tests in internal/shard.
shard-smoke:
	./scripts/shard_smoke.sh

# Examples smoke: run every program under examples/; each must exit 0.
# They build the facade's config literals, so an edit there has to keep
# them working, not only compiling.
examples-smoke:
	for ex in examples/*/; do \
		$(GO) run ./$$ex >/dev/null || { echo "examples-smoke: $$ex failed" >&2; exit 1; }; \
	done

# Everything a change must pass before review.
check: test grid-check bench-test bench-smoke race chaos chaos-supervise soak-smoke load-smoke shard-smoke examples-smoke

# The yardstick: build the daemons from this checkout and run every
# bench/ workload briefly, checking each served verdict against batch
# CheckRDT (`bash bench/run.sh -workload W -trace 1` for one workload
# with the per-layer ladder; see bench/README.md). Layer benchmarks live
# in their packages: go test -run '^$$' -bench . ./internal/...
bench:
	bash bench/run.sh -selfcheck

clean:
	$(GO) clean ./...
