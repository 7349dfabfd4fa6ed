# CI entry points for the vmprov reproduction. `make ci` is the gate a PR
# must pass: static checks, the full test suite with the race detector,
# the kernel fuzz targets in short mode, bench smoke runs that exercise
# the kernel, sweep, hybrid and MPC benchmark paths, and the perfbench
# module's tests (BENCHMARK.json against the benchmark's catalog, and
# the BENCH_kernel, BENCH_ff and BENCH_mpc records reproduced through
# the benchmark's driver). Smoke runs write their reports to scratch
# paths, so `make ci` leaves every committed BENCH_*.json untouched; the
# bench-* targets regenerate them.

GO        ?= go
FUZZTIME  ?= 10s
BENCHOUT  ?= BENCH_kernel.json
BENCHTMP  ?= /tmp/BENCH_kernel_fresh.json
SWEEPOUT  ?= BENCH_sweep.json
SWEEPTMP  ?= /tmp/BENCH_sweep_fresh.json
SPECTMP   ?= /tmp/vmprov_spec_smoke.json
FFOUT     ?= BENCH_ff.json
FFTMP     ?= /tmp/BENCH_ff_fresh.json
MPCOUT    ?= BENCH_mpc.json
MPCTMP    ?= /tmp/BENCH_mpc_fresh.json
CHAOSOUT  ?= BENCH_chaos.json
CHAOSTMP  ?= /tmp/BENCH_chaos_fresh.json

.PHONY: ci fmt vet lint lint-baseline build test race sweep-race fault-smoke chaos-smoke fuzz bench-smoke sweep-smoke spec-roundtrip ff-smoke snapshot-smoke perfbench-test bench bench-kernel bench-sweep bench-compare bench-ff bench-mpc bench-chaos golden

ci: fmt vet lint build race sweep-race fault-smoke chaos-smoke fuzz bench-smoke sweep-smoke spec-roundtrip ff-smoke snapshot-smoke perfbench-test

# gofmt cleanliness gate: fail (and list the files) if any tracked Go
# source is not gofmt-formatted.
fmt:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# vmprovlint v2: the project's determinism and correctness multichecker
# — the five v1 per-package passes (simclock, seededrand, maporder,
# errcmp, hotclosure), the four v2 whole-program invariant passes
# (snapshotfield, splitkey, specstrict, registry), and the lite
# nilness/shadow/copylocks stock passes. One gate over the whole tree;
# `make ci` fails on any finding that is neither suppressed in source
# (`//vmprov:allow <analyzer> -- <reason>`) nor recorded in the
# committed baseline. SARIF output: $(GO) run ./cmd/vmprovlint -sarif ./...
LINTBASE ?= lint_baseline.json

lint:
	$(GO) run ./cmd/vmprovlint -baseline $(LINTBASE) ./...

# Re-pin the committed baseline to the tree's current findings. Only for
# adopting a new analyzer with pre-existing debt — never to silence a
# finding your change introduced.
lint-baseline:
	$(GO) run ./cmd/vmprovlint -write-baseline $(LINTBASE) ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The sweep engine's concurrency properties under the race detector:
# pooled workers, result placement, and the serialized completion hook.
# The TestSweepFault* cases put a fault-enabled panel through the same
# concurrent machinery.
sweep-race:
	$(GO) test -race -count=1 ./internal/experiment -run 'TestSweep|TestRunContext|TestRunParallel'

# Fault-injection smoke: a short fault panel sweeps under the race
# detector (TestSweepFault*), the self-healing provisioner's fault
# tests run under -race, and the committed fault panel runs end to end
# through -spec.
fault-smoke:
	$(GO) test -race -count=1 ./internal/experiment -run 'TestSweepFault'
	$(GO) test -race -count=1 ./internal/provision -run 'TestRetry|TestCrash|TestBootFailure|TestStaleBoot|TestTransientRelease|TestGracefulDegradation|TestReactivated|TestCeiling'
	$(GO) run ./cmd/vmprovsim -spec examples/specs/web_fault_panel.json > /dev/null

# Chaos smoke: the correlated failure-domain suite — breaker, shed, and
# backoff unit tests plus the chaos panel's determinism, invariant, and
# mid-outage snapshot properties — under the race detector, then a short
# -chaos run whose per-replication invariant checks gate the process.
chaos-smoke:
	$(GO) test -race -count=1 ./internal/provision -run 'TestBreaker|TestShed|TestAllZonesOpen|TestRetryBackoff|TestRetryPolicyValidate|TestBreakerAndShedPolicyValidate'
	$(GO) test -race -count=1 ./internal/experiment -run 'TestChaos|TestSweepChaos'
	$(GO) run ./cmd/vmprovsim -chaos -chaosscale 0.02 -chaosreps 1 -chaoshorizon 3600 > /dev/null

# Short fuzzing of the kernel's heap/arena against the reference
# scheduler, the fault-schedule determinism fuzzer, and the strict v2
# trace decoder (decode/re-encode round-trip). The seed corpora also run
# on every plain `go test`.
fuzz:
	$(GO) test ./internal/sim -run FuzzSimHeap -fuzz FuzzSimHeap -fuzztime $(FUZZTIME)
	$(GO) test ./internal/experiment -run FuzzFaultSchedule -fuzz FuzzFaultSchedule -fuzztime $(FUZZTIME)
	$(GO) test ./internal/experiment -run FuzzChaosSchedule -fuzz FuzzChaosSchedule -fuzztime $(FUZZTIME)
	$(GO) test ./internal/experiment -run FuzzSnapshotRestore -fuzz FuzzSnapshotRestore -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run FuzzTraceV2Decode -fuzz FuzzTraceV2Decode -fuzztime $(FUZZTIME)

# Exercise the kernel throughput benchmark end to end (web scenario,
# scales 0.1 and 1.0, one simulated hour each); the report goes to a
# scratch path so the committed record is untouched.
bench-smoke:
	$(GO) run ./cmd/vmprovsim -benchkernel $(BENCHTMP)

# Exercise the sweep benchmark end to end at a tiny panel size; the
# report goes to a scratch path so the committed record is untouched.
# Also runs the declarative-spec test suite (spec/panel/policy-registry
# compilation and the spec-vs-RunAll equivalence property).
sweep-smoke:
	$(GO) run ./cmd/vmprovsim -benchsweep $(SWEEPTMP) -sweephorizon 1800 -sweepreps 1 -sweeptries 1
	$(GO) test -count=1 ./internal/experiment -run 'TestSpec|TestPanel|TestPaperPanel|TestResolve|TestGoldenSpec|TestScenarioSpec'

# Spec round-trip gate: the committed golden panel files must equal a
# fresh -dumpspec, reload, and compile (TestGoldenSpecFiles), the
# committed golden trace must equal a fresh -record (TestGoldenTraceFile),
# a dumped panel must run end to end through -spec, and the committed
# multi-client panel must run with its per-client breakdown.
spec-roundtrip:
	$(GO) test -count=1 ./internal/experiment -run 'TestGoldenSpecFiles|TestGoldenTraceFile|TestPaperPanelRoundTrip'
	$(GO) run ./cmd/vmprovsim -dumpspec scientific -scale 0.2 -reps 1 > $(SPECTMP)
	$(GO) run ./cmd/vmprovsim -spec $(SPECTMP) > /dev/null
	$(GO) run ./cmd/vmprovsim -spec examples/specs/web_multiclient_panel.json > /dev/null

# Hybrid fast-forward smoke: the hybrid engine's unit and equivalence
# tests (accuracy within metrics.HybridTolerance, determinism across
# worker counts, bit-exact -mode=exact), then a reduced -benchff run —
# which itself fails if any policy's hybrid aggregate leaves the
# declared tolerance. The report goes to a scratch path; the committed
# BENCH_ff.json is regenerated by bench-ff.
ff-smoke:
	$(GO) test -count=1 ./internal/fluid ./internal/experiment -run 'TestEngine|TestHybrid|TestMode'
	$(GO) run ./cmd/vmprovsim -benchff $(FFTMP) -ffreps 1

# Snapshot/restore smoke: the bit-identity property suite (exact +
# hybrid + fault-enabled + MPC, nested stacks, checkpoint forks, worker
# counts 1/4/8 with pooled contexts, the traced MPC run) and the MPC
# branch-and-bound exactness suite (pruned vs exhaustive decisions) under
# the race detector, the federation snapshot tests, and a reduced
# -benchmpc run — which itself fails if the MPC policy loses to every
# baseline on its own objective.
snapshot-smoke:
	$(GO) test -race -count=1 ./internal/experiment ./internal/mpc -run 'TestSnapshot|TestCheckpoint|TestMPC'
	$(GO) test -race -count=1 ./internal/cloud -run 'TestFederation'
	$(GO) run ./cmd/vmprovsim -benchmpc $(MPCTMP) -mpcscale 0.02 -mpcreps 1

# The perfbench module (its own go.mod, importing this tree's internal
# packages): BENCHMARK.json must match the benchmark's workload and metric
# catalog, and the driver must reproduce the committed BENCH_kernel
# event/request counts, the BENCH_ff exact/hybrid event counts and the
# BENCH_mpc objective.
perfbench-test:
	$(GO) -C perfbench test .

# Full benchmark sweep with allocation stats (slow; not part of ci).
bench:
	$(GO) test -run xxx -bench . -benchmem .

# Regenerate the committed kernel throughput record.
bench-kernel:
	$(GO) run ./cmd/vmprovsim -benchkernel $(BENCHOUT)

# Regenerate the committed sweep benchmark record at full panel size
# (web scale 0.1, 6 h horizon, 10 reps; slow).
bench-sweep:
	$(GO) run ./cmd/vmprovsim -benchsweep $(SWEEPOUT) -sweepbaseline BENCH_sweep_prechange.json

# Guard against regressions on every committed benchmark trajectory:
# regenerate each report fresh and diff it against the committed record
# with benchdiff (which auto-detects the sweep / ff / mpc / chaos
# formats) — sweep gates replication throughput, ff gates the hybrid
# speedup and accuracy contract, mpc gates each policy's cost + QoS
# objective, chaos gates per-tier availability and zone MTTR.
bench-compare:
	$(GO) run ./cmd/vmprovsim -benchsweep $(SWEEPTMP) -sweepbaseline BENCH_sweep_prechange.json
	$(GO) run ./cmd/benchdiff -old $(SWEEPOUT) -new $(SWEEPTMP) -tolerance 0.20
	$(GO) run ./cmd/vmprovsim -benchff $(FFTMP)
	$(GO) run ./cmd/benchdiff -old $(FFOUT) -new $(FFTMP) -tolerance 0.20
	$(GO) run ./cmd/vmprovsim -benchmpc $(MPCTMP)
	$(GO) run ./cmd/benchdiff -old $(MPCOUT) -new $(MPCTMP) -tolerance 0.20
	$(GO) run ./cmd/vmprovsim -benchchaos $(CHAOSTMP)
	$(GO) run ./cmd/benchdiff -old $(CHAOSOUT) -new $(CHAOSTMP) -tolerance 0.20

# Regenerate the committed hybrid fast-forward record: the 6-hour web
# panel, exact vs hybrid, 3 reps per policy.
bench-ff:
	$(GO) run ./cmd/vmprovsim -benchff $(FFOUT)

# Regenerate the committed model-predictive record: the 6-hour web-mpc
# panel (mpc:600 vs adaptive vs the static ladder), 3 reps per policy.
bench-mpc:
	$(GO) run ./cmd/vmprovsim -benchmpc $(MPCOUT)

# Regenerate the committed chaos resilience record: the 2-hour web-chaos
# panel up the full fault-intensity ladder, 3 reps per tier.
bench-chaos:
	$(GO) run ./cmd/vmprovsim -benchchaos $(CHAOSOUT)

# Re-pin the kernel golden file after a DELIBERATE semantic change to
# event ordering or RNG stream layout. Never run to silence a failure.
golden:
	$(GO) test ./internal/experiment -run TestKernelGolden -update-kernel-golden
