package main

import (
	"math"
	"testing"

	"vmprov/internal/metrics"
)

func mustWorkload(t *testing.T, name string) *workloadDef {
	t.Helper()
	d, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runQuality runs a workload's units at the given replication seeds and
// returns each policy row aggregated over them, exactly as the benchmark
// aggregates its quality set.
func runQuality(t *testing.T, d *workloadDef, seeds ...uint64) []metrics.Result {
	t.Helper()
	r := newRunner(d, nil, false)
	var units [][]metrics.Result
	for _, seed := range seeds {
		ps, err := d.panel(seed)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ps.Compile()
		if err != nil {
			t.Fatal(err)
		}
		r.add(p)
		hs := startHeapSampler()
		ur := r.runUnit(len(r.jobs)-1, hs)
		hs.stop()
		for j, res := range ur.results {
			if err := d.checkReplication(r.jobs[len(r.jobs)-1][j], res); err != nil {
				t.Error(err)
			}
		}
		units = append(units, ur.results)
	}
	return aggregateRows(units)
}

func sumEvents(rows []metrics.Result) uint64 {
	var n uint64
	for _, r := range rows {
		n += r.Events
	}
	return n
}

// The committed bench records were measured by the simulator's older
// bench modes. At the records' settings the benchmark's workloads must
// reproduce their simulated counts exactly, so the records can retire in
// favour of this benchmark.

// BENCH_kernel.json: web at scale 1, one hour, seed 1.
func TestLegacyKernelRecord(t *testing.T) {
	rows := runQuality(t, mustWorkload(t, "web-exact"), 1)
	if got := rows[0].Events; got != 3846846 {
		t.Errorf("events = %d, want 3846846", got)
	}
	if got := rows[0].Accepted + rows[0].Rejected; got != 1923369 {
		t.Errorf("requests = %d, want 1923369", got)
	}
}

// BENCH_ff.json: the hybrid web panel, 3 replications from seed 1, in
// exact and in hybrid mode.
func TestLegacyFastForwardRecord(t *testing.T) {
	d := mustWorkload(t, "web-hybrid")
	exact, err := d.exactReferenceAt(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := sumEvents(exact); got != 8647752 {
		t.Errorf("exact events = %d, want 8647752", got)
	}
	if got := sumEvents(runQuality(t, d, 1, 2, 3)); got != 1087270 {
		t.Errorf("hybrid events = %d, want 1087270", got)
	}
}

// BENCH_mpc.json: MPC-600 on web at scale 0.05, six hours (web-mpc's
// unit at twice its horizon), 3 replications from seed 1.
func TestLegacyMPCRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("about 5 s of simulation")
	}
	d := *mustWorkload(t, "web-mpc")
	d.panel = mpcPanel(6 * 3600)
	rows := runQuality(t, &d, 1, 2, 3)
	if got := objective(rows[0]); math.Abs(got-114894.02305090844) > 1e-6 {
		t.Errorf("MPC-600 objective = %.8f, want 114894.02305090844", got)
	}
}
