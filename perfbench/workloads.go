package main

import (
	"fmt"

	"vmprov/internal/experiment"
	"vmprov/internal/metrics"
)

// workloadDef is one benchmark workload. Every workload is open loop in
// simulated time: arrivals follow the workload model's schedule however
// fast the host runs the simulator. On the host a run is a batch job.
//
// A run's inputs are a quality set of K units whose seeds derive from the
// benchmark's --seed. A unit is the work timed as one piece: one
// replication, or for a sweep workload the whole panel at one seed. The
// timed loop cycles through the quality set until the run's time is up;
// the simulated metrics come from the first pass only, so they are a pure
// function of the seed, and every later pass must repeat them exactly.
type workloadDef struct {
	name string
	why  string // one line, as in BENCHMARK.json

	k       int // units in the quality set
	workers int // 1: RunContext.Setup/RunUntil/Finish; >1: experiment.Sweep

	// panel returns the spec of the unit at one replication seed.
	panel func(seed uint64) (experiment.PanelSpec, error)

	// hybrid marks a workload whose simulated metrics are checked against
	// the same panel run in exact mode.
	hybrid bool
	// chaos marks a workload whose replications must satisfy
	// experiment.CheckChaosInvariants.
	chaos bool

	// What -describe records about the input.
	scale    float64
	horizonS float64
	loop     string
}

// unitSeed is the replication seed of quality-set unit i. Distinct
// benchmark seeds give disjoint replication seeds.
func (d *workloadDef) unitSeed(seed uint64, i int) uint64 {
	return seed*uint64(d.k) + uint64(i)
}

// webSpec is the paper's web scenario at one scale and horizon.
func webSpec(scale, horizon float64) (experiment.ScenarioSpec, error) {
	sp, err := experiment.BuildScenarioSpec("web", scale)
	if err != nil {
		return sp, err
	}
	sp.Horizon = horizon
	return sp, nil
}

var workloads = []*workloadDef{
	{
		name:     "web-exact",
		why:      "Web at the paper's intensity, adaptive, exact mode: a wide event heap, so kernel, web batch generation and dispatch do the work.",
		k:        32,
		workers:  1,
		scale:    1,
		horizonS: 3600,
		loop:     "open loop in simulated time (about 1.9 M requests per replication); one replication per unit on one worker",
		panel: func(seed uint64) (experiment.PanelSpec, error) {
			sp, err := webSpec(1, 3600)
			return experiment.PanelSpec{
				Name:      "web-exact",
				Scenarios: []experiment.ScenarioSpec{sp},
				Policies:  []string{"adaptive"},
				Seed:      seed,
			}, err
		},
	},
	{
		name:     "web-hybrid",
		why:      "Figure 5 web panel in hybrid mode via Sweep on 2 workers: the fluid engine replaces most kernel events; many short Setup/Reset cycles.",
		k:        16,
		workers:  2,
		hybrid:   true,
		scale:    0.05,
		horizonS: 6 * 3600,
		loop:     "open loop in simulated time (about 0.74 M requests per replication); one unit is the 6-policy panel at one seed, swept on 2 workers",
		panel: func(seed uint64) (experiment.PanelSpec, error) {
			return experiment.HybridPanel(0.05, 1, seed)
		},
	},
	{
		name:     "web-mpc",
		why:      "mpc:600 on web, exact mode: five 600 s lookaheads every 300 s cycle, so snapshot, restore and replay from a narrow heap dominate.",
		k:        24,
		workers:  1,
		scale:    0.05,
		horizonS: 3 * 3600,
		loop:     "open loop in simulated time (about 0.37 M requests and 36 decisions per replication); one replication per unit on one worker",
		panel:    mpcPanel(3 * 3600),
	},
	{
		name:     "web-chaos",
		why:      "web-chaos storm tier: three SLO classes on a three-zone federation under outages, brownouts and crash storms; the failure path.",
		k:        32,
		workers:  1,
		chaos:    true,
		scale:    0.05,
		horizonS: 7200,
		loop:     "open loop in simulated time (about 0.14 M requests per replication); one replication per unit on one worker",
		panel: func(seed uint64) (experiment.PanelSpec, error) {
			ps, err := experiment.ChaosPanel(0, 1, seed)
			if err != nil {
				return ps, err
			}
			for _, sp := range ps.Scenarios {
				if sp.Name == "web-chaos-storm" {
					ps.Scenarios = []experiment.ScenarioSpec{sp}
					return ps, nil
				}
			}
			return ps, fmt.Errorf("chaos panel has no storm tier")
		},
	},
}

// mpcPanel is web-mpc's unit at a given horizon: mpc:600 on web at scale
// 0.05, exact mode.
func mpcPanel(horizon float64) func(seed uint64) (experiment.PanelSpec, error) {
	return func(seed uint64) (experiment.PanelSpec, error) {
		sp, err := webSpec(0.05, horizon)
		sp.Name = "web-mpc"
		return experiment.PanelSpec{
			Name:      "web-mpc",
			Scenarios: []experiment.ScenarioSpec{sp},
			Policies:  []string{"mpc:600"},
			Seed:      seed,
		}, err
	}
}

func findWorkload(name string) (*workloadDef, error) {
	for _, d := range workloads {
		if d.name == name {
			return d, nil
		}
	}
	names := make([]string, len(workloads))
	for i, d := range workloads {
		names[i] = d.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// compileUnits compiles the quality set's panels.
func (d *workloadDef) compileUnits(seed uint64) ([]*experiment.Panel, error) {
	out := make([]*experiment.Panel, d.k)
	for i := range out {
		ps, err := d.panel(d.unitSeed(seed, i))
		if err != nil {
			return nil, err
		}
		if out[i], err = ps.Compile(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// exactReference runs the quality set's panels in exact mode and returns
// each policy row aggregated over the set. It is the hybrid workload's
// accuracy reference and runs outside the timed loop.
func (d *workloadDef) exactReference(seed uint64) ([]metrics.Result, error) {
	seeds := make([]uint64, d.k)
	for i := range seeds {
		seeds[i] = d.unitSeed(seed, i)
	}
	return d.exactReferenceAt(seeds...)
}

// exactReferenceAt is exactReference over explicit replication seeds.
func (d *workloadDef) exactReferenceAt(seeds ...uint64) ([]metrics.Result, error) {
	var rows [][]metrics.Result
	for _, seed := range seeds {
		ps, err := d.panel(seed)
		if err != nil {
			return nil, err
		}
		ps.Mode = experiment.ModeExact
		p, err := ps.Compile()
		if err != nil {
			return nil, err
		}
		rows = append(rows, experiment.Sweep(p.Jobs(), experiment.SweepOptions{Workers: d.workers}))
	}
	return aggregateRows(rows), nil
}

// aggregateRows aggregates each policy row (job index) over the units.
func aggregateRows(units [][]metrics.Result) []metrics.Result {
	if len(units) == 0 {
		return nil
	}
	out := make([]metrics.Result, len(units[0]))
	col := make([]metrics.Result, len(units))
	for j := range out {
		for i, u := range units {
			col[i] = u[j]
		}
		out[j] = metrics.Aggregate(col)
	}
	return out
}

// objective is the cost-plus-QoS score of one aggregated row: VM-seconds
// plus QoS violations, rejections and crash-lost requests, the score the
// MPC controller minimizes.
func objective(r metrics.Result) float64 {
	return r.VMHours*3600 + float64(r.Violations+r.Rejected+r.RequestsLost)
}

// tolUsed is the smallest multiple of metrics.HybridTolerance within
// which hybrid agrees with exact on every figure-table metric: above 1
// the hybrid row leaves its declared accuracy contract.
func tolUsed(exact, hybrid metrics.Result) float64 {
	base := metrics.HybridTolerance()
	scaled := func(f float64) metrics.Tolerance {
		t := base
		t.RespRel *= f
		t.RespAbs *= f
		t.RejRel *= f
		t.RejAbs *= f
		t.CountRel *= f
		t.CountAbs *= f
		t.UtilAbs *= f
		t.InstAbs *= f
		t.VMRel *= f
		return t
	}
	hi := 1.0
	for !metrics.CloseTo(exact, hybrid, scaled(hi)) {
		hi *= 2
		if hi > 1e9 {
			return hi // not close at any scale, e.g. mismatched policies
		}
	}
	lo := 0.0
	for i := 0; i < 64; i++ {
		mid := (lo + hi) / 2
		if metrics.CloseTo(exact, hybrid, scaled(mid)) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// checkReplication applies the per-replication correctness checks.
func (d *workloadDef) checkReplication(job experiment.Job, r metrics.Result) error {
	if got := r.Accepted + r.Rejected + r.RequestsLost + r.InFlight; got != r.Arrived {
		return fmt.Errorf("%s %s seed %d: conservation violated: arrived %d, accounted %d",
			job.Scenario.Name, job.Policy.Name, job.Seed, r.Arrived, got)
	}
	if d.chaos {
		if err := experiment.CheckChaosInvariants(r, job.Scenario.Horizon); err != nil {
			return fmt.Errorf("%s seed %d: %w", job.Scenario.Name, job.Seed, err)
		}
	}
	return nil
}
