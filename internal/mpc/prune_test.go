package mpc_test

import (
	"slices"
	"testing"

	"vmprov/internal/experiment"
	"vmprov/internal/metrics"
	"vmprov/internal/mpc"
	"vmprov/internal/provision"
	"vmprov/internal/stats"
	"vmprov/internal/trace"
	"vmprov/internal/workload"
)

// decision is one committed sizing decision: when, and to what target.
type decision struct {
	t float64
	m int
}

// decisionLog records the KindScale events a provisioner emits. The
// controller commits exactly one per cycle, and every other event kind
// is dropped.
type decisionLog []decision

func (l *decisionLog) Record(e trace.Event) {
	if e.Kind == trace.KindScale {
		*l = append(*l, decision{e.T, e.Count})
	}
}

// loggedController binds its controller to the world and then installs
// the decision log on the provisioner. It is installed after Setup has
// chosen the run's mode, so a hybrid run stays hybrid.
type loggedController struct {
	*mpc.Controller
	log *decisionLog
}

func (c *loggedController) BindWorld(w mpc.World, la *stats.RNG) {
	c.Controller.BindWorld(w, la)
	w.(*experiment.World).Provisioner().SetTracer(c.log)
}

// loggedJobs returns one job per seed running pol on sc, each logging its
// decisions into its own slot of the returned logs.
func loggedJobs(sc experiment.Scenario, pol experiment.Policy, seeds []uint64) ([]experiment.Job, []decisionLog) {
	logs := make([]decisionLog, len(seeds))
	jobs := make([]experiment.Job, len(seeds))
	for i, seed := range seeds {
		p, log := pol, &logs[i]
		p.Build = func(sc experiment.Scenario, src workload.Source) (provision.Controller, workload.Analyzer) {
			ctrl, an := pol.Build(sc, src)
			return &loggedController{Controller: ctrl.(*mpc.Controller), log: log}, an
		}
		jobs[i] = experiment.Job{Scenario: sc, Policy: p, Seed: seed}
	}
	return jobs, logs
}

// pruneScenarios covers the regimes the bound treats differently: a
// reliable fleet in exact and hybrid mode (floor = Committed), a
// fault-injected fleet (floor = 0), and the chaos storm tier (zone
// outages and crash storms on a federation).
func pruneScenarios(t *testing.T) map[string]experiment.Scenario {
	t.Helper()
	web := experiment.Web(0.05)
	web.Horizon = 3600
	hybrid := web
	hybrid.Mode = experiment.ModeHybrid
	fp, err := experiment.FaultPanel(0.05, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	faultSp := fp.Scenarios[1] // the 2 h MTTF rung
	faultSp.Horizon = 3600
	cp, err := experiment.ChaosPanel(0.02, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	stormSp := cp.Scenarios[len(cp.Scenarios)-1]
	stormSp.Horizon = 3600
	out := map[string]experiment.Scenario{"web-exact": web, "web-hybrid": hybrid}
	for name, sp := range map[string]experiment.ScenarioSpec{"web-fault": faultSp, "chaos-storm": stormSp} {
		sc, err := sp.Compile()
		if err != nil {
			t.Fatal(err)
		}
		out[name] = sc
	}
	return out
}

// TestMPCPruneExact: the branch-and-bound controller commits the same
// target at every cycle as one that plays every candidate to the
// horizon, so whole runs are bit-identical, on every scenario regime
// and at sweep worker counts 1 and 4.
func TestMPCPruneExact(t *testing.T) {
	pol, err := experiment.ResolvePolicy("mpc:600")
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{3, 11, 29}
	scs := pruneScenarios(t)
	for _, name := range []string{"web-exact", "web-hybrid", "web-fault", "chaos-storm"} {
		sc := scs[name]
		t.Run(name, func(t *testing.T) {
			mpc.SetExhaustive(true)
			refJobs, refLogs := loggedJobs(sc, pol, seeds)
			ref := experiment.Sweep(refJobs, experiment.SweepOptions{Workers: 1})
			mpc.SetExhaustive(false)
			for _, workers := range []int{1, 4} {
				jobs, logs := loggedJobs(sc, pol, seeds)
				got := experiment.Sweep(jobs, experiment.SweepOptions{Workers: workers})
				for i, seed := range seeds {
					if len(refLogs[i]) < 2 {
						t.Fatalf("seed %d: degenerate run with %d decisions", seed, len(refLogs[i]))
					}
					if !slices.Equal(logs[i], refLogs[i]) {
						t.Fatalf("workers=%d seed %d: pruned decisions differ from exhaustive:\ngot:  %v\nwant: %v",
							workers, seed, logs[i], refLogs[i])
					}
					if !metrics.Equal(got[i], ref[i]) {
						t.Fatalf("workers=%d seed %d: pruned result differs from exhaustive:\ngot:  %+v\nwant: %+v",
							workers, seed, got[i], ref[i])
					}
				}
			}
		})
	}
}
