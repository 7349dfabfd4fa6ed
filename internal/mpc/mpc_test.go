package mpc

import (
	"testing"

	"vmprov/internal/cloud"
	"vmprov/internal/metrics"
	"vmprov/internal/provision"
	"vmprov/internal/sim"
	"vmprov/internal/stats"
)

// newAttached returns a controller attached to a minimal sim/provisioner
// pair (MaxVMs 20), with defaults resolved.
func newAttached(t *testing.T, horizon float64, cands int) *Controller {
	t.Helper()
	s := sim.New()
	p := provision.NewProvisioner(s, nil, provision.Config{
		QoS:       provision.QoS{Ts: 0.25, RejectionTol: 0.001, MinUtilization: 0.8},
		NominalTr: 0.1,
		MaxVMs:    20,
		BootDelay: 30,
	}, nil)
	c := &Controller{Horizon: horizon, Candidates: cands}
	c.Attach(s, p)
	return c
}

func TestCandidateSet(t *testing.T) {
	cases := []struct {
		base, n int
		want    []int
	}{
		// Near offsets fill first (0, ±1, ±2), ascending.
		{8, 5, []int{6, 7, 8, 9, 10}},
		// Clipping at the floor dedups, so the geometric tail reaches
		// farther up: base 1 cannot shrink.
		{1, 5, []int{1, 2, 3, 5, 9}},
		// Clipping at MaxVMs (20) dedups the upper offsets the same way.
		{19, 5, []int{15, 17, 18, 19, 20}},
		// A tiny budget still includes the base and a neighbor.
		{8, 2, []int{8, 9}},
	}
	for _, c := range cases {
		ctrl := newAttached(t, 600, c.n)
		ctrl.candidates(c.base)
		if len(ctrl.cands) != len(c.want) {
			t.Fatalf("base %d n %d: got %v, want %v", c.base, c.n, ctrl.cands, c.want)
		}
		for i := range c.want {
			if ctrl.cands[i] != c.want[i] {
				t.Fatalf("base %d n %d: got %v, want %v", c.base, c.n, ctrl.cands, c.want)
			}
		}
	}
}

func TestDefaultsAndName(t *testing.T) {
	c := newAttached(t, 600, 0)
	if c.Cycle != 300 {
		t.Fatalf("default cycle %v, want horizon/2", c.Cycle)
	}
	if c.Candidates != 5 {
		t.Fatalf("default candidates %d, want 5", c.Candidates)
	}
	if c.BootPenalty != 30 {
		t.Fatalf("default boot penalty %v, want the provisioner's boot delay", c.BootPenalty)
	}
	if c.CostPerVMSecond != 1 || c.ViolationPenalty != 1 {
		t.Fatalf("default weights %v/%v, want 1/1", c.CostPerVMSecond, c.ViolationPenalty)
	}
	if got := c.Name(); got != "MPC-600" {
		t.Fatalf("name %q, want MPC-600", got)
	}
}

func TestAttachRejectsZeroHorizon(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Attach accepted a zero horizon")
		}
	}()
	newAttached(t, 0, 0)
}

// TestUnboundWorldPanics: running a cycle without a bound world must
// fail loudly — the policy only works through the experiment layer.
func TestUnboundWorldPanics(t *testing.T) {
	s := sim.New()
	p := provision.NewProvisioner(s, nil, provision.Config{
		QoS:       provision.QoS{Ts: 0.25, RejectionTol: 0.001, MinUtilization: 0.8},
		NominalTr: 0.1,
		MaxVMs:    20,
	}, nil)
	c := &Controller{Horizon: 600}
	c.Attach(s, p)
	defer func() {
		if recover() == nil {
			t.Fatal("cycle ran without a bound world")
		}
	}()
	s.RunUntil(1)
}

// scriptedWorld is an mpc.World over a real kernel and provisioner whose
// objective follows a script: candidate m (the provisioner's target)
// has accrued m VM-seconds per second and viol(m, elapsed) violations,
// so scores, bounds, and near-ties are exact and chosen by the test.
type scriptedWorld struct {
	s    *sim.Sim
	dc   *cloud.Datacenter
	p    *provision.Provisioner
	viol func(m int, elapsed float64) uint64

	simSnap  sim.Snapshot
	dcSnap   cloud.DCSnap
	pSnap    provision.PSnap
	t0       float64
	furthest map[int]float64 // latest instant each candidate was scored at
}

func (w *scriptedWorld) Snapshot() {
	w.s.Snapshot(&w.simSnap)
	w.dc.Snapshot(&w.dcSnap)
	w.p.Snapshot(&w.pSnap)
	w.t0 = w.s.Now()
}

func (w *scriptedWorld) Restore() {
	w.s.Restore(&w.simSnap)
	w.dc.Restore(&w.dcSnap)
	w.p.Restore(&w.pSnap)
}

func (w *scriptedWorld) Release()         {}
func (w *scriptedWorld) Perturb(u uint64) {}

func (w *scriptedWorld) Objective(t float64) (violated, rejected, lost uint64, vmSeconds float64) {
	m := w.p.Target()
	w.furthest[m] = max(w.furthest[m], t)
	return w.viol(m, t-w.t0), 0, 0, float64(m) * (t - w.t0)
}

// TestPruneKeepsTiesAndLateWinners: the bound never abandons a candidate
// that would win or tie. Base 8 scores 8·600 = 4800 with no violations.
// Candidates above it are pruned at their first bound check. A candidate
// whose violations arrive early is pruned too, but one that ties the
// incumbent (its bound reaching the incumbent's score mid-horizon) wins
// on the smaller fleet,
// and one that beats it by a single violation accrued at the very end of
// the horizon wins outright — and the exhaustive controller agrees.
func TestPruneKeepsTiesAndLateWinners(t *testing.T) {
	const H = 600.0
	cases := []struct {
		name string
		viol func(m int, elapsed float64) uint64
		want int
	}{
		{"tie-to-smaller", func(m int, el float64) uint64 {
			switch m {
			case 7:
				if el >= H/2 {
					return 600 // 4200 + 600: ties base, bound = score from mid-horizon
				}
			case 6:
				return 1201 // 3600 + 1201: loses by one, known at once
			}
			return 0
		}, 7},
		{"late-winner", func(m int, el float64) uint64 {
			switch m {
			case 7:
				return 601
			case 6:
				if el >= H {
					return 1199 // 3600 + 1199: wins by one, only at the end
				}
			}
			return 0
		}, 6},
	}
	for _, tc := range cases {
		for _, exh := range []bool{false, true} {
			exhaustive = exh
			s := sim.New()
			dc := cloud.New(20, cloud.HostSpec{Cores: 8, RAMMB: 16384})
			p := provision.NewProvisioner(s, dc, provision.Config{
				QoS:       provision.QoS{Ts: 0.25, RejectionTol: 0.001, MinUtilization: 0.8},
				NominalTr: 0.1,
				MaxVMs:    20,
			}, metrics.NewCollector(0.25))
			p.SetTarget(8)
			w := &scriptedWorld{s: s, dc: dc, p: p, viol: tc.viol, furthest: map[int]float64{}}
			c := &Controller{Horizon: H, Candidates: 5, BootPenalty: 30}
			c.Attach(s, p)
			c.BindWorld(w, stats.NewRNG(1))
			s.RunUntil(0)
			exhaustive = false
			if got := p.Target(); got != tc.want {
				t.Fatalf("%s exhaustive=%v: committed %d, want %d", tc.name, exh, got, tc.want)
			}
			for _, m := range []int{9, 10} {
				if pruned := w.furthest[m] < H; pruned == exh {
					t.Fatalf("%s exhaustive=%v: candidate %d scored through t=%v", tc.name, exh, m, w.furthest[m])
				}
			}
		}
	}
}
