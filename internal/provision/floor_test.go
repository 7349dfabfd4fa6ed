package provision

import (
	"testing"

	"vmprov/internal/cloud"
	"vmprov/internal/metrics"
	"vmprov/internal/sim"
	"vmprov/internal/stats"
	"vmprov/internal/workload"
)

// TestFleetFloorHoldsUntilNextSetTarget is the property the MPC
// lookahead bound rests on: on a provisioner with no fault model, once
// FleetFloor has reported f, the live instance count stays at or above f
// until the next SetTarget. Random targets under steady load exercise
// scale-downs that drain busy instances (which retire when empty, or are
// reclaimed by a later scale-up), boot delays, and scale-ups that a
// six-VM data center cuts short, healed by backoff retries as drained
// VMs free capacity.
func TestFleetFloorHoldsUntilNextSetTarget(t *testing.T) {
	cfg := testCfg()
	cfg.MaxVMs = 12
	cfg.BootDelay = 3
	const horizon = 2000
	var draining, retries, shortfalls bool
	for seed := uint64(1); seed <= 20; seed++ {
		s := sim.New()
		// Two 3-core hosts: six one-core VMs, half of MaxVMs.
		dc := cloud.New(2, cloud.HostSpec{Cores: 3, RAMMB: 3 * cloud.DefaultVMRAM})
		col := metrics.NewCollector(cfg.QoS.Ts)
		p := NewProvisioner(s, dc, cfg, col)
		rng := stats.NewRNG(seed)
		decisions := 0
		for at := 0.0; at < horizon; at += 5 + 20*rng.Float64() {
			m := rng.IntN(cfg.MaxVMs + 1)
			s.At(at, func() { p.SetTarget(m); decisions++ })
		}
		id := uint64(0)
		for at := 0.0; at < horizon; at += rng.ExpFloat64() / 3 {
			id++
			q := workload.Request{ID: id, Arrival: at, Service: 2 * rng.ExpFloat64()}
			s.At(at, func() { p.Submit(q) })
		}

		seen, floor := 0, 0
		for s.Step() {
			if decisions != seen {
				seen, floor = decisions, p.FleetFloor()
				continue
			}
			if n := p.Running(); n < floor {
				t.Fatalf("seed %d t=%v: %d live instances under the floor %d reported since the last SetTarget",
					seed, s.Now(), n, floor)
			}
			floor = max(floor, p.FleetFloor())
			draining = draining || p.numDraining > 0
		}
		res := col.Result("floor", s.Now())
		retries = retries || res.Retries > 0
		shortfalls = shortfalls || p.CapacityShortfalls > 0
	}
	if !draining || !retries || !shortfalls {
		t.Fatalf("property not exercised: draining=%v retries=%v shortfalls=%v", draining, retries, shortfalls)
	}
}

// TestFleetFloorZeroWithFaultModel: with a fault model any instance may
// crash at any moment, so no floor holds.
func TestFleetFloorZeroWithFaultModel(t *testing.T) {
	r := newFaultRig(testCfg(), nil)
	r.p.SetTarget(4)
	if r.p.FleetFloor() != 4 {
		t.Fatalf("reliable floor %d, want Committed() = 4", r.p.FleetFloor())
	}
	r.p.SetFaultModel(&scriptFM{})
	if r.p.FleetFloor() != 0 {
		t.Fatalf("floor %d with a fault model, want 0", r.p.FleetFloor())
	}
}
