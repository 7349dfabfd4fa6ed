package workload

import (
	"vmprov/internal/sim"
	"vmprov/internal/stats"
)

// PoissonSource is a stationary Poisson arrival process with the given
// Rate and i.i.d. service times, used by tests (where it makes simulated
// stations directly comparable to the closed-form M/M/1/k models) and
// available for custom scenarios.
type PoissonSource struct {
	Rate    float64       // arrivals per second
	Service stats.Sampler // service-time distribution
	Horizon float64       // stop generating after this time (0 = never)

	ids counter
}

// MeanRate returns the constant rate.
func (p *PoissonSource) MeanRate(float64) float64 { return p.Rate }

// Start schedules the exponential interarrival chain. The chain never
// cancels its pending arrival, so its callback is interned once with
// RegisterFire and every arrival reschedules it through ScheduleFire,
// which costs no arena slot.
func (p *PoissonSource) Start(s *sim.Sim, r *stats.RNG, emit func(Request)) {
	if p.Rate <= 0 {
		return
	}
	arr := r.Split("poisson/arrivals")
	svc := r.Split("poisson/service")
	var fire sim.FireID
	fire = s.RegisterFire(func(any) {
		now := s.Now()
		if p.Horizon > 0 && now >= p.Horizon {
			return
		}
		emit(Request{ID: p.ids.next(), Arrival: now, Service: p.Service.Sample(svc)})
		s.ScheduleFire(arr.ExpFloat64()/p.Rate, fire)
	}, nil)
	s.ScheduleFire(arr.ExpFloat64()/p.Rate, fire)
}

// Snapshot implements Rewindable; the arrival chain's only mutable state
// outside the kernel and RNG tree is the ID counter.
func (p *PoissonSource) Snapshot(store any) any { return snapshotCounter(store, p.ids) }

// Restore implements Rewindable.
func (p *PoissonSource) Restore(store any) { p.ids = store.(*counterSnap).ids }

// TraceSource replays a fixed list of requests, e.g. one captured from a
// production system or another generator. Requests need not be sorted.
type TraceSource struct {
	Requests []Request

	wk *batchWalker // the replay walker, retained for snapshot/restore
}

// MeanRate returns the trace's overall average rate.
func (ts *TraceSource) MeanRate(float64) float64 {
	if len(ts.Requests) == 0 {
		return 0
	}
	var maxT float64
	for _, q := range ts.Requests {
		if q.Arrival > maxT {
			maxT = q.Arrival
		}
	}
	if maxT == 0 {
		return 0
	}
	return float64(len(ts.Requests)) / maxT
}

// Start replays the trace through a single walking kernel event instead
// of one event per request, so replaying a production-sized trace does
// not materialize the whole trace in the pending set. The replay sorts
// 24-byte records indexing Requests rather than a copy of the requests
// themselves, so Requests must not change while the replay runs.
func (ts *TraceSource) Start(s *sim.Sim, _ *stats.RNG, emit func(Request)) {
	if len(ts.Requests) == 0 {
		return
	}
	ts.wk = newBatchWalker(s, emit)
	ts.wk.startTrace(ts.Requests)
}

// traceSnap holds a trace replay's captured position. The replay batch is
// immutable after the initial sort, so the snapshot is O(1): only the
// walker's cursor needs saving.
type traceSnap struct{ idx int }

// Snapshot implements Rewindable.
func (ts *TraceSource) Snapshot(store any) any {
	sn, _ := store.(*traceSnap)
	if sn == nil {
		sn = new(traceSnap)
	}
	if ts.wk != nil {
		sn.idx = ts.wk.idx
	}
	return sn
}

// Restore implements Rewindable.
func (ts *TraceSource) Restore(store any) {
	if ts.wk != nil {
		ts.wk.idx = store.(*traceSnap).idx
	}
}

// StepSource produces Poisson arrivals whose rate is piecewise constant:
// Rates[i] applies from Times[i] until Times[i+1] (the last rate runs to
// the horizon). It is the workhorse of the provisioning unit tests, where
// a known rate change must provoke a known scaling decision.
type StepSource struct {
	Times   []float64 // ascending step boundaries, Times[0] == 0
	Rates   []float64 // rate in effect from Times[i]
	Service stats.Sampler
	Horizon float64

	ids counter
}

// MeanRate returns the rate in effect at time t.
func (ss *StepSource) MeanRate(t float64) float64 {
	rate := 0.0
	for i, start := range ss.Times {
		if t >= start {
			rate = ss.Rates[i]
		}
	}
	return rate
}

// Start schedules a rate-modulated exponential chain (thinning is not
// needed because the rate is piecewise constant: the chain re-reads the
// current rate after every arrival and at every boundary). Arrivals
// reschedule the interned callback through ScheduleFire; the idle
// wake-up stays on the arena path at the absolute boundary, because
// now+(b−now) need not equal b bit for bit.
func (ss *StepSource) Start(s *sim.Sim, r *stats.RNG, emit func(Request)) {
	arr := r.Split("step/arrivals")
	svc := r.Split("step/service")
	var next func(any)
	var fire sim.FireID
	schedule := func() {
		rate := ss.MeanRate(s.Now())
		if rate <= 0 {
			// Idle segment: wake up at the next boundary.
			for _, b := range ss.Times {
				if b > s.Now() {
					s.AtFunc(b, next, nil)
					return
				}
			}
			return
		}
		s.ScheduleFire(arr.ExpFloat64()/rate, fire)
	}
	next = func(any) {
		now := s.Now()
		if ss.Horizon > 0 && now >= ss.Horizon {
			return
		}
		// An arrival scheduled under the previous rate may land after a
		// boundary; that is exactly how a modulated Poisson process
		// behaves for small boundary overshoot and is immaterial to the
		// tests. Emit and continue under the current rate.
		emit(Request{ID: ss.ids.next(), Arrival: now, Service: ss.Service.Sample(svc)})
		schedule()
	}
	fire = s.RegisterFire(next, nil)
	schedule()
}

// Snapshot implements Rewindable; the chain's only mutable state outside
// the kernel and RNG tree is the ID counter.
func (ss *StepSource) Snapshot(store any) any { return snapshotCounter(store, ss.ids) }

// Restore implements Rewindable.
func (ss *StepSource) Restore(store any) { ss.ids = store.(*counterSnap).ids }

// OracleAnalyzer is an Analyzer for StepSource-like sources: it alerts
// with the exact mean rate at every supplied change point. Used in tests
// to isolate the load predictor from prediction error.
type OracleAnalyzer struct {
	Source Source
	Times  []float64 // alert instants; an initial t=0 alert is implied
}

// Start emits MeanRate at time zero and at each change point.
func (o *OracleAnalyzer) Start(s *sim.Sim, alert func(lambda float64)) {
	alert(o.Source.MeanRate(0))
	st := &oracleAlertState{o: o, s: s, alert: alert}
	for _, t := range o.Times {
		if t <= 0 {
			continue
		}
		s.AtFunc(t, fireOracleAlert, st)
	}
}

// oracleAlertState carries the analyzer and its sink to the shared
// change-point callback; the fire time is read back from the kernel,
// which stores it exactly.
type oracleAlertState struct {
	o     *OracleAnalyzer
	s     *sim.Sim
	alert func(lambda float64)
}

func fireOracleAlert(arg any) {
	st := arg.(*oracleAlertState)
	st.alert(st.o.Source.MeanRate(st.s.Now()))
}
