package main

import (
	"time"

	"vmprov/internal/experiment"
	"vmprov/internal/mpc"
	"vmprov/internal/provision"
	"vmprov/internal/sim"
	"vmprov/internal/stats"
	"vmprov/internal/workload"
)

// probe collects what crosses the seams of one job while it runs in the
// traced run. The benchmark never reaches inside the simulator: it
// replaces the factories a caller already hands to
// experiment.RunContext.Setup (Scenario.NewSource, Scenario.NewAnalyzer,
// Policy.Build) with wrappers that forward every call and count or time it
// on the way through: the source's emit callback into Provisioner.Submit,
// the hybrid ticker, the analyzer's alert callback (Algorithm 1 plus
// SetTarget), and the world a model-predictive controller binds to.
//
// A probe belongs to one job and is touched only by the goroutine running
// that job; callers read it after the job has finished.
type probe struct {
	alerts []time.Duration // analyzer alert spans
	cycles []time.Duration // MPC cycle spans, Snapshot to Release

	requests  uint64        // emit calls
	timed     uint64        // emit calls timed: every submitEvery-th
	submit    time.Duration // Σ timed emit spans
	ticks     uint64        // Ticker.SampleCount calls
	tickEmits uint64        // Ticker.Emit calls

	snapshots  uint64
	snapshotT  time.Duration
	restores   uint64
	restoreT   time.Duration
	lookaheads uint64
	lookaheadT time.Duration
	laEvents   uint64 // kernel events fired inside lookaheads

	setupT, runT, finishT time.Duration // RunContext.Setup, World.RunUntil, World.Finish
	pendingPeak           int           // largest Sim.Pending() between RunUntil slices

	cycleStart time.Time
	laStart    time.Time
	laFrom     uint64
}

// reset clears the counters before the probe's job runs again.
func (p *probe) reset() {
	*p = probe{alerts: p.alerts[:0], cycles: p.cycles[:0]}
}

// instrument returns a copy of j whose factories route through p.
func instrument(j experiment.Job, p *probe) experiment.Job {
	sc := j.Scenario
	newSource, newAnalyzer := sc.NewSource, sc.NewAnalyzer
	sc.NewSource = func() workload.Source { return wrapSource(newSource(), p) }
	// Analyzer factories may type-assert their source (the web analyzer
	// reads the *workload.Web model), so they get the inner one.
	sc.NewAnalyzer = func(src workload.Source) workload.Analyzer {
		if w, ok := src.(interface{ unwrap() workload.Source }); ok {
			src = w.unwrap()
		}
		return wrapAnalyzer(newAnalyzer(src), p)
	}
	pol := j.Policy
	build := pol.Build
	pol.Build = func(sc experiment.Scenario, src workload.Source) (provision.Controller, workload.Analyzer) {
		ctrl, an := build(sc, src)
		if b, ok := ctrl.(mpc.WorldBinder); ok {
			ctrl = wrapController(ctrl, b, p)
		}
		return ctrl, an
	}
	return experiment.Job{Scenario: sc, Policy: pol, Seed: j.Seed}
}

// submitEvery spaces the timed emit calls. Reading the clock around
// every request would cost more than a Submit, so the mean is estimated
// from a systematic sample; every call is counted.
const submitEvery = 16

// emit wraps the callback a source hands each generated request to.
func (p *probe) emit(next func(workload.Request)) func(workload.Request) {
	return func(q workload.Request) {
		p.requests++
		if p.requests%submitEvery != 0 {
			next(q)
			return
		}
		t0 := time.Now()
		next(q)
		p.submit += time.Since(t0)
		p.timed++
	}
}

// source forwards workload.Source. The variants below add the optional
// interfaces World.Setup and World.Snapshot type-assert, so a wrapped
// source takes exactly the code path the bare one would.
type source struct {
	inner workload.Source
	p     *probe
}

func (w *source) unwrap() workload.Source { return w.inner }

func (w *source) Start(s *sim.Sim, r *stats.RNG, emit func(workload.Request)) {
	w.inner.Start(s, r, w.p.emit(emit))
}

func (w *source) MeanRate(t float64) float64 { return w.inner.MeanRate(t) }

func (w *source) snapshot(store any) any { return w.inner.(workload.Rewindable).Snapshot(store) }
func (w *source) restore(store any)      { w.inner.(workload.Rewindable).Restore(store) }

func (w *source) tickInterval() float64 {
	return w.inner.(workload.FluidSource).TickInterval()
}

func (w *source) newTicker(s *sim.Sim, r *stats.RNG, emit func(workload.Request)) workload.Ticker {
	return &ticker{inner: w.inner.(workload.FluidSource).NewTicker(s, r, w.p.emit(emit)), p: w.p}
}

type rewSource struct{ *source }

func (w rewSource) Snapshot(store any) any { return w.snapshot(store) }
func (w rewSource) Restore(store any)      { w.restore(store) }

type fluidSource struct{ *source }

func (w fluidSource) TickInterval() float64 { return w.tickInterval() }
func (w fluidSource) NewTicker(s *sim.Sim, r *stats.RNG, emit func(workload.Request)) workload.Ticker {
	return w.newTicker(s, r, emit)
}

type fluidRewSource struct{ *source }

func (w fluidRewSource) Snapshot(store any) any { return w.snapshot(store) }
func (w fluidRewSource) Restore(store any)      { w.restore(store) }
func (w fluidRewSource) TickInterval() float64  { return w.tickInterval() }
func (w fluidRewSource) NewTicker(s *sim.Sim, r *stats.RNG, emit func(workload.Request)) workload.Ticker {
	return w.newTicker(s, r, emit)
}

func wrapSource(inner workload.Source, p *probe) workload.Source {
	w := &source{inner: inner, p: p}
	_, rew := inner.(workload.Rewindable)
	_, fluid := inner.(workload.FluidSource)
	switch {
	case rew && fluid:
		return fluidRewSource{w}
	case fluid:
		return fluidSource{w}
	case rew:
		return rewSource{w}
	}
	return w
}

// ticker counts the hybrid engine's per-tick calls: every tick samples a
// count, and only probe ticks emit discrete requests.
type ticker struct {
	inner workload.Ticker
	p     *probe
}

func (t *ticker) SampleCount(now float64) int {
	t.p.ticks++
	return t.inner.SampleCount(now)
}

func (t *ticker) Emit(now float64, n int) {
	t.p.tickEmits++
	t.inner.Emit(now, n)
}

// analyzer times the alert callback: the load predictor and performance
// modeler running Algorithm 1, then Provisioner.SetTarget.
type analyzer struct {
	inner workload.Analyzer
	p     *probe
}

func (a *analyzer) Start(s *sim.Sim, alert func(lambda float64)) {
	a.inner.Start(s, func(lambda float64) {
		t0 := time.Now()
		alert(lambda)
		a.p.alerts = append(a.p.alerts, time.Since(t0))
	})
}

func (a *analyzer) observe(t float64)      { a.inner.(workload.ObservingAnalyzer).Observe(t) }
func (a *analyzer) snapshot(store any) any { return a.inner.(workload.Rewindable).Snapshot(store) }
func (a *analyzer) restore(store any)      { a.inner.(workload.Rewindable).Restore(store) }

type rewAnalyzer struct{ *analyzer }

func (a rewAnalyzer) Snapshot(store any) any { return a.snapshot(store) }
func (a rewAnalyzer) Restore(store any)      { a.restore(store) }

type obsAnalyzer struct{ *analyzer }

func (a obsAnalyzer) Observe(t float64) { a.observe(t) }

type obsRewAnalyzer struct{ *analyzer }

func (a obsRewAnalyzer) Observe(t float64)      { a.observe(t) }
func (a obsRewAnalyzer) Snapshot(store any) any { return a.snapshot(store) }
func (a obsRewAnalyzer) Restore(store any)      { a.restore(store) }

func wrapAnalyzer(inner workload.Analyzer, p *probe) workload.Analyzer {
	if inner == nil {
		return nil
	}
	a := &analyzer{inner: inner, p: p}
	_, rew := inner.(workload.Rewindable)
	_, obs := inner.(workload.ObservingAnalyzer)
	switch {
	case rew && obs:
		return obsRewAnalyzer{a}
	case obs:
		return obsAnalyzer{a}
	case rew:
		return rewAnalyzer{a}
	}
	return a
}

// controller forwards a controller that binds to the world, handing it a
// timing view of the world instead of the world itself.
type controller struct {
	provision.Controller
	binder mpc.WorldBinder
	p      *probe
}

func (c *controller) BindWorld(w mpc.World, lookahead *stats.RNG) {
	c.binder.BindWorld(&world{World: w.(*experiment.World), p: c.p}, lookahead)
}

type rewController struct{ *controller }

func (c rewController) Snapshot(store any) any {
	return c.Controller.(workload.Rewindable).Snapshot(store)
}
func (c rewController) Restore(store any) { c.Controller.(workload.Rewindable).Restore(store) }

func wrapController(ctrl provision.Controller, b mpc.WorldBinder, p *probe) provision.Controller {
	c := &controller{Controller: ctrl, binder: b, p: p}
	if _, ok := ctrl.(workload.Rewindable); ok {
		return rewController{c}
	}
	return c
}

// world is the mpc.World a wrapped controller sees. A decision spans the
// outermost Snapshot to its Release; a lookahead spans Perturb to the
// Objective read that scores it.
type world struct {
	*experiment.World
	p *probe
}

func (w *world) Snapshot() {
	t0 := time.Now()
	if w.Held() == 0 {
		w.p.cycleStart = t0
	}
	w.World.Snapshot()
	w.p.snapshots++
	w.p.snapshotT += time.Since(t0)
}

func (w *world) Restore() {
	t0 := time.Now()
	w.World.Restore()
	w.p.restores++
	w.p.restoreT += time.Since(t0)
}

func (w *world) Release() {
	w.World.Release()
	if w.Held() == 0 {
		w.p.cycles = append(w.p.cycles, time.Since(w.p.cycleStart))
	}
}

func (w *world) Perturb(u uint64) {
	w.p.laStart = time.Now()
	w.p.laFrom = w.Sim().Processed()
	w.World.Perturb(u)
}

func (w *world) Objective(t float64) (violated, rejected, lost uint64, vmSeconds float64) {
	if !w.p.laStart.IsZero() {
		w.p.lookaheads++
		w.p.lookaheadT += time.Since(w.p.laStart)
		w.p.laEvents += w.Sim().Processed() - w.p.laFrom
		w.p.laStart = time.Time{}
	}
	return w.World.Objective(t)
}
