package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vmprov/internal/experiment"
	simmetrics "vmprov/internal/metrics"
)

// sliceS is the simulated interval between RunUntil calls in a traced
// replication; the kernel's pending-event count is sampled at each stop.
const sliceS = 300

// unitRun is one executed unit.
type unitRun struct {
	wall     time.Duration
	peakHeap uint64 // largest live heap a collection measured during the unit
	arrived  uint64
	alloc    uint64 // heap bytes allocated while the unit ran
	results  []simmetrics.Result
}

// runner executes units of one workload, traced or not. Only a traced
// runner instruments its jobs; an untraced one runs them as they are.
type runner struct {
	def       *workloadDef
	traced    bool
	calibrate bool                     // group units into blocks and calibrate between them
	jobs      [][]experiment.Job       // per unit
	probes    [][]*probe               // traced only
	rcs       []*experiment.RunContext // one per worker, reused across units
}

func newRunner(d *workloadDef, panels []*experiment.Panel, traced bool) *runner {
	r := &runner{def: d, traced: traced, calibrate: !traced}
	for _, p := range panels {
		r.add(p)
	}
	if !r.sweeps() {
		for i := 0; i < d.workers; i++ {
			r.rcs = append(r.rcs, experiment.NewRunContext())
		}
	}
	return r
}

// add appends a unit: the panel's jobs, instrumented when traced.
func (r *runner) add(p *experiment.Panel) {
	jobs := p.Jobs()
	var probes []*probe
	if r.traced {
		jobs = slices.Clone(jobs)
		probes = make([]*probe, len(jobs))
		for i, j := range jobs {
			probes[i] = new(probe)
			jobs[i] = instrument(j, probes[i])
		}
	}
	r.jobs = append(r.jobs, jobs)
	r.probes = append(r.probes, probes)
}

// sweeps reports whether units run through experiment.Sweep, which
// brings its own contexts.
func (r *runner) sweeps() bool { return r.def.workers > 1 && !r.traced }

// runUnit executes unit u. An untraced sweep workload goes through
// experiment.Sweep; everything else runs each job through
// RunContext.Setup, World.RunUntil and World.Finish on a pool shaped like
// Sweep's (one context per worker, one shared queue), so a traced run
// can time assembly and teardown.
func (r *runner) runUnit(u int, hs *heapSampler) unitRun {
	jobs, probes := r.jobs[u], r.probes[u]
	for _, p := range probes {
		p.reset()
	}
	hs.reset()
	alloc0 := allocBytes()
	t0 := time.Now()
	var res []simmetrics.Result
	if r.sweeps() {
		res = experiment.Sweep(jobs, experiment.SweepOptions{Workers: r.def.workers})
	} else {
		res = make([]simmetrics.Result, len(jobs))
		var next atomic.Int64
		var wg sync.WaitGroup
		for _, rc := range r.rcs {
			wg.Add(1)
			go func(rc *experiment.RunContext) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					var p *probe
					if probes != nil {
						p = probes[i]
					}
					res[i] = runJob(rc, jobs[i], p)
				}
			}(rc)
		}
		wg.Wait()
	}
	wall := time.Since(t0)
	// A collection after every unit, outside its time, flushes the
	// allocation counts and measures the heap the unit left live; the
	// next unit then starts from a collected heap, without the garbage
	// and GC debt of this one.
	runtime.GC()
	out := unitRun{wall: wall, peakHeap: hs.peak(), alloc: allocBytes() - alloc0, results: res}
	for _, x := range res {
		out.arrived += x.Arrived
	}
	return out
}

// runJob runs one replication; a traced one (p non-nil) also records
// Setup, RunUntil and Finish spans and the kernel's pending-event peak.
func runJob(rc *experiment.RunContext, j experiment.Job, p *probe) simmetrics.Result {
	t0 := time.Now()
	w := rc.Setup(j.Scenario, j.Policy, j.Seed, experiment.RunOptions{})
	t1 := time.Now()
	h := j.Scenario.Horizon
	if p != nil {
		for t := float64(sliceS); t < h; t += sliceS {
			w.RunUntil(t)
			p.pendingPeak = max(p.pendingPeak, w.Sim().Pending())
		}
	}
	w.RunUntil(h)
	t2 := time.Now()
	res, _ := w.Finish()
	if p != nil {
		p.setupT, p.runT, p.finishT = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	}
	return res
}

// pass is the outcome of a timed loop over the quality set.
type pass struct {
	units     []unitRun
	first     [][]simmetrics.Result // quality set, unit by unit
	attempted int
	failed    int
	failures  []string
	cycles    []time.Duration // traced: MPC decision spans
	blocks    []block         // untraced: consecutive units between calibrations

	wall time.Duration

	// traced accumulators: all units, and the first pass over the
	// quality set for counts that must repeat exactly
	all, quality probeSum
}

// probeSum adds up probes and job stats.
type probeSum struct {
	jobs                          int
	requests, timed               uint64
	ticks, tickEmits              uint64
	alerts, cycles                uint64
	alertT, submitT               time.Duration
	snapshots, restores           uint64
	snapshotT, restoreT           time.Duration
	lookaheads, laEvents          uint64
	lookaheadT                    time.Duration
	setupT, runT, finishT, spanT  time.Duration
	pendingPeak                   int
	events, arrived, accepted     uint64
	crashes, retries, trips, shed uint64
}

func (s *probeSum) add(p *probe, r simmetrics.Result) {
	s.jobs++
	s.requests += p.requests
	s.timed += p.timed
	s.submitT += p.submit
	s.ticks += p.ticks
	s.tickEmits += p.tickEmits
	s.alerts += uint64(len(p.alerts))
	for _, d := range p.alerts {
		s.alertT += d
	}
	s.cycles += uint64(len(p.cycles))
	s.snapshots += p.snapshots
	s.snapshotT += p.snapshotT
	s.restores += p.restores
	s.restoreT += p.restoreT
	s.lookaheads += p.lookaheads
	s.lookaheadT += p.lookaheadT
	s.laEvents += p.laEvents
	s.setupT += p.setupT
	s.runT += p.runT
	s.finishT += p.finishT
	s.spanT += p.setupT + p.runT + p.finishT
	s.pendingPeak = max(s.pendingPeak, p.pendingPeak)
	s.events += r.Events + p.laEvents
	s.arrived += r.Arrived
	s.accepted += r.Accepted
	s.crashes += r.Crashes
	s.retries += r.Retries
	s.trips += r.BreakerTrips
	s.shed += r.Shed
}

// block is a run of consecutive units with a calibration on each side.
type block struct {
	arrived uint64
	wall    time.Duration
	cal     time.Duration // mean of the calibrations before and after
}

// calEvery is the unit wall time after which a calibrating loop closes a
// block and calibrates again.
const calEvery = 500 * time.Millisecond

// loop runs units round-robin over the quality set for at least seconds
// and at least passes full passes, checking every replication. A
// calibrating runner also groups its units into blocks and calibrates the
// host between them.
func (r *runner) loop(seconds float64, passes int) *pass {
	k := r.def.k
	ps := &pass{first: make([][]simmetrics.Result, k)}
	runtime.GC()
	hs := startHeapSampler()
	defer hs.stop()
	var cal *calibration
	var open block
	if r.calibrate {
		cal = newCalibration()
		open.cal = cal.run()
	}
	start := time.Now()
	for i := 0; i < passes*k || time.Since(start).Seconds() < seconds; i++ {
		u := i % k
		ur := r.runUnit(u, hs)
		if cal != nil {
			open.arrived += ur.arrived
			open.wall += ur.wall
			if open.wall >= calEvery {
				next := cal.run()
				ps.blocks = append(ps.blocks, block{open.arrived, open.wall, (open.cal + next) / 2})
				open = block{cal: next}
			}
		}
		ps.units = append(ps.units, ur)
		for j, res := range ur.results {
			ps.attempted++
			job := r.jobs[u][j]
			err := r.def.checkReplication(job, res)
			if err == nil && i >= k && !simmetrics.Equal(ps.first[u][j], res) {
				err = fmt.Errorf("%s %s seed %d: repeated replication differs from its first run",
					job.Scenario.Name, job.Policy.Name, job.Seed)
			}
			if err != nil {
				ps.failed++
				ps.failures = append(ps.failures, err.Error())
			}
			if r.traced {
				p := r.probes[u][j]
				ps.cycles = append(ps.cycles, p.cycles...)
				ps.all.add(p, res)
				if i < k {
					ps.quality.add(p, res)
				}
			}
		}
		if i < k {
			ps.first[u] = ur.results
		}
	}
	if cal != nil && open.wall > 0 {
		ps.blocks = append(ps.blocks, block{open.arrived, open.wall, (open.cal + cal.run()) / 2})
	}
	return ps
}

// heapSampler tracks the largest live heap, as measured by the latest
// collection's mark, read every 2 ms by a goroutine of its own until stop.
type heapSampler struct {
	max  atomic.Uint64
	quit chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tk := time.NewTicker(2 * time.Millisecond)
		defer tk.Stop()
		for {
			h.sample()
			select {
			case <-h.quit:
				return
			case <-tk.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	sm := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sm)
	if sm[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := sm[0].Value.Uint64()
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// reset starts a new peak from the current heap.
func (h *heapSampler) reset() {
	h.max.Store(0)
	h.sample()
}

// peak returns the largest heap seen since reset.
func (h *heapSampler) peak() uint64 {
	h.sample()
	return h.max.Load()
}

func (h *heapSampler) stop() {
	close(h.quit)
	<-h.done
}

// allocBytes is the cumulative count of heap bytes allocated.
func allocBytes() uint64 {
	sm := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sm)
	if sm[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sm[0].Value.Uint64()
}

// cpuSeconds returns the runtime's cumulative GC and total CPU estimates.
func cpuSeconds() (gc, total float64) {
	sm := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(sm)
	if sm[0].Value.Kind() == metrics.KindFloat64 {
		gc = sm[0].Value.Float64()
	}
	if sm[1].Value.Kind() == metrics.KindFloat64 {
		total = sm[1].Value.Float64()
	}
	return gc, total
}

// Set-up is timed in setupRounds rounds of at least setupRound of host
// time and setupMin set-ups each, with a calibration between rounds.
const (
	setupRounds = 8
	setupRound  = 100 * time.Millisecond
	setupMin    = 5
)

// measureSetup times set-ups of the quality set: compile of every unit's
// panel, one NewRunContext per worker and Setup of every job on them,
// without running any. It returns the median over rounds of each round's median
// set-up, in reference seconds: scaled by the host speed that the
// calibrations on either side of the round measured.
func measureSetup(d *workloadDef, seed uint64) (time.Duration, error) {
	cal := newCalibration()
	before := cal.run()
	rounds := make([]time.Duration, setupRounds)
	for r := range rounds {
		var spans []time.Duration
		var total time.Duration
		for len(spans) < setupMin || total < setupRound {
			span, err := setupOnce(d, seed)
			if err != nil {
				return 0, err
			}
			spans = append(spans, span)
			total += span
		}
		after := cal.run()
		rounds[r] = time.Duration(float64(medianDur(spans)) * hostSpeed((before+after)/2))
		before = after
	}
	return medianDur(rounds), nil
}

// setupOnce times one set-up of the whole quality set.
func setupOnce(d *workloadDef, seed uint64) (time.Duration, error) {
	t0 := time.Now()
	panels, err := d.compileUnits(seed)
	if err != nil {
		return 0, err
	}
	rcs := make([]*experiment.RunContext, d.workers)
	for w := range rcs {
		rcs[w] = experiment.NewRunContext()
	}
	n := 0
	for _, p := range panels {
		for _, job := range p.Jobs() {
			rcs[n%len(rcs)].Setup(job.Scenario, job.Policy, job.Seed, experiment.RunOptions{})
			n++
		}
	}
	return time.Since(t0), nil
}

func medianDur(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianWall(units []unitRun) time.Duration {
	d := make([]time.Duration, len(units))
	for i, u := range units {
		d[i] = u.wall
	}
	return medianDur(d)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the linearly interpolated q-quantile of durations, in ms.
func quantileMs(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	frac := pos - float64(lo)
	v := float64(s[lo]) + frac*float64(s[hi]-s[lo])
	return v / 1e6
}

// ratio divides, returning 0 for an empty denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
