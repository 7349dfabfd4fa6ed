// Package mpc implements model-predictive fleet sizing by co-simulation:
// at every controller cycle the run snapshots itself, simulates each
// candidate fleet size a horizon ahead under a perturbed random stream,
// scores the simulated futures on VM cost, QoS violations, and boot
// churn, rewinds, and commits the cheapest candidate for real.
//
// The controller is an instance of the receding-horizon idea behind
// model-predictive control, with the paper's analytical queueing model
// replaced by the simulator itself as the predictor: whatever dynamics
// the run exhibits — boot delays, rejection under the buffer bound K,
// host failures, even the hybrid fluid engine's fast-forward ticks — are
// reproduced in the lookahead, because the lookahead IS the run,
// executed ahead of itself and then undone.
//
// Two properties keep this honest:
//
//   - Non-clairvoyance. Before each lookahead the whole RNG tree is
//     perturbed by a draw from a dedicated "mpc" substream, so the
//     controller optimizes against a plausible future sampled from the
//     workload's distribution, not against the exact arrivals the real
//     run will see. The same perturbation is shared by every candidate
//     in a cycle (common random numbers), so candidates differ only in
//     fleet size, not in luck.
//
//   - Invisibility. Snapshots draw nothing and schedule nothing; the
//     next cycle is scheduled only after the final rewind, so during a
//     lookahead no controller event sits in the queue. After the commit,
//     the real run's event order, random streams, and statistics are
//     bit-identical to a run that never looked ahead — only the
//     committed targets differ.
//
// A trace recorder is I/O and cannot be rewound, so the controller
// detaches the provisioner's recorder for the span of its lookaheads and
// reattaches it before the committing SetTarget: a traced MPC run
// records exactly the real run's events, one scaling decision per cycle.
//
// # Branch-and-bound
//
// Playing every candidate to the horizon makes the lookahead about 90%
// of an MPC run's time, yet most candidates are beaten within seconds.
// The candidate loop therefore prunes, exactly. The weights are positive
// and every objective term only grows over a lookahead: VM-seconds
// integrate the live instance count, the violation, rejection, and loss
// counters never decrease, and the boot penalty is fixed. A candidate's partial score at any instant τ is
// thus a lower bound on its final score. On a reliable fleet (no fault
// model) the live instance count cannot fall below
// Provisioner.FleetFloor until the next SetTarget, so the bound also
// charges CostPerVMSecond·FleetFloor(τ)·(t+Horizon−τ) for the rest of
// the horizon; with a fault model any instance may crash and the floor
// is 0, leaving the plain monotone partial score.
//
// The candidate nearest the committed size is played in full first, as
// the incumbent. Every other candidate runs in pruneSlices equal slices
// of the horizon and is abandoned, and the world restored, as soon as
// its bound exceeds the incumbent's score by more than a relative
// margin of 1e-9, which absorbs float rounding between a bound and the
// score it underestimates. An abandoned candidate would have scored
// strictly worse than some candidate that is kept, so the selection rule
// (minimum score, ties to the smaller fleet) picks exactly what playing
// every candidate to the horizon would. Committed targets, and with them
// every real event, random draw, and metric, are unchanged; on the
// web-mpc benchmark (mpc:600, web at 0.05) kernel events per simulated
// request fall from 21.8 to about 6.6 and the replication throughput
// roughly doubles.
package mpc

import (
	"math"
	"strconv"

	"vmprov/internal/provision"
	"vmprov/internal/sim"
	"vmprov/internal/stats"
)

// World is the co-simulation surface the controller drives: the
// fully-assembled run, able to freeze itself, rewind, decorrelate its
// random streams, and report the cumulative quantities the objective
// differences. experiment.World implements it.
type World interface {
	// Snapshot pushes the current complete run state.
	Snapshot()
	// Restore rewinds to the innermost snapshot without consuming it.
	Restore()
	// Release discards the innermost snapshot.
	Release()
	// Perturb decorrelates every random stream from the real future.
	Perturb(u uint64)
	// Objective reports cumulative QoS violations, rejections,
	// crash-lost requests, and VM-seconds of committed capacity at t.
	Objective(t float64) (violated, rejected, lost uint64, vmSeconds float64)
}

// WorldBinder is implemented by controllers that need the assembled
// world; the experiment layer calls BindWorld after wiring a run,
// handing over the world and a dedicated lookahead RNG substream.
type WorldBinder interface {
	BindWorld(w World, lookahead *stats.RNG)
}

// Controller sizes the fleet by receding-horizon co-simulation.
// Zero-valued knobs are resolved to defaults at Attach.
type Controller struct {
	// Horizon is how far ahead each candidate future is simulated,
	// in seconds. Required (panics at Attach if <= 0).
	Horizon float64

	// Cycle is the interval between sizing decisions. Default Horizon/2,
	// giving consecutive lookaheads 50% overlap.
	Cycle float64

	// Candidates caps how many fleet sizes are tried per cycle. The set
	// spreads geometrically around the currently committed size:
	// {0, ±1, ±2, ±4, ...} offsets, clipped to [1, MaxVMs]. Default 5.
	Candidates int

	// CostPerVMSecond weighs capacity cost in the objective. Default 1.
	CostPerVMSecond float64

	// ViolationPenalty is the cost, in VM-seconds, charged per QoS
	// violation, rejection, or crash-lost request accrued over the
	// lookahead. Default 1.
	ViolationPenalty float64

	// BootPenalty is the cost, in VM-seconds, charged per instance a
	// candidate would boot above the committed fleet — scale-ups risk
	// arriving after the burst they answer. Default is the provisioner's
	// boot delay, pricing one spin-up at one idle VM for one boot.
	BootPenalty float64

	world World
	la    *stats.RNG
	s     *sim.Sim
	p     *provision.Provisioner
	cands []int

	// inSim marks lookahead execution. The next cycle is scheduled only
	// after the final restore, so no controller event can fire inside a
	// lookahead; the flag is a cheap guard against that invariant ever
	// breaking (e.g. a future caller running cycles manually).
	inSim bool
}

// Name implements provision.Controller.
func (c *Controller) Name() string {
	return "MPC-" + strconv.FormatFloat(c.Horizon, 'g', -1, 64)
}

// BindWorld implements WorldBinder.
func (c *Controller) BindWorld(w World, lookahead *stats.RNG) {
	c.world = w
	c.la = lookahead
}

// Attach implements provision.Controller: it resolves defaults and
// schedules the first sizing cycle at time zero.
func (c *Controller) Attach(s *sim.Sim, p *Provisioner) {
	if c.Horizon <= 0 {
		panic("mpc: Controller.Horizon must be positive")
	}
	if c.Cycle <= 0 {
		c.Cycle = c.Horizon / 2
	}
	if c.Candidates <= 0 {
		c.Candidates = 5
	}
	if c.CostPerVMSecond <= 0 {
		c.CostPerVMSecond = 1
	}
	if c.ViolationPenalty <= 0 {
		c.ViolationPenalty = 1
	}
	if c.BootPenalty <= 0 {
		c.BootPenalty = p.Config().BootDelay
	}
	c.s, c.p = s, p
	s.AtFunc(0, fireCycle, c)
}

// Provisioner aliases provision.Provisioner so Attach matches the
// provision.Controller interface without a circular import.
type Provisioner = provision.Provisioner

// fireCycle runs one sizing cycle. The payload is the controller itself
// and is never mutated between schedule and fire, so reusing it across
// cycles is snapshot-safe.
func fireCycle(a any) {
	a.(*Controller).runCycle()
}

// Branch-and-bound tuning. A challenger's lookahead runs in pruneSlices
// equal slices of the horizon, and its bound is checked after each; it is
// abandoned once the bound exceeds the incumbent's score by more than
// pruneMargin of the scores' magnitude, which absorbs float rounding
// between a bound and the final score it underestimates. More slices
// prune earlier at the cost of one bound check each; past 32 the saving
// in replayed events is a few percent.
const (
	pruneSlices = 32
	pruneMargin = 1e-9
)

// exhaustive plays every candidate to the horizon, disabling pruning.
// Tests set it to check that pruning never changes a decision.
var exhaustive bool

// runCycle snapshots the run, co-simulates candidate fleet sizes
// Horizon seconds ahead by branch-and-bound (see the package doc),
// commits the cheapest, and schedules the next cycle.
func (c *Controller) runCycle() {
	if c.inSim {
		panic("mpc: controller cycle fired inside its own lookahead")
	}
	if c.world == nil {
		panic("mpc: controller not bound to a world; run it through the experiment layer")
	}
	t := c.s.Now()
	// Drawn before the snapshot, so the perturbation seed is part of the
	// real timeline and survives the rewinds below.
	u := c.la.Uint64()
	base := c.p.Committed()
	c.candidates(base)

	// A recorder is I/O and cannot be rewound: it is detached while the
	// lookaheads run, so a trace holds exactly the real run's events.
	tr := c.p.Tracer()
	c.p.SetTracer(nil)
	var at0 cumulative
	at0.violated, at0.rejected, at0.lost, at0.vmSeconds = c.world.Objective(t)
	c.world.Snapshot()
	first := 0
	for i, m := range c.cands {
		if abs(m-base) < abs(c.cands[first]-base) {
			first = i
		}
	}
	best := c.cands[first]
	bestScore, _ := c.lookahead(t, u, at0, base, best, math.Inf(1))
	for i, m := range c.cands {
		if i == first {
			continue
		}
		score, ok := c.lookahead(t, u, at0, base, m, bestScore)
		// Ties prefer the smaller fleet.
		if ok && (score < bestScore || score == bestScore && m < best) {
			best, bestScore = m, score
		}
	}
	c.world.Release()
	c.p.SetTracer(tr)
	c.p.SetTarget(best)
	// Scheduled only now, after the final restore: during lookaheads the
	// queue must hold no controller event, or a lookahead would recurse
	// into its own sizing cycles.
	c.s.AtFunc(t+c.Cycle, fireCycle, c)
}

// cumulative holds the objective's cumulative terms at one instant, as
// World.Objective reports them.
type cumulative struct {
	violated, rejected, lost uint64
	vmSeconds                float64
}

// lookahead co-simulates candidate m from the snapshot held at t, whose
// objective terms are at0, and rewinds to it. It returns the candidate's
// score and true, or false once its lower bound exceeds limit (an
// infinite limit plays the whole horizon in one run).
func (c *Controller) lookahead(t float64, u uint64, at0 cumulative, base, m int, limit float64) (float64, bool) {
	c.inSim = true
	c.world.Perturb(u)
	c.p.SetTarget(m)
	boot := 0
	if m > base {
		boot = m - base
	}
	end := t + c.Horizon
	slices := pruneSlices
	if exhaustive || math.IsInf(limit, 1) {
		slices = 1
	}
	// Rounding error scales with the cumulative VM-seconds the scores
	// difference, so the slack does too.
	slack := pruneMargin * (math.Abs(limit) + c.CostPerVMSecond*at0.vmSeconds)
	pruned := false
	for k := 1; k < slices && !pruned; k++ {
		tau := t + c.Horizon*float64(k)/float64(slices)
		c.s.RunUntil(tau)
		bound := c.score(tau, at0, boot) +
			c.CostPerVMSecond*float64(c.p.FleetFloor())*(end-tau)
		pruned = bound > limit+slack
	}
	score := 0.0
	if !pruned {
		c.s.RunUntil(end)
		score = c.score(end, at0, boot)
	}
	c.world.Restore()
	c.inSim = false
	return score, !pruned
}

// score is a candidate's objective accrued from the cycle start, whose
// cumulative terms are at0, through tau.
func (c *Controller) score(tau float64, at0 cumulative, boot int) float64 {
	v, r, l, vm := c.world.Objective(tau)
	return c.CostPerVMSecond*(vm-at0.vmSeconds) +
		c.ViolationPenalty*float64((v-at0.violated)+(r-at0.rejected)+(l-at0.lost)) +
		c.BootPenalty*float64(boot)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// candidates fills c.cands with up to c.Candidates fleet sizes spread
// around base: offsets 0, +1, -1, +2, -2, +4, -4, ... clipped to
// [1, MaxVMs], deduplicated, ascending.
func (c *Controller) candidates(base int) {
	maxVMs := c.p.Config().MaxVMs
	c.cands = c.cands[:0]
	add := func(m int) {
		if m < 1 {
			m = 1
		}
		if maxVMs > 0 && m > maxVMs {
			m = maxVMs
		}
		for _, have := range c.cands {
			if have == m {
				return
			}
		}
		c.cands = append(c.cands, m)
	}
	add(base)
	for off := 1; len(c.cands) < c.Candidates; off *= 2 {
		add(base + off)
		if len(c.cands) >= c.Candidates {
			break
		}
		add(base - off)
		if maxVMs > 0 && base+off >= maxVMs && base-off <= 1 {
			break
		}
	}
	// Insertion sort: the set is tiny and nearly ordered.
	for i := 1; i < len(c.cands); i++ {
		for j := i; j > 0 && c.cands[j] < c.cands[j-1]; j-- {
			c.cands[j], c.cands[j-1] = c.cands[j-1], c.cands[j]
		}
	}
}
