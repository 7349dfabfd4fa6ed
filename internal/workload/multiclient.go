package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"vmprov/internal/sim"
	"vmprov/internal/stats"
)

// This file implements multi-client workload specs: several client
// cohorts with distinct arrival processes, service-size distributions,
// SLO classes, and temporal patterns sharing one application. Each
// client compiles to an independent seeded substream
// (rng.Split("client:<name>")) and the cohorts merge through the
// ordinary arrival injection path, so a single-client spec degenerates
// to — and stays bit-identical with — the equivalent single-source
// workload.

// Arrival process kinds accepted by ArrivalSpec.Process.
const (
	ArrivalPoisson = "poisson"  // memoryless renewal (cv = 1)
	ArrivalGammaCV = "gamma-cv" // gamma renewal shaped by a target cv
	ArrivalWeibull = "weibull"  // Weibull renewal shaped by a shape parameter
	ArrivalMMPP    = "mmpp"     // two-state Markov-modulated Poisson process
)

// ArrivalSpec declares one client's arrival process. Fields beyond
// Process apply only to the kinds that name them; setting a parameter a
// process does not use is a validation error (typos fail loudly).
type ArrivalSpec struct {
	Process string `json:"process"`
	// CV is the interarrival coefficient of variation for "gamma-cv"
	// (cv > 1 bursty, cv < 1 regular).
	CV float64 `json:"cv,omitempty"`
	// Shape is the Weibull shape for "weibull" interarrivals.
	Shape float64 `json:"shape,omitempty"`
	// Peak is the burst-state rate multiplier (≥ 1) for "mmpp"; the
	// low-state rate is derived so the stationary mean stays at the
	// client's share of the aggregate rate.
	Peak float64 `json:"peak,omitempty"`
	// Sojourns are the mean dwell times (s) of the normal and burst
	// states for "mmpp".
	Sojourns [2]float64 `json:"sojourns,omitzero"`
}

// validate checks the arrival process parameters; fraction-independent.
func (a ArrivalSpec) validate() error {
	noExtra := func(process string, vals ...float64) error {
		for _, v := range vals {
			if v != 0 {
				return fmt.Errorf("arrival process %q does not take the supplied parameter set %+v", process, a)
			}
		}
		return nil
	}
	switch a.Process {
	case ArrivalPoisson:
		return noExtra(a.Process, a.CV, a.Shape, a.Peak, a.Sojourns[0], a.Sojourns[1])
	case ArrivalGammaCV:
		if a.CV <= 0 {
			return fmt.Errorf("arrival process %q needs cv > 0, got %v", a.Process, a.CV)
		}
		return noExtra(a.Process, a.Shape, a.Peak, a.Sojourns[0], a.Sojourns[1])
	case ArrivalWeibull:
		if a.Shape <= 0 {
			return fmt.Errorf("arrival process %q needs shape > 0, got %v", a.Process, a.Shape)
		}
		return noExtra(a.Process, a.CV, a.Peak, a.Sojourns[0], a.Sojourns[1])
	case ArrivalMMPP:
		if err := noExtra(a.Process, a.CV, a.Shape); err != nil {
			return err
		}
		if a.Peak < 1 {
			return fmt.Errorf("arrival process %q needs peak ≥ 1, got %v", a.Process, a.Peak)
		}
		if a.Sojourns[0] <= 0 || a.Sojourns[1] <= 0 {
			return fmt.Errorf("arrival process %q needs positive sojourns, got %v", a.Process, a.Sojourns)
		}
		if low := a.mmppLowFactor(); low < 0 {
			return fmt.Errorf("arrival process %q peak %v too high for sojourns %v (low-state rate would be negative)",
				a.Process, a.Peak, a.Sojourns)
		}
		return nil
	case "":
		return fmt.Errorf("missing arrival process (want one of %s)", strings.Join(ArrivalProcesses(), ", "))
	default:
		return fmt.Errorf("unknown arrival process %q (want one of %s)", a.Process, strings.Join(ArrivalProcesses(), ", "))
	}
}

// mmppLowFactor returns the normal-state rate multiplier that keeps the
// MMPP's stationary mean at 1 given the burst-state multiplier Peak.
func (a ArrivalSpec) mmppLowFactor() float64 {
	s0, s1 := a.Sojourns[0], a.Sojourns[1]
	return (s0 + s1 - a.Peak*s1) / s0
}

// ArrivalProcesses returns the supported arrival process kinds, sorted.
func ArrivalProcesses() []string {
	return []string{ArrivalGammaCV, ArrivalMMPP, ArrivalPoisson, ArrivalWeibull}
}

// SizeSpec declares one client's service-size distribution. Mean is the
// mean service seconds; the remaining fields apply only to the kinds
// that name them.
type SizeSpec struct {
	// Dist is one of "jitter", "deterministic", "exponential",
	// "uniform", "lognormal", "weibull", "pareto".
	Dist string  `json:"dist"`
	Mean float64 `json:"mean"`
	// Jitter (dist "jitter") inflates Mean by U(0, jitter) — the
	// paper's service-time idiom, service = mean · (1 + U(0, j)).
	Jitter float64 `json:"jitter,omitempty"`
	// CV shapes "uniform" (half-width mean·√3·cv) and "lognormal".
	CV float64 `json:"cv,omitempty"`
	// Shape is the Weibull shape for dist "weibull" (scale derived
	// from Mean).
	Shape float64 `json:"shape,omitempty"`
	// Alpha is the Pareto tail index for dist "pareto" (α > 1; xm
	// derived from Mean).
	Alpha float64 `json:"alpha,omitempty"`
}

// sampler compiles the size spec into a Sampler; call validate first.
func (z SizeSpec) sampler() stats.Sampler {
	switch z.Dist {
	case "jitter":
		return jitterService(z.Mean, z.Jitter)
	case "deterministic":
		return stats.Deterministic{Value: z.Mean}
	case "exponential":
		return stats.Exponential{Rate: 1 / z.Mean}
	case "uniform":
		h := z.Mean * math.Sqrt(3) * z.CV
		return stats.Uniform{Min: z.Mean - h, Max: z.Mean + h}
	case "lognormal":
		sigma2 := math.Log(1 + z.CV*z.CV)
		return stats.LogNormal{Mu: math.Log(z.Mean) - sigma2/2, Sigma: math.Sqrt(sigma2)}
	case "weibull":
		return stats.Weibull{Shape: z.Shape, Scale: z.Mean / math.Gamma(1+1/z.Shape)}
	case "pareto":
		return stats.Pareto{Xm: z.Mean * (z.Alpha - 1) / z.Alpha, Alpha: z.Alpha}
	}
	panic("workload: size spec not validated: " + z.Dist)
}

func (z SizeSpec) validate() error {
	if z.Mean <= 0 {
		return fmt.Errorf("size dist %q needs mean > 0, got %v", z.Dist, z.Mean)
	}
	switch z.Dist {
	case "jitter":
		if z.Jitter < 0 {
			return fmt.Errorf("size dist %q needs jitter ≥ 0, got %v", z.Dist, z.Jitter)
		}
	case "deterministic", "exponential":
		// Mean alone.
	case "uniform":
		if z.CV < 0 || z.CV > 1/math.Sqrt(3) {
			return fmt.Errorf("size dist %q needs 0 ≤ cv ≤ 1/√3 to stay non-negative, got %v", z.Dist, z.CV)
		}
	case "lognormal":
		if z.CV <= 0 {
			return fmt.Errorf("size dist %q needs cv > 0, got %v", z.Dist, z.CV)
		}
	case "weibull":
		if z.Shape <= 0 {
			return fmt.Errorf("size dist %q needs shape > 0, got %v", z.Dist, z.Shape)
		}
	case "pareto":
		if z.Alpha <= 1 {
			return fmt.Errorf("size dist %q needs alpha > 1 for a finite mean, got %v", z.Dist, z.Alpha)
		}
	case "":
		return fmt.Errorf("missing size dist")
	default:
		return fmt.Errorf("unknown size dist %q", z.Dist)
	}
	return nil
}

// Pattern kinds accepted by PatternSpec.Kind; an empty kind is the
// constant pattern (multiplier 1 everywhere).
const (
	PatternRamp        = "ramp"
	PatternBurst       = "burst"
	PatternMultiPeriod = "multi-period"
)

// PatternSpec shapes a client's rate over time as a multiplicative
// factor on its base rate. The zero value is the constant pattern.
type PatternSpec struct {
	Kind string `json:"kind,omitempty"`
	// Ramp: the multiplier moves linearly from From to To over
	// [Start, End] seconds, holding From before and To after.
	From  float64 `json:"from,omitempty"`
	To    float64 `json:"to,omitempty"`
	Start float64 `json:"start,omitempty"`
	End   float64 `json:"end,omitempty"`
	// Burst: every Period seconds the multiplier is Factor for
	// Duration seconds, 1 otherwise.
	Factor   float64 `json:"factor,omitempty"`
	Period   float64 `json:"period,omitempty"`
	Duration float64 `json:"duration,omitempty"`
	// Multi-period: multiplier 1 + Σ amps[i]·sin(2πt/periods[i] +
	// phases[i]); Σ|amps| must stay below 1 so the rate stays positive.
	Periods []float64 `json:"periods,omitempty"`
	Amps    []float64 `json:"amps,omitempty"`
	Phases  []float64 `json:"phases,omitempty"`
}

// IsZero reports the constant pattern (used by json omitzero).
func (p PatternSpec) IsZero() bool {
	return p.Kind == "" && p.From == 0 && p.To == 0 && p.Start == 0 && p.End == 0 &&
		p.Factor == 0 && p.Period == 0 && p.Duration == 0 &&
		len(p.Periods) == 0 && len(p.Amps) == 0 && len(p.Phases) == 0
}

func (p PatternSpec) validate() error {
	switch p.Kind {
	case "":
		if !p.IsZero() {
			return fmt.Errorf("constant pattern takes no parameters, got %+v", p)
		}
	case PatternRamp:
		if p.From <= 0 || p.To <= 0 {
			return fmt.Errorf("ramp pattern needs positive from/to factors, got %v→%v", p.From, p.To)
		}
		if p.End <= p.Start || p.Start < 0 {
			return fmt.Errorf("ramp pattern needs 0 ≤ start < end, got [%v, %v]", p.Start, p.End)
		}
	case PatternBurst:
		if p.Factor <= 0 {
			return fmt.Errorf("burst pattern needs factor > 0, got %v", p.Factor)
		}
		if p.Period <= 0 || p.Duration <= 0 || p.Duration > p.Period {
			return fmt.Errorf("burst pattern needs 0 < duration ≤ period, got %v/%v", p.Duration, p.Period)
		}
	case PatternMultiPeriod:
		if len(p.Periods) == 0 || len(p.Periods) != len(p.Amps) {
			return fmt.Errorf("multi-period pattern needs matched periods/amps, got %d/%d", len(p.Periods), len(p.Amps))
		}
		if len(p.Phases) != 0 && len(p.Phases) != len(p.Periods) {
			return fmt.Errorf("multi-period pattern phases must match periods, got %d/%d", len(p.Phases), len(p.Periods))
		}
		var sum float64
		for i, per := range p.Periods {
			if per <= 0 {
				return fmt.Errorf("multi-period pattern period %d must be positive, got %v", i, per)
			}
			sum += math.Abs(p.Amps[i])
		}
		if sum >= 1 {
			return fmt.Errorf("multi-period pattern Σ|amps| = %v must stay below 1 so the rate stays positive", sum)
		}
	default:
		return fmt.Errorf("unknown pattern kind %q (want ramp, burst, or multi-period)", p.Kind)
	}
	return nil
}

// Multiplier evaluates the pattern's rate factor at time t. The
// validated patterns are strictly positive everywhere.
func (p PatternSpec) Multiplier(t float64) float64 {
	switch p.Kind {
	case PatternRamp:
		if t <= p.Start {
			return p.From
		}
		if t >= p.End {
			return p.To
		}
		return p.From + (p.To-p.From)*(t-p.Start)/(p.End-p.Start)
	case PatternBurst:
		if math.Mod(t, p.Period) < p.Duration {
			return p.Factor
		}
		return 1
	case PatternMultiPeriod:
		m := 1.0
		for i, per := range p.Periods {
			phase := 0.0
			if len(p.Phases) > 0 {
				phase = p.Phases[i]
			}
			m += p.Amps[i] * math.Sin(2*math.Pi*t/per+phase)
		}
		return m
	}
	return 1
}

// ClientSpec declares one client cohort of a multi-client workload.
type ClientSpec struct {
	Name string `json:"name"`
	// RateFraction is this client's share of the aggregate arrival
	// rate; fractions must be positive and sum to 1.
	RateFraction float64 `json:"rate_fraction"`
	// SLOClass groups this client's results in per-class report rows
	// ("interactive", "batch", ...); purely a reporting label.
	SLOClass string `json:"slo_class,omitempty"`
	// Class is the numeric priority/SLO class stamped on every request
	// this client emits (0 = lowest, the default). Unlike SLOClass it is
	// behavioral: SLA scheduling and degraded-mode shedding key off it.
	Class   int         `json:"class,omitempty"`
	Arrival ArrivalSpec `json:"arrival"`
	Size    SizeSpec    `json:"size"`
	Pattern PatternSpec `json:"pattern,omitzero"`
}

func (c ClientSpec) validate() error {
	if c.Name == "" {
		return fmt.Errorf("client missing name")
	}
	if c.RateFraction <= 0 {
		return fmt.Errorf("client %q needs rate_fraction > 0, got %v", c.Name, c.RateFraction)
	}
	if c.Class < 0 {
		return fmt.Errorf("client %q needs class >= 0, got %d", c.Name, c.Class)
	}
	if err := c.Arrival.validate(); err != nil {
		return fmt.Errorf("client %q: %w", c.Name, err)
	}
	if err := c.Size.validate(); err != nil {
		return fmt.Errorf("client %q: %w", c.Name, err)
	}
	if err := c.Pattern.validate(); err != nil {
		return fmt.Errorf("client %q: %w", c.Name, err)
	}
	if c.Arrival.Process == ArrivalMMPP && !c.Pattern.IsZero() {
		return fmt.Errorf("client %q: mmpp arrivals are self-modulating and take no temporal pattern", c.Name)
	}
	return nil
}

// ValidateClients checks a client set as a whole: every client valid,
// unique names (the error carries the sorted duplicate list), and rate
// fractions summing to 1.
func ValidateClients(clients []ClientSpec) error {
	if len(clients) == 0 {
		return fmt.Errorf("multi workload needs at least one client")
	}
	seen := map[string]int{}
	var dups []string
	var sum float64
	for _, c := range clients {
		if err := c.validate(); err != nil {
			return err
		}
		if seen[c.Name]++; seen[c.Name] == 2 {
			dups = append(dups, c.Name)
		}
		sum += c.RateFraction
	}
	if len(dups) > 0 {
		sort.Strings(dups)
		return fmt.Errorf("duplicate client names: %s (client names must be unique)", strings.Join(dups, ", "))
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("client rate fractions sum to %v, want 1", sum)
	}
	return nil
}

// ClientInfos extracts the name/SLO-class table of a client set in spec
// order.
func ClientInfos(clients []ClientSpec) []ClientInfo {
	infos := make([]ClientInfo, len(clients))
	for i, c := range clients {
		infos[i] = ClientInfo{Name: c.Name, SLOClass: c.SLOClass}
	}
	return infos
}

// RenewalSource is a renewal arrival process: interarrival gaps are
// drawn from a unit-mean distribution and divided by the current rate,
// so the mean rate tracks Rate · Modulate(t) while the gap shape (and
// its coefficient of variation) is free. With an exponential unit gap
// it is exactly a Poisson process; gamma or Weibull gaps give burstier
// or more regular streams at the same mean.
type RenewalSource struct {
	Rate     float64                 // base mean arrival rate (req/s)
	Gap      stats.Sampler           // unit-mean interarrival shape
	Modulate func(t float64) float64 // rate multiplier over time; nil = 1
	Service  stats.Sampler
	Horizon  float64 // stop generating after this time (0 = never)
	// Label prefixes the RNG substream names ("<label>/arrivals",
	// "<label>/service"); it defaults to "renewal". A RenewalSource
	// labeled "poisson" with an exponential unit gap draws the exact
	// stream of a PoissonSource at the same rate.
	Label string

	ids counter
}

// MeanRate returns Rate scaled by the pattern multiplier at t.
func (rs *RenewalSource) MeanRate(t float64) float64 {
	if rs.Modulate == nil {
		return rs.Rate
	}
	return rs.Rate * rs.Modulate(t)
}

// Start schedules the renewal chain. The gap drawn at time t is
// X/rate(t) with X the unit-mean shape variate — the standard
// rate-rescaling of a renewal process, exact for constant patterns and
// a first-order approximation across pattern boundaries.
func (rs *RenewalSource) Start(s *sim.Sim, r *stats.RNG, emit func(Request)) {
	if rs.Rate <= 0 {
		return
	}
	label := rs.Label
	if label == "" {
		label = "renewal"
	}
	//vmprov:allow splitkey -- per-client labels; unique because client names are validated unique
	arr := r.Split(label + "/arrivals")
	//vmprov:allow splitkey -- per-client labels; unique because client names are validated unique
	svc := r.Split(label + "/service")
	gap := func() float64 {
		rate := rs.MeanRate(s.Now())
		if rate <= 0 {
			panic("workload: renewal source rate vanished (patterns must stay positive)")
		}
		return rs.Gap.Sample(arr) / rate
	}
	// The chain never cancels its pending arrival: intern the callback
	// once and reschedule through ScheduleFire, which costs no arena slot.
	var fire sim.FireID
	fire = s.RegisterFire(func(any) {
		now := s.Now()
		if rs.Horizon > 0 && now >= rs.Horizon {
			return
		}
		emit(Request{ID: rs.ids.next(), Arrival: now, Service: rs.Service.Sample(svc)})
		s.ScheduleFire(gap(), fire)
	}, nil)
	s.ScheduleFire(gap(), fire)
}

// Snapshot implements Rewindable; the renewal chain's only mutable state
// outside the kernel and RNG tree is the ID counter.
func (rs *RenewalSource) Snapshot(store any) any { return snapshotCounter(store, rs.ids) }

// Restore implements Rewindable.
func (rs *RenewalSource) Restore(store any) { rs.ids = store.(*counterSnap).ids }

// compiledClient pairs a client's identity with its fresh per-replication
// source.
type compiledClient struct {
	info  ClientInfo
	class int
	src   Source
}

// MultiSource merges several client cohorts into one arrival stream.
// Each client owns an independent substream derived from the
// replication seed as Split("client:<name>"), so adding, removing, or
// reordering clients never perturbs another client's draws. A
// single-client source passes the parent stream through unsplit, which
// keeps one-client specs bit-identical to the equivalent single-source
// workload.
type MultiSource struct {
	clients []compiledClient
}

// NewMultiSource validates the client set and compiles a fresh source
// for one replication. aggregate is the total mean arrival rate split
// across clients by their rate fractions.
func NewMultiSource(aggregate float64, clients []ClientSpec) (*MultiSource, error) {
	if aggregate <= 0 {
		return nil, fmt.Errorf("multi workload needs aggregate_rate > 0, got %v", aggregate)
	}
	if err := ValidateClients(clients); err != nil {
		return nil, err
	}
	ms := &MultiSource{clients: make([]compiledClient, 0, len(clients))}
	for _, c := range clients {
		rate := aggregate * c.RateFraction
		service := c.Size.sampler()
		var src Source
		switch c.Arrival.Process {
		case ArrivalPoisson:
			src = &RenewalSource{
				Rate: rate, Gap: stats.Exponential{Rate: 1},
				Modulate: c.Pattern.Multiplier, Service: service, Label: "poisson",
			}
		case ArrivalGammaCV:
			src = &RenewalSource{
				Rate: rate, Gap: stats.UnitMeanGamma(c.Arrival.CV),
				Modulate: c.Pattern.Multiplier, Service: service, Label: ArrivalGammaCV,
			}
		case ArrivalWeibull:
			k := c.Arrival.Shape
			src = &RenewalSource{
				Rate: rate, Gap: stats.Weibull{Shape: k, Scale: 1 / math.Gamma(1+1/k)},
				Modulate: c.Pattern.Multiplier, Service: service, Label: ArrivalWeibull,
			}
		case ArrivalMMPP:
			src = &MMPPSource{
				Rates:    [2]float64{rate * c.Arrival.mmppLowFactor(), rate * c.Arrival.Peak},
				Sojourns: c.Arrival.Sojourns,
				Service:  service,
			}
		}
		ms.clients = append(ms.clients, compiledClient{
			info:  ClientInfo{Name: c.Name, SLOClass: c.SLOClass},
			class: c.Class,
			src:   src,
		})
	}
	return ms, nil
}

// Clients returns the client identity table in spec order.
func (m *MultiSource) Clients() []ClientInfo {
	infos := make([]ClientInfo, len(m.clients))
	for i, c := range m.clients {
		infos[i] = c.info
	}
	return infos
}

// MeanRate sums the clients' analytic mean rates at t.
func (m *MultiSource) MeanRate(t float64) float64 {
	var sum float64
	for _, c := range m.clients {
		sum += c.src.MeanRate(t)
	}
	return sum
}

// Start launches every client's arrival chain on the shared kernel; the
// cohorts interleave by event time through the ordinary injection path.
// Every emitted request is tagged with its client's name.
func (m *MultiSource) Start(s *sim.Sim, r *stats.RNG, emit func(Request)) {
	single := len(m.clients) == 1
	for i := range m.clients {
		c := &m.clients[i]
		cr := r
		if !single {
			//vmprov:allow splitkey -- per-client substreams; unique because client names are validated unique
			cr = r.Split("client:" + c.info.Name)
		}
		name, class := c.info.Name, c.class
		c.src.Start(s, cr, func(q Request) {
			q.Client = name
			q.Class = class
			emit(q)
		})
	}
}

// multiSnap holds the per-client stores of a multi-source snapshot.
type multiSnap struct{ stores []any }

// Snapshot implements Rewindable by delegating to each client's source.
func (m *MultiSource) Snapshot(store any) any {
	sn, _ := store.(*multiSnap)
	if sn == nil {
		sn = &multiSnap{stores: make([]any, len(m.clients))}
	}
	for i := range m.clients {
		sn.stores[i] = m.clients[i].src.(Rewindable).Snapshot(sn.stores[i])
	}
	return sn
}

// Restore implements Rewindable.
func (m *MultiSource) Restore(store any) {
	sn := store.(*multiSnap)
	for i := range m.clients {
		m.clients[i].src.(Rewindable).Restore(sn.stores[i])
	}
}

// MultiParams parameterize the "multi" workload kind: an aggregate
// arrival rate fanned out over client cohorts, observed by a window
// analyzer (the spec carries no closed-form model).
type MultiParams struct {
	AggregateRate float64      `json:"aggregate_rate"`
	Clients       []ClientSpec `json:"clients"`
	Window        WindowParams `json:"window,omitzero"`
}

func init() {
	Register("multi", func(raw json.RawMessage) (*Builder, error) {
		var p MultiParams
		if err := DecodeParams(raw, &p); err != nil {
			return nil, err
		}
		// Probe-compile once so spec errors surface at parse time, not
		// mid-replication.
		probe, err := NewMultiSource(p.AggregateRate, p.Clients)
		if err != nil {
			return nil, err
		}
		return &Builder{
			NewSource: func() Source {
				ms, err := NewMultiSource(p.AggregateRate, p.Clients)
				if err != nil {
					panic(err) // validated above
				}
				return ms
			},
			NewAnalyzer: func(Source, float64) Analyzer { return p.Window.analyzer() },
			Clients:     probe.Clients(),
		}, nil
	})
}
