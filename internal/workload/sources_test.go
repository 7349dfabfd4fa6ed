package workload

import (
	"math"
	"testing"

	"vmprov/internal/sim"
	"vmprov/internal/stats"
)

func TestPoissonSourceVolume(t *testing.T) {
	src := &PoissonSource{Rate: 5, Service: stats.Deterministic{Value: 1}}
	s := sim.New()
	n := 0
	src.Start(s, stats.NewRNG(1), func(Request) { n++ })
	s.RunUntil(10000)
	want := 50000.0
	if math.Abs(float64(n)-want)/want > 0.03 {
		t.Fatalf("poisson volume %d, want ≈%v", n, want)
	}
	if src.MeanRate(123) != 5 {
		t.Fatal("MeanRate should be the constant rate")
	}
}

func TestPoissonSourceHorizon(t *testing.T) {
	src := &PoissonSource{Rate: 10, Service: stats.Deterministic{Value: 1}, Horizon: 100}
	s := sim.New()
	last := 0.0
	src.Start(s, stats.NewRNG(2), func(q Request) { last = q.Arrival })
	s.Run()
	if last >= 100 {
		t.Fatalf("arrival at %v past horizon", last)
	}
}

func TestPoissonSourceZeroRate(t *testing.T) {
	src := &PoissonSource{Rate: 0, Service: stats.Deterministic{Value: 1}}
	s := sim.New()
	src.Start(s, stats.NewRNG(1), func(Request) { t.Fatal("zero-rate source emitted") })
	s.Run()
}

// TestPoissonExponentialInterarrivals sanity-checks that the gaps are
// exponential: their coefficient of variation is ≈1.
func TestPoissonExponentialInterarrivals(t *testing.T) {
	src := &PoissonSource{Rate: 2, Service: stats.Deterministic{Value: 1}}
	s := sim.New()
	var prev float64
	var w stats.Welford
	src.Start(s, stats.NewRNG(3), func(q Request) {
		w.Add(q.Arrival - prev)
		prev = q.Arrival
	})
	s.RunUntil(50000)
	cv := w.Std() / w.Mean()
	if math.Abs(cv-1) > 0.03 {
		t.Fatalf("interarrival CV = %v, want ≈1", cv)
	}
	if math.Abs(w.Mean()-0.5) > 0.02 {
		t.Fatalf("mean gap = %v, want 0.5", w.Mean())
	}
}

func TestTraceSourceReplaysInOrder(t *testing.T) {
	tr := &TraceSource{Requests: []Request{
		{ID: 3, Arrival: 5, Service: 1},
		{ID: 1, Arrival: 2, Service: 1},
		{ID: 2, Arrival: 2, Service: 1},
	}}
	s := sim.New()
	var got []uint64
	tr.Start(s, stats.NewRNG(1), func(q Request) {
		if q.Arrival != s.Now() {
			t.Fatalf("request %d delivered at %v, stamped %v", q.ID, s.Now(), q.Arrival)
		}
		got = append(got, q.ID)
	})
	s.Run()
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("replay order wrong: %v", got)
	}
	if r := tr.MeanRate(0); math.Abs(r-3.0/5.0) > 1e-12 {
		t.Fatalf("trace mean rate = %v", r)
	}
}

func TestTraceSourceEmpty(t *testing.T) {
	tr := &TraceSource{}
	if tr.MeanRate(0) != 0 {
		t.Fatal("empty trace rate should be 0")
	}
	s := sim.New()
	tr.Start(s, stats.NewRNG(1), func(Request) { t.Fatal("empty trace emitted") })
	s.Run()
}

func TestStepSourceRates(t *testing.T) {
	src := &StepSource{
		Times:   []float64{0, 100, 200},
		Rates:   []float64{1, 10, 2},
		Service: stats.Deterministic{Value: 1},
		Horizon: 300,
	}
	if src.MeanRate(50) != 1 || src.MeanRate(150) != 10 || src.MeanRate(250) != 2 {
		t.Fatal("MeanRate step lookup wrong")
	}
	s := sim.New()
	var seg [3]int
	src.Start(s, stats.NewRNG(4), func(q Request) {
		switch {
		case q.Arrival < 100:
			seg[0]++
		case q.Arrival < 200:
			seg[1]++
		default:
			seg[2]++
		}
	})
	s.Run()
	// Expected ≈ 100, 1000, 200 — allow generous sampling noise.
	if seg[0] < 60 || seg[0] > 140 {
		t.Fatalf("segment 0 count %d, want ≈100", seg[0])
	}
	if seg[1] < 850 || seg[1] > 1150 {
		t.Fatalf("segment 1 count %d, want ≈1000", seg[1])
	}
	if seg[2] < 130 || seg[2] > 280 {
		t.Fatalf("segment 2 count %d, want ≈200", seg[2])
	}
}

func TestStepSourceIdleSegment(t *testing.T) {
	src := &StepSource{
		Times:   []float64{0, 100},
		Rates:   []float64{0, 5},
		Service: stats.Deterministic{Value: 1},
		Horizon: 200,
	}
	s := sim.New()
	first := math.Inf(1)
	n := 0
	src.Start(s, stats.NewRNG(5), func(q Request) {
		if q.Arrival < first {
			first = q.Arrival
		}
		n++
	})
	s.Run()
	if first < 100 {
		t.Fatalf("arrival at %v during idle segment", first)
	}
	if n < 300 {
		t.Fatalf("second segment volume %d, want ≈500", n)
	}
}

func TestOracleAnalyzer(t *testing.T) {
	src := &StepSource{
		Times:   []float64{0, 100},
		Rates:   []float64{2, 8},
		Service: stats.Deterministic{Value: 1},
	}
	o := &OracleAnalyzer{Source: src, Times: []float64{100}}
	s := sim.New()
	type alert struct{ t, l float64 }
	var alerts []alert
	o.Start(s, func(l float64) { alerts = append(alerts, alert{s.Now(), l}) })
	s.Run()
	if len(alerts) != 2 || alerts[0].l != 2 || alerts[1].l != 8 || alerts[1].t != 100 {
		t.Fatalf("oracle alerts wrong: %+v", alerts)
	}
}

func TestWindowAnalyzer(t *testing.T) {
	wa := &WindowAnalyzer{Interval: 10, Windows: 3, Safety: 1.5, Horizon: 100}
	s := sim.New()
	var alerts []float64
	wa.Start(s, func(l float64) { alerts = append(alerts, l) })
	// Feed 20 arrivals in the first window, none later.
	for i := 0; i < 20; i++ {
		at := float64(i) * 0.4
		s.At(at, func() { wa.Observe(s.Now()) })
	}
	s.RunUntil(60)
	if len(alerts) < 5 {
		t.Fatalf("got %d alerts, want ≥5", len(alerts))
	}
	// First alert: 20 arrivals / 10 s × 1.5 = 3.
	if math.Abs(alerts[0]-3) > 1e-9 {
		t.Fatalf("first window estimate = %v, want 3", alerts[0])
	}
	// Max-of-3-windows memory keeps the estimate at 3 for two more
	// windows, then it drops to 0.
	if alerts[1] != 3 || alerts[2] != 3 {
		t.Fatalf("window memory broken: %v", alerts)
	}
	if alerts[3] != 0 {
		t.Fatalf("estimate should decay to 0 after memory expires: %v", alerts)
	}
}

func TestARAnalyzerTracksRamp(t *testing.T) {
	ar := &ARAnalyzer{Interval: 10, Order: 1, Fit: 12, Safety: 1}
	s := sim.New()
	var alerts []float64
	ar.Start(s, func(l float64) { alerts = append(alerts, l) })
	// Arrival rate ramps: window i gets 10+5i arrivals.
	for win := 0; win < 20; win++ {
		n := 10 + 5*win
		for i := 0; i < n; i++ {
			at := float64(win)*10 + float64(i)/float64(n)*10
			s.At(at, func() { ar.Observe(s.Now()) })
		}
	}
	s.RunUntil(200)
	if len(alerts) < 15 {
		t.Fatalf("got %d alerts", len(alerts))
	}
	// Late in the ramp the AR(1) forecast should anticipate growth: the
	// prediction after window 19 (rate 10.5/s) should exceed the last
	// observed rate.
	last := alerts[len(alerts)-1]
	if last < 10.5 {
		t.Fatalf("AR forecast %v does not extrapolate the ramp (last observed 10.5)", last)
	}
	if last > 14 {
		t.Fatalf("AR forecast %v wildly overshoots", last)
	}
}

func TestARAnalyzerConstantSeries(t *testing.T) {
	ar := &ARAnalyzer{Interval: 10, Order: 2, Safety: 1}
	s := sim.New()
	var alerts []float64
	ar.Start(s, func(l float64) { alerts = append(alerts, l) })
	for win := 0; win < 15; win++ {
		for i := 0; i < 40; i++ {
			at := float64(win)*10 + float64(i)*0.25
			s.At(at, func() { ar.Observe(s.Now()) })
		}
	}
	s.RunUntil(150) // stop at the last full window
	// A constant 4/s series must predict ≈4 (singular fits fall back to
	// the last observation, which is also 4).
	last := alerts[len(alerts)-1]
	if math.Abs(last-4) > 0.2 {
		t.Fatalf("constant series forecast = %v, want ≈4", last)
	}
}

// Self-rescheduling arrival chains intern their callback once and
// reschedule through ScheduleFire: a warmed chain runs without
// allocating, whatever its length.
func TestWarmedArrivalChainsDoNotAllocate(t *testing.T) {
	chains := []struct {
		name string
		src  Source
	}{
		{"renewal", &RenewalSource{
			Rate: 500, Gap: stats.UnitMeanGamma(2),
			Modulate: PatternSpec{Kind: PatternBurst, Factor: 2, Period: 30, Duration: 5}.Multiplier,
			Service:  stats.Deterministic{Value: 0.1},
		}},
		{"poisson", &PoissonSource{Rate: 500, Service: stats.Deterministic{Value: 0.1}}},
	}
	for _, c := range chains {
		s := sim.New()
		n := 0
		c.src.Start(s, stats.NewRNG(1), func(Request) { n++ })
		s.RunUntil(10)
		if allocs := testing.AllocsPerRun(20, func() { s.RunUntil(s.Now() + 5) }); allocs != 0 {
			t.Errorf("%s chain: %v allocs per 5 s of arrivals, want 0", c.name, allocs)
		}
		if n < 500*100/2 {
			t.Errorf("%s chain emitted only %d arrivals", c.name, n)
		}
	}
}
