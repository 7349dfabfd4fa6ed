package main

import "time"

// calibration is a fixed piece of host work independent of the simulator:
// a discrete-event loop over a 4-ary heap of 32 Ki events that touches a
// 1 MiB state table at random. Timed between units, it measures how fast
// the host runs at that moment.
//
// On a host shared with other tenants the same unit's wall time swings by
// 40% within seconds, and the calibration swings with it; host timings
// are therefore reported in reference seconds: a span times the host
// speed hostSpeed measured around it. The calibration's code belongs to
// the benchmark, so a change to the simulator moves only the span.
type calibration struct {
	heap  []calEvent
	state []uint32
	x     uint64
	sink  uint32
}

type calEvent struct {
	t  float64
	id int32
}

const (
	calHeap  = 1 << 15
	calState = 1 << 18
	calOps   = 1 << 18

	// calNominal is the calibration's time on the reference host, a
	// 2-vCPU Intel Xeon VM without competing load.
	calNominal = 62500 * time.Microsecond
)

// hostSpeed is the host's speed, relative to the reference host, at a
// moment when the calibration took cal: a host span times hostSpeed is
// the span in reference seconds.
func hostSpeed(cal time.Duration) float64 {
	return float64(calNominal) / float64(cal)
}

func newCalibration() *calibration {
	c := &calibration{heap: make([]calEvent, 0, calHeap), state: make([]uint32, calState), x: 88172645463325252}
	for i := 0; i < calHeap; i++ {
		c.push(calEvent{float64(c.rnd()%1000000) / 1000, int32(i)})
	}
	return c
}

func (c *calibration) rnd() uint64 {
	c.x ^= c.x << 13
	c.x ^= c.x >> 7
	c.x ^= c.x << 17
	return c.x
}

func (c *calibration) push(e calEvent) {
	h := append(c.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if h[p].t <= h[i].t {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	c.heap = h
}

func (c *calibration) pop() calEvent {
	h := c.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		ch := 4*i + 1
		if ch >= len(h) {
			break
		}
		m := ch
		for k := ch + 1; k < ch+4 && k < len(h); k++ {
			if h[k].t < h[m].t {
				m = k
			}
		}
		if h[i].t <= h[m].t {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	c.heap = h
	return top
}

// run times calOps events of the loop.
func (c *calibration) run() time.Duration {
	t0 := time.Now()
	for i := 0; i < calOps; i++ {
		e := c.pop()
		j := int(c.rnd() & (calState - 1))
		c.state[j] += uint32(e.id)
		c.sink += c.state[(j*7919)&(calState-1)]
		c.push(calEvent{e.t + float64(c.rnd()%1000)/1000, e.id})
	}
	return time.Since(t0)
}
