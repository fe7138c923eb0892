package main

import "time"

// probe is a fixed loop of arithmetic and scattered writes over an L2-sized
// buffer, timed before every request. On a shared host the CPU's speed
// drifts by tens of percent over minutes, and the probe's time follows it.
// A request's time divided by the probe time just before it is a cost that
// drifts far less with the machine (wall_probes).
type probe struct {
	buf [1 << 16]uint32
}

// run times one probe loop, in ms.
func (p *probe) run() float64 {
	t0 := time.Now()
	x := uint32(1)
	for i := 0; i < 2_000_000; i++ {
		x = x*1664525 + 1013904223
		p.buf[x>>16] += x
	}
	return float64(time.Since(t0)) / 1e6
}
