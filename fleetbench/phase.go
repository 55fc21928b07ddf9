package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// phase is one load step of a workload.
type phase struct {
	name  string
	share float64 // fraction of --seconds this phase measures for
	// rate is the open-loop offered load in casts/s over all writers
	// (seeded Poisson arrivals); zero selects a closed loop.
	rate float64
	// window is the closed loop's casts outstanding per writer.
	window int
	// bounded marks a step offered below the fleet's ceiling: a cast
	// it fails to echo is a failed operation. Above the ceiling the
	// share echoed is the measurement.
	bounded bool
}

// phaseRun is the generator's state for the phase being driven.
type phaseRun struct {
	id           byte
	p            phase
	start, end   int64
	active       bool // casts may still be issued
	lat          *hist
	slices       []*hist
	lag          *hist // generator lateness: send instant minus due instant
	windowEchoes uint64
	sliceEchoes  [latSlices]uint64 // window echoes by arrival slice
}

// latSlices is how many equal slices a phase's window is cut into.
// Throughput and latency percentiles are read per slice and reported
// from the least disturbed quarter of them: on a shared host, CPU
// stolen by neighbours only ever slows a slice down, so the fastest
// quarter repeats from run to run where the whole window does not.
const latSlices = 16

// calm is the quantile over slices that is reported: the boundary of
// the fastest quarter.
const calm = 0.25

func newPhaseRun(id byte, p phase) *phaseRun {
	ph := &phaseRun{id: id, p: p, lat: newHist(), lag: newHist(), slices: make([]*hist, latSlices)}
	for i := range ph.slices {
		ph.slices[i] = newHist()
	}
	return ph
}

// slot is the window slice holding instant t.
func (ph *phaseRun) slot(t int64) int {
	i := (t - ph.start) * latSlices / max(ph.end-ph.start, 1)
	return int(min(max(i, 0), latSlices-1))
}

// record adds the latency of a cast due at due (dispatch goroutine).
func (ph *phaseRun) record(due, lat int64) {
	ph.lat.add(lat)
	ph.slices[ph.slot(due)].add(lat)
}

// slicedQuantile reads each slice's q-quantile and returns the calm
// quantile of those values. Slices too thin to support q are left out;
// at least half must count.
func slicedQuantile(slices []*hist, q float64) (float64, error) {
	var vals []float64
	var n uint64
	for _, h := range slices {
		n += h.n
		if v, err := h.quantile(q); err == nil {
			vals = append(vals, v)
		}
	}
	if len(vals)*2 < len(slices) {
		return 0, fmt.Errorf("p%g is supported in %d of %d slices (n=%d)", q*100, len(vals), len(slices), n)
	}
	return quantileOf(vals, calm), nil
}

// arrival draws an endpoint's next open-loop inter-arrival gap.
func (ep *endpoint) arrival(ratePerWriter float64) int64 {
	return int64(ep.rng.ExpFloat64() / ratePerWriter * 1e9)
}

// begin starts driving a phase (dispatch goroutine).
func (g *generator) begin(ph *phaseRun, dur time.Duration) {
	g.ph = ph
	for _, ep := range g.eps {
		ep.leds[ph.id] = &ledger{}
	}
	ph.start = now()
	ph.end = ph.start + int64(dur)
	ph.active = true
	if ph.p.rate == 0 {
		for k := 0; k < ph.p.window; k++ {
			for _, ep := range g.eps {
				g.send(ep, now())
			}
		}
		return
	}
	per := ph.p.rate / float64(len(g.eps))
	for _, ep := range g.eps {
		ep.nextDue = ph.start + ep.arrival(per)
	}
	g.pace(ph)
}

// paceBurst caps the casts one pacing pass sends before yielding the
// dispatcher to echoes; the remainder is owed, not skipped.
const paceBurst = 256

// backoff is how long pacing waits before re-polling a backpressured
// ingress queue.
const backoff = 200 * time.Microsecond

// pace sends every open-loop cast that has come due. It never skips an
// owed cast: while the ingress queue is backpressured it waits, and
// the wait shows in the cast's latency, which runs from its due
// instant. Casts still owed when the window closes are counted missed.
func (g *generator) pace(ph *phaseRun) {
	if g.ph != ph || !ph.active {
		return
	}
	per := ph.p.rate / float64(len(g.eps))
	t := now()
	next := int64(math.MaxInt64)
	for _, ep := range g.eps {
		for sent := 0; ep.nextDue <= t && ep.nextDue < ph.end; sent++ {
			if sent == paceBurst {
				next = t
				break
			}
			if g.net.Backpressured(ep.ingress) {
				next = min(next, t+int64(backoff))
				break
			}
			g.send(ep, ep.nextDue)
			ep.nextDue += ep.arrival(per)
		}
		if ep.nextDue < ph.end {
			next = min(next, ep.nextDue)
		}
	}
	if next == math.MaxInt64 {
		return
	}
	g.net.After(time.Duration(max(next-now(), 0)), func() { g.pace(ph) })
}

// stop closes the issuing window (dispatch goroutine). Open-loop casts
// that came due inside the window are still sent if their ingress
// accepts them; the rest are counted missed.
func (g *generator) stop() {
	ph := g.ph
	ph.active = false
	if ph.p.rate == 0 {
		return
	}
	per := ph.p.rate / float64(len(g.eps))
	for _, ep := range g.eps {
		for ; ep.nextDue < ph.end; ep.nextDue += ep.arrival(per) {
			if g.net.Backpressured(ep.ingress) {
				ep.leds[ph.id].missed++
			} else {
				g.send(ep, ep.nextDue)
			}
		}
	}
}

// pending counts issued casts not yet echoed (dispatch goroutine).
func (g *generator) pending() uint64 {
	var n uint64
	for _, ep := range g.eps {
		n += ep.leds[g.ph.id].pending()
	}
	return n
}

// snap is a cumulative reading of the counters a phase reports as
// window deltas.
type snap struct {
	at                   int64
	cpu                  int64 // process user+sys, ns
	bytesOut, framesOut  uint64
	flushes, ctrlBytes   uint64
	queueDrops, mboxDrop uint64
	encodeErrs           uint64
	obsSampled           uint64
	gcCPU, allCPU        float64 // runtime/metrics cpu-seconds
	pauseNs              uint64
	self                 [nKinds]int64 // Σ over members
	calls                [nKinds]uint64
	genSelf              [nKinds]int64
	genCalls             [nKinds]uint64
}

func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// snapshot reads the counters. It reads only atomics and locked
// counters, never state a dispatcher owns: a member that has fallen
// behind (a closed loop does not wait for non-ingress members) can
// take longer than the whole run to reach a queued request.
func (f *fleet) snapshot() snap {
	var s snap
	s.at = now()
	s.cpu = processCPU()
	metrics.Read(cpuSamples)
	s.gcCPU = cpuSamples[0].Value.Float64()
	s.allCPU = cpuSamples[1].Value.Float64()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.pauseNs = ms.PauseTotalNs
	for _, mb := range f.members {
		ns := mb.net.NetStats()
		s.bytesOut += ns.BytesOut
		s.framesOut += ns.FramesOut
		s.flushes += ns.Flushes
		s.queueDrops += ns.QueueDrops
		s.mboxDrop += ns.MailboxDrops
		s.encodeErrs += ns.EncodeErrors
		s.ctrlBytes += mb.net.Stats().CtrlBytes
		if mb.trace != nil {
			sampled, _ := mb.trace.SampleStats()
			s.obsSampled += sampled
		}
		if mb.lt != nil {
			mb.lt.addTo(&s.self, &s.calls)
		}
	}
	if f.gen.lt != nil {
		f.gen.lt.addTo(&s.genSelf, &s.genCalls)
	}
	return s
}

// diff returns the window delta b - a.
func (b snap) diff(a snap) snap {
	d := snap{
		at: b.at - a.at, cpu: b.cpu - a.cpu,
		bytesOut: b.bytesOut - a.bytesOut, framesOut: b.framesOut - a.framesOut,
		flushes: b.flushes - a.flushes, ctrlBytes: b.ctrlBytes - a.ctrlBytes,
		queueDrops: b.queueDrops - a.queueDrops, mboxDrop: b.mboxDrop - a.mboxDrop,
		encodeErrs: b.encodeErrs - a.encodeErrs,
		obsSampled: b.obsSampled - a.obsSampled,
		gcCPU:      b.gcCPU - a.gcCPU, allCPU: b.allCPU - a.allCPU, pauseNs: b.pauseNs - a.pauseNs,
	}
	for k := range d.self {
		d.self[k] = b.self[k] - a.self[k]
		d.calls[k] = b.calls[k] - a.calls[k]
		d.genSelf[k] = b.genSelf[k] - a.genSelf[k]
		d.genCalls[k] = b.genCalls[k] - a.genCalls[k]
	}
	return d
}

// phaseResult is what one phase measured.
type phaseResult struct {
	p                   phase
	id                  byte
	due, echoed, failed uint64
	missed              uint64
	windowEchoes        uint64
	rate                float64   // echoes per second in the calm slices
	sliceRates          []float64 // echoes per second in each slice
	lat, lag            *hist
	slices              []*hist // latency by due instant, one per latSlices-th of the window
	win                 snap    // counters over the issuing window
	all                 snap    // counters over window and drain
	heapLive            uint64  // live heap after a forced GC at the phase's end
	retained            float64 // live-heap growth since warm-up per echoed cast
	stages              *stageStats
}

// Drain bounds: stop waiting for echoes once none arrived for
// drainIdle, or after drainMax in all.
const (
	drainIdle = 500 * time.Millisecond
	drainMax  = 3 * time.Second
)

// runPhase drives one phase on a warm fleet for dur, then drains it.
func (f *fleet) runPhase(p phase, id byte, dur time.Duration, measureHeap bool) (*phaseResult, error) {
	g := f.gen
	ph := newPhaseRun(id, p)
	before := f.snapshot()
	if err := call(g.net, func() { g.begin(ph, dur) }); err != nil {
		return nil, err
	}
	time.Sleep(dur)
	var echoes uint64
	var sliced [latSlices]uint64
	if err := call(g.net, func() { g.stop(); echoes, sliced = ph.windowEchoes, ph.sliceEchoes }); err != nil {
		return nil, err
	}
	atStop := f.snapshot()

	t0 := time.Now()
	last, lastProgress := uint64(math.MaxUint64), time.Now()
	for time.Since(t0) < drainMax && time.Since(lastProgress) < drainIdle {
		var left uint64
		if err := call(g.net, func() { left = g.pending() }); err != nil {
			return nil, err
		}
		if left == 0 {
			break
		}
		if left < last {
			last, lastProgress = left, time.Now()
		}
		time.Sleep(5 * time.Millisecond)
	}
	r := &phaseResult{p: p, id: id, lat: ph.lat, slices: ph.slices, lag: ph.lag, windowEchoes: echoes}
	r.sliceRates = make([]float64, latSlices)
	for i, n := range sliced {
		r.sliceRates[i] = float64(n) * latSlices / dur.Seconds()
	}
	r.rate = quantileOf(r.sliceRates, 1-calm)
	if err := call(g.net, func() {
		for _, ep := range g.eps {
			led := ep.leds[id]
			led.close()
			r.due += led.due()
			r.echoed += led.once
			r.failed += led.failed()
			r.missed += led.missed
		}
		g.ph = nil
	}); err != nil {
		return nil, err
	}
	end := f.snapshot()
	r.win, r.all = atStop.diff(before), end.diff(before)
	if measureHeap {
		r.heapLive = liveHeap()
		var echoed uint64
		if err := call(g.net, func() {
			for _, ep := range g.eps {
				for _, led := range ep.leds {
					echoed += led.once
				}
			}
		}); err != nil {
			return nil, err
		}
		if echoed > 0 {
			r.retained = (float64(r.heapLive) - float64(f.heapWarm)) / float64(echoed)
		}
	}
	return r, nil
}

// liveHeap forces a collection and returns the bytes still live. The
// second cycle empties the sync.Pool victim caches the first one left.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
