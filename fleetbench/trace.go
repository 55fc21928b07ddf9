package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"catocs/internal/multicast"
	"catocs/internal/transport"
	"catocs/internal/transport/tcpnet"
)

// Span kinds timed in traced runs. Each is the self time of calls into
// one layer, measured around public calls from the benchmark's files.
type spanKind int

const (
	kHandle  spanKind = iota // multicast handlers and timers, excluding nested sends
	kBus                     // pubsub receive handling ("load" ingest), excluding nested calls
	kCast                    // Member.Multicast, excluding nested sends
	kSend                    // tcpnet Send (encode + enqueue)
	kPublish                 // pubsub Publish, excluding nested sends
	kWAL                     // MemberLog.LogCast
	nKinds
)

// traceEvery picks the casts that carry spans: every traceEvery'th
// sequence number of each writer.
const traceEvery = 8

// probeEvery is the period of the timer probes that measure dispatch
// lateness and sample queue depths in traced runs.
const probeEvery = 2 * time.Millisecond

type spanFrame struct {
	kind  spanKind
	start int64
	child int64
}

// castStamps are the boundary instants of one traced cast. The
// generator fills due, send and echo; the ingress member fills ingest,
// cast and deliver.
type castStamps struct {
	due, send, ingest, cast, deliver, echo int64
}

// layerTrace is the traced-run instrumentation of one Net: a stack of
// open spans giving each layer's self time, the boundary stamps of
// traced casts, and the timer-probe samples. Like everything hosted on
// a Net it is touched only from that Net's dispatch goroutine, except
// the self-time totals, which are atomic so a window edge can read them.
type layerTrace struct {
	stack  []spanFrame
	self   [nKinds]atomic.Int64
	calls  [nKinds]atomic.Uint64
	stamps map[uint64]*castStamps

	probeLate *hist
	queueMax  int
	holdMax   int
}

func newLayerTrace() *layerTrace {
	return &layerTrace{stamps: make(map[uint64]*castStamps), probeLate: newHist()}
}

func (t *layerTrace) enter(k spanKind) {
	t.stack = append(t.stack, spanFrame{kind: k, start: now()})
}

func (t *layerTrace) exit() {
	top := len(t.stack) - 1
	f := t.stack[top]
	t.stack = t.stack[:top]
	d := now() - f.start
	t.self[f.kind].Add(d - f.child)
	t.calls[f.kind].Add(1)
	if top > 0 {
		t.stack[top-1].child += d
	}
}

// addTo adds the self-time totals to self and calls.
func (t *layerTrace) addTo(self *[nKinds]int64, calls *[nKinds]uint64) {
	for k := range t.self {
		self[k] += t.self[k].Load()
		calls[k] += t.calls[k].Load()
	}
}

func traced(b []byte) bool {
	return len(b) >= castHeader && b[0] == castMeasured && binary.LittleEndian.Uint64(b[4:12])%traceEvery == 0
}

func (t *layerTrace) stamp(b []byte) *castStamps {
	k := castKey(b)
	s := t.stamps[k]
	if s == nil {
		s = &castStamps{}
		t.stamps[k] = s
	}
	return s
}

func (t *layerTrace) stampSend(b []byte, due, at int64) {
	if traced(b) {
		s := t.stamp(b)
		s.due, s.send = due, at
	}
}

func (t *layerTrace) stampIngest(b []byte) {
	if traced(b) {
		t.stamp(b).ingest = now()
	}
}

func (t *layerTrace) stampCast(b []byte) {
	if traced(b) {
		t.stamp(b).cast = now()
	}
}

func (t *layerTrace) stampDeliver(b []byte) {
	if traced(b) {
		t.stamp(b).deliver = now()
	}
}

func (t *layerTrace) stampEcho(b []byte, at int64) {
	if traced(b) {
		t.stamp(b).echo = at
	}
}

// shim is the transport.Network the traced run inserts between a Mux
// (or the generator's buses) and tcpnet.Net: it times every Send, every
// handler invocation and every timer callback as spans.
type shim struct {
	net *tcpnet.Net
	lt  *layerTrace
}

var _ transport.Network = (*shim)(nil)

// isMulticast reports whether a payload belongs to the multicast layer
// (everything else reaching a member is pubsub traffic).
func isMulticast(p any) bool {
	switch p.(type) {
	case *multicast.DataMsg, *multicast.OrderMsg, *multicast.OrderBatchMsg, *multicast.AckMsg,
		*multicast.NackMsg, *multicast.RetransMsg, *multicast.OrderNack,
		*multicast.ProposeMsg, *multicast.CommitMsg:
		return true
	}
	return false
}

func (s *shim) Register(id transport.NodeID, h transport.Handler) {
	s.net.Register(id, func(from transport.NodeID, p any) {
		k := kBus
		if isMulticast(p) {
			k = kHandle
		}
		s.lt.enter(k)
		h(from, p)
		s.lt.exit()
	})
}

func (s *shim) Send(from, to transport.NodeID, p any) {
	s.lt.enter(kSend)
	s.net.Send(from, to, p)
	s.lt.exit()
}

func (s *shim) Now() time.Duration { return s.net.Now() }

func (s *shim) After(d time.Duration, fn func()) {
	s.net.After(d, func() {
		s.lt.enter(kHandle)
		fn()
		s.lt.exit()
	})
}

// startProbes arms a self-rescheduling timer on every Net of a traced
// fleet. Each firing records how late it ran (the wait a timer or
// message spends behind others in the dispatch mailbox) and samples the
// outbound queues and, on members, the holdback occupancy. The chain
// ends when its Net closes.
func (f *fleet) startProbes() {
	ids := make([]transport.NodeID, 0, f.spec.n+f.spec.writers)
	for i := 0; i < f.spec.n; i++ {
		ids = append(ids, transport.NodeID(i))
	}
	ids = append(ids, genID(0))
	arm := func(n *tcpnet.Net, lt *layerTrace, m func() *multicast.Member) {
		var probe func(due int64)
		probe = func(due int64) {
			lt.probeLate.add(now() - due)
			for _, id := range ids {
				if q, _ := n.Outbound(id); q > lt.queueMax {
					lt.queueMax = q
				}
			}
			if mm := m(); mm != nil {
				if p := mm.PendingCount(); p > lt.holdMax {
					lt.holdMax = p
				}
			}
			next := now() + int64(probeEvery)
			n.After(probeEvery, func() { probe(next) })
		}
		first := now() + int64(probeEvery)
		n.After(probeEvery, func() { probe(first) })
	}
	for _, mb := range f.members {
		mb := mb
		arm(mb.net, mb.lt, func() *multicast.Member { return mb.m })
	}
	arm(f.gen.net, f.gen.lt, func() *multicast.Member { return nil })
}

// stageStats splits the latency of a phase's traced casts into the
// contiguous stages a cast crosses. By construction the stages of one
// cast sum to its latency; the check compares their means with the
// mean latency over every cast of the phase.
type stageStats struct {
	lag, ingress, ingest, order, egress, total *hist
	incomplete                                 uint64 // echoed traced casts missing a member stamp
	spans                                      []span
}

type span struct {
	Name   string `json:"name"`
	Cast   string `json:"cast"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

const maxSpanCasts = 2048

func newStageStats() *stageStats {
	return &stageStats{lag: newHist(), ingress: newHist(), ingest: newHist(), order: newHist(), egress: newHist(), total: newHist()}
}

// stages joins the generator's and the ingress members' stamps for the
// traced casts of one phase.
func (f *fleet) stages(phase byte) *stageStats {
	st := newStageStats()
	for k, g := range f.gen.lt.stamps {
		if byte(k>>48) != phase || g.echo == 0 {
			continue
		}
		writer := int(k >> 56)
		m := f.members[writer].lt.stamps[k]
		if m == nil || m.ingest == 0 || m.cast == 0 || m.deliver == 0 {
			st.incomplete++
			continue
		}
		st.lag.add(g.send - g.due)
		st.ingress.add(m.ingest - g.send)
		st.ingest.add(m.cast - m.ingest)
		st.order.add(m.deliver - m.cast)
		st.egress.add(g.echo - m.deliver)
		st.total.add(g.echo - g.due)
		if len(st.spans) < maxSpanCasts*6 {
			id := fmt.Sprintf("w%d/p%d/%d", writer, phase, k&(1<<48-1))
			st.spans = append(st.spans,
				span{"cast", id, g.due, g.echo, ""},
				span{"gen.lag", id, g.due, g.send, "cast"},
				span{"hop.ingress", id, g.send, m.ingest, "cast"},
				span{"ingest", id, m.ingest, m.cast, "cast"},
				span{"multicast.order_wait", id, m.cast, m.deliver, "cast"},
				span{"hop.egress", id, m.deliver, g.echo, "cast"})
		}
	}
	return st
}

// stageSum is the sum of the stage means in nanoseconds.
func (st *stageStats) stageSum() float64 {
	return st.lag.mean() + st.ingress.mean() + st.ingest.mean() + st.order.mean() + st.egress.mean()
}

// checkStageSum verifies that the traced stages account for the phase's
// mean latency. The stages of each traced cast sum to its latency, so
// their means must sum to the traced casts' mean; and the traced casts
// are a fixed 1-in-traceEvery subset, so that mean must match the mean
// over all casts to within four standard errors (plus 1% for the
// histogram's bucketing).
func checkStageSum(st *stageStats, meanAll float64) error {
	if st.total.n == 0 {
		return fmt.Errorf("no traced cast was echoed")
	}
	if st.incomplete > 0 {
		return fmt.Errorf("%d echoed traced casts have no ingress stamps", st.incomplete)
	}
	sum := st.stageSum()
	if d := sum - st.total.mean(); d > 1 || d < -1 {
		return fmt.Errorf("stage means sum to %.0fns but traced casts average %.0fns", sum, st.total.mean())
	}
	allowed := 4*st.total.stdErr() + 0.01*meanAll
	if d := sum - meanAll; d > allowed || d < -allowed {
		return fmt.Errorf("stage means sum to %.4fms, %.4fms off the mean latency %.4fms of all casts (allowed %.4fms)",
			sum/1e6, d/1e6, meanAll/1e6, allowed/1e6)
	}
	return nil
}

// writeSpans writes the traced casts' spans as JSON.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
