package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"catocs/internal/multicast"
	"catocs/internal/netharness"
	"catocs/internal/obs"
	"catocs/internal/pubsub"
	"catocs/internal/transport"
	"catocs/internal/transport/tcpnet"
	"catocs/internal/vclock"
	"catocs/internal/wal"
)

// epoch anchors the one monotonic clock every timestamp in the
// benchmark is read from; fleet and generator share the process, so
// no cross-clock skew enters a latency.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// Cast payload layout. Every cast is payload bytes: a header naming
// the writer, the phase and the cast's sequence number and due
// instant, then seeded padding.
const (
	castWarm     = 1 // set-up cast, excluded from every metric
	castMeasured = 2
	castHeader   = 20
)

// genID is the NodeID of load-generator endpoint w (ingress rank w).
func genID(w int) transport.NodeID { return transport.NodeID(1000 + w) }

// fleetSpec describes one fleet: the substrate and group size, how
// many members take load (ranks 0..writers-1, one generator endpoint
// each), and the deployment posture.
type fleetSpec struct {
	substrate string
	n         int
	writers   int
	payload   int
	wal       bool // file-backed wal.MemberLog, LogCast before Multicast
	obs       bool // obs.Registry + 1% sampled tracer in tcpnet and multicast
	traced    bool // insert the timing shim and record spans
	seed      int64
	workDir   string // parent directory for WAL files
}

// member is one fleet member: its own tcpnet.Net, a Mux carrying an
// ordered-multicast member and a pubsub endpoint, as
// netharness.StartFleetNode builds them.
type member struct {
	f     *fleet
	rank  int
	net   *tcpnet.Net
	m     *multicast.Member
	bus   *pubsub.Node
	log   *deliveryLog
	flog  *wal.FileLog
	mlog  *wal.MemberLog
	trace *obs.Tracer
	lt    *layerTrace // traced runs only
}

// fleet is a running fleet plus its load generator.
type fleet struct {
	spec     fleetSpec
	members  []*member
	gen      *generator
	walDir   string
	setup    time.Duration
	warm     atomic.Int64 // set-up events still outstanding
	warmed   chan struct{}
	heapWarm uint64 // live heap after set-up
}

// freePorts reserves k loopback ports by binding and releasing them.
func freePorts(k int) ([]string, error) {
	lns := make([]net.Listener, 0, k)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, k)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// call runs fn on a Net's dispatch goroutine and waits for it.
func call(n *tcpnet.Net, fn func()) error {
	done := make(chan struct{})
	n.Inject(func() { fn(); close(done) })
	select {
	case <-done:
		return nil
	case <-time.After(20 * time.Second):
		return errors.New("dispatcher did not respond within 20s")
	}
}

// startFleet builds a fleet and waits until it is warm: every member
// has delivered one cast from each writer and each writer's echo has
// come back. The time from the first constructor call to that point is
// the fleet's set-up time.
func startFleet(spec fleetSpec) (*fleet, error) {
	t0 := time.Now()
	f := &fleet{spec: spec, warmed: make(chan struct{})}
	f.warm.Store(int64(spec.n*spec.writers + spec.writers))
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()

	ports, err := freePorts(spec.n + 1)
	if err != nil {
		return nil, err
	}
	addrs := make(map[transport.NodeID]string, spec.n+spec.writers)
	nodes := make([]transport.NodeID, spec.n)
	for i := range nodes {
		nodes[i] = transport.NodeID(i)
		addrs[nodes[i]] = ports[i]
	}
	genIDs := make([]transport.NodeID, spec.writers)
	for w := range genIDs {
		genIDs[w] = genID(w)
		addrs[genIDs[w]] = ports[spec.n]
	}
	mcfg, err := netharness.SubstrateConfig(spec.substrate)
	if err != nil {
		return nil, err
	}
	if spec.wal {
		if err := os.MkdirAll(spec.workDir, 0o755); err != nil {
			return nil, err
		}
		if f.walDir, err = os.MkdirTemp(spec.workDir, "wal-"); err != nil {
			return nil, err
		}
	}

	for rank := range nodes {
		mb := &member{f: f, rank: rank, log: newDeliveryLog(spec.n)}
		f.members = append(f.members, mb)
		mb.net, err = tcpnet.New(tcpnet.Config{Listen: ports[rank], Local: nodes[rank : rank+1], Addrs: addrs})
		if err != nil {
			return nil, err
		}
		if spec.obs {
			mb.trace = obs.NewSampledTracer(obs.SampleConfig{Rate: 0.01, Seed: uint64(spec.seed)})
			mb.net.Instrument(mb.trace, obs.NewRegistry(), spec.substrate)
		}
		if spec.wal {
			mb.flog, err = wal.OpenFileLog(filepath.Join(f.walDir, fmt.Sprintf("member-%d.wal", rank)))
			if err != nil {
				return nil, err
			}
			if mb.mlog, _, err = wal.OpenMemberLog(mb.flog.Device()); err != nil {
				return nil, err
			}
		}
		if spec.traced {
			mb.lt = newLayerTrace()
		}
	}
	gnet, err := tcpnet.New(tcpnet.Config{Listen: ports[spec.n], Local: genIDs, Addrs: addrs})
	if err != nil {
		return nil, err
	}
	f.gen = newGenerator(f, gnet)

	for _, mb := range f.members {
		mb := mb
		cfg := mcfg
		cfg.Tracer = mb.trace
		var peers []transport.NodeID
		if mb.rank < spec.writers {
			peers = genIDs[mb.rank : mb.rank+1]
		}
		err := call(mb.net, func() {
			var tn transport.Network = mb.net
			if mb.lt != nil {
				tn = &shim{net: mb.net, lt: mb.lt}
			}
			mux := transport.NewMux(tn)
			mb.m = multicast.NewMember(mux, nodes, vclock.ProcessID(mb.rank), cfg, mb.onDeliver)
			mb.bus = pubsub.NewNode(mux, nodes[mb.rank], peers)
			mb.bus.Subscribe("load", pubsub.Latest, mb.onLoad)
		})
		if err != nil {
			return nil, err
		}
	}
	if err := f.gen.start(genIDs); err != nil {
		return nil, err
	}
	select {
	case <-f.warmed:
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("fleet not warm after 30s (%d set-up events outstanding)", f.warm.Load())
	}
	f.setup = time.Since(t0)
	ok = true
	return f, nil
}

// warmEvent counts down one set-up event.
func (f *fleet) warmEvent() {
	if f.warm.Add(-1) == 0 {
		close(f.warmed)
	}
}

// onLoad is the ingress: a "load" publication from the generator is
// logged ahead (with a WAL) and multicast to the group.
func (mb *member) onLoad(ev pubsub.Event) {
	value, ok := ev.Value.([]byte)
	if !ok {
		return
	}
	lt := mb.lt
	if lt != nil {
		lt.stampIngest(value)
	}
	if mb.mlog != nil {
		if lt != nil {
			lt.enter(kWAL)
		}
		mb.mlog.LogCast(value)
		if lt != nil {
			lt.exit()
		}
	}
	if lt != nil {
		lt.stampCast(value)
		lt.enter(kCast)
	}
	mb.m.Multicast(value, len(value))
	if lt != nil {
		lt.exit()
	}
}

// onDeliver checks every ordered delivery and echoes the member's own
// casts back to its generator endpoint as "done".
func (mb *member) onDeliver(d multicast.Delivered) {
	mb.log.deliver(d.ID.Sender, d.ID.Seq, d.VC)
	if d.ID.Seq == 1 && int(d.ID.Sender) < mb.f.spec.writers {
		mb.f.warmEvent()
	}
	if int(d.ID.Sender) != mb.rank {
		return
	}
	payload, ok := d.Payload.([]byte)
	if !ok {
		mb.log.violate("delivered payload of type %T", d.Payload)
		return
	}
	lt := mb.lt
	if lt != nil {
		lt.stampDeliver(payload)
		lt.enter(kPublish)
	}
	mb.bus.Publish("done", payload)
	if lt != nil {
		lt.exit()
	}
}

// close tears the fleet down: generator first, then every member, then
// the WAL files.
func (f *fleet) close() {
	if f.gen != nil {
		f.gen.net.Close()
	}
	for _, mb := range f.members {
		if mb.net != nil {
			mb.net.Close()
		}
		if mb.flog != nil {
			mb.flog.Close()
		}
	}
	if f.walDir != "" {
		os.RemoveAll(f.walDir)
	}
}

// checkOutputs runs the delivery checks over a closed fleet.
func (f *fleet) checkOutputs() []string {
	var out []string
	logs := make([]*deliveryLog, len(f.members))
	for i, mb := range f.members {
		logs[i] = mb.log
		for _, v := range mb.log.viol {
			out = append(out, fmt.Sprintf("rank %d: %s", i, v))
		}
		if extra := mb.log.nviol - uint64(len(mb.log.viol)); extra > 0 {
			out = append(out, fmt.Sprintf("rank %d: %d more violations", i, extra))
		}
	}
	if f.spec.substrate == "abcast" {
		if err := checkAgreement(logs); err != nil {
			out = append(out, err.Error())
		}
	}
	return append(out, f.gen.violations()...)
}

// generator is the in-process load generator: one tcpnet.Net hosting
// one pubsub endpoint per writer, each connected to its ingress member.
// All of its state lives on that Net's dispatch goroutine.
type generator struct {
	f   *fleet
	net *tcpnet.Net
	lt  *layerTrace
	eps []*endpoint
	ph  *phaseRun // the phase being driven; nil between phases
	bad uint64    // echoes that decode to no cast of any writer
}

// endpoint is one writer's generator endpoint.
type endpoint struct {
	idx     int
	ingress transport.NodeID
	bus     *pubsub.Node
	leds    map[byte]*ledger // per phase id
	rng     *rand.Rand       // open-loop arrivals
	nextDue int64
	pad     []byte
	warmed  bool
}

func newGenerator(f *fleet, n *tcpnet.Net) *generator {
	g := &generator{f: f, net: n}
	if f.spec.traced {
		g.lt = newLayerTrace()
	}
	return g
}

// start attaches the endpoints and sends each writer's warm-up cast.
func (g *generator) start(ids []transport.NodeID) error {
	pad := make([]byte, max(g.f.spec.payload-castHeader, 0))
	rand.New(rand.NewSource(g.f.spec.seed)).Read(pad)
	return call(g.net, func() {
		var tn transport.Network = g.net
		if g.lt != nil {
			tn = &shim{net: g.net, lt: g.lt}
		}
		for w, id := range ids {
			ep := &endpoint{
				idx:     w,
				ingress: transport.NodeID(w),
				leds:    make(map[byte]*ledger),
				rng:     rand.New(rand.NewSource(g.f.spec.seed*7919 + int64(w))),
				pad:     pad,
			}
			ep.bus = pubsub.NewNode(tn, id, []transport.NodeID{ep.ingress})
			ep.bus.Subscribe("done", pubsub.Latest, func(ev pubsub.Event) { g.onDone(ep, ev) })
			g.eps = append(g.eps, ep)
		}
		for _, ep := range g.eps {
			ep.bus.Publish("load", g.encode(ep, castWarm, 0, 0, now()))
		}
	})
}

func (g *generator) encode(ep *endpoint, kind, phase byte, seq uint64, due int64) []byte {
	buf := make([]byte, castHeader+len(ep.pad))
	buf[0], buf[1], buf[2] = kind, byte(ep.idx), phase
	binary.LittleEndian.PutUint64(buf[4:12], seq)
	binary.LittleEndian.PutUint64(buf[12:20], uint64(due))
	copy(buf[castHeader:], ep.pad)
	return buf
}

// castKey identifies a cast across the fleet: writer, phase, sequence.
func castKey(b []byte) uint64 {
	return uint64(b[1])<<56 | uint64(b[2])<<48 | binary.LittleEndian.Uint64(b[4:12])&(1<<48-1)
}

// send issues the next cast of ep in the current phase, due at due.
func (g *generator) send(ep *endpoint, due int64) {
	ph := g.ph
	seq := ep.leds[ph.id].issue()
	buf := g.encode(ep, castMeasured, ph.id, seq, due)
	at := now()
	ph.lag.add(at - due)
	if g.lt != nil {
		g.lt.stampSend(buf, due, at)
		g.lt.enter(kPublish)
	}
	ep.bus.Publish("load", buf)
	if g.lt != nil {
		g.lt.exit()
	}
}

// onDone accounts one echo.
func (g *generator) onDone(ep *endpoint, ev pubsub.Event) {
	at := now()
	b, ok := ev.Value.([]byte)
	if !ok || len(b) < castHeader || int(b[1]) != ep.idx {
		g.bad++
		return
	}
	seq := binary.LittleEndian.Uint64(b[4:12])
	due := int64(binary.LittleEndian.Uint64(b[12:20]))
	switch b[0] {
	case castWarm:
		if ep.warmed {
			g.bad++
			return
		}
		ep.warmed = true
		g.f.warmEvent()
		return
	case castMeasured:
	default:
		g.bad++
		return
	}
	led, ok := ep.leds[b[2]]
	if !ok {
		g.bad++
		return
	}
	if !led.echo(seq) {
		return
	}
	ph := g.ph
	if ph == nil || ph.id != b[2] {
		return // a closed phase's ledger has counted it late
	}
	ph.record(due, at-due)
	if at <= ph.end {
		ph.windowEchoes++
		ph.sliceEchoes[ph.slot(at)]++
	}
	if g.lt != nil {
		g.lt.stampEcho(b, at)
	}
	if ph.active && ph.p.rate == 0 {
		g.send(ep, at)
	}
}

// violations lists the generator's output-check failures.
func (g *generator) violations() []string {
	var out []string
	if g.bad > 0 {
		out = append(out, fmt.Sprintf("generator: %d echoes match no issued cast", g.bad))
	}
	for _, ep := range g.eps {
		for id, led := range ep.leds {
			if err := led.violation(); err != nil {
				out = append(out, fmt.Sprintf("writer %d phase %d: %v", ep.idx, id, err))
			}
		}
	}
	return out
}
