// Command fleetbench is the repository's end-to-end benchmark. It runs
// an in-process fleet over loopback TCP: every member has its own
// tcpnet.Net and is built from the same constructors and substrate
// configuration as netharness.StartFleetNode (tcpnet → transport.Mux →
// multicast.Member + pubsub.Node). One load generator in the same
// process hosts one pubsub endpoint per writer on a single tcpnet.Net
// and drives each cast along the whole path: publish "load", ingress
// Member.Multicast, ordered delivery, and the "done" echo back.
//
// Usage (from the repository root; fleetbench/run.sh builds and runs it):
//
//	fleetbench --workload causal-sat --seed 1 --seconds 20 --trace 0
//
// It prints a run header, one line per phase, every metric by name
// with its unit, and as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the run is made
// twice, untraced and then with per-layer timing, and the metrics are
// the per-layer ones. Any output-check violation makes correct false
// and the exit status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark input: a fleet shape and its load phases.
type workload struct {
	name      string
	substrate string
	n         int
	writers   int
	payload   int
	wal, obs  bool
	// fresh runs every phase on its own newly built fleet.
	fresh  bool
	phases []phase
	// tputPhase supplies throughput and echo ratio; loadPhase the loaded
	// latency and the per-cast costs; "light" the light-load latency.
	tputPhase, loadPhase string
}

var workloads = []workload{
	{
		name: "causal-sat", substrate: "cbcast", n: 3, writers: 2, payload: 64,
		phases: []phase{
			{name: "light", share: 0.2, window: 1, bounded: true},
			{name: "sat", share: 0.8, window: 128, bounded: true},
		},
		tputPhase: "sat", loadPhase: "sat",
	},
	{
		name: "total-sat", substrate: "abcast", n: 3, writers: 2, payload: 64,
		wal: true, obs: true,
		phases: []phase{
			{name: "light", share: 0.2, window: 1, bounded: true},
			{name: "sat", share: 0.8, window: 128, bounded: true},
		},
		tputPhase: "sat", loadPhase: "sat",
	},
	{
		// Open loop at fixed rates, each step on a fresh fleet. Its
		// latencies ride on timer wake-ups (the generator's pacing and
		// the sequencer's 1 ms order flush), which drift with the host
		// between runs; it is run on request, not listed in
		// BENCHMARK.json. The throughput it reports is the goodput of
		// the overload step.
		name: "total-rate", substrate: "abcast", n: 3, writers: 2, payload: 64,
		wal: true, obs: true, fresh: true,
		phases: []phase{
			{name: "light", share: 0.35, rate: 10000, bounded: true},
			{name: "mid", share: 0.45, rate: 20000, bounded: true},
			{name: "over", share: 0.2, rate: 150000},
		},
		tputPhase: "over", loadPhase: "mid",
	},
	{
		name: "wide-sparse", substrate: "cbcast", n: 16, writers: 2, payload: 64,
		phases: []phase{
			{name: "light", share: 0.2, window: 1, bounded: true},
			{name: "sat", share: 0.8, window: 32, bounded: true},
		},
		tputPhase: "sat", loadPhase: "sat",
	},
}

// setupSamples is how many fleets a measured run sets up; setup_s is
// their median.
const setupSamples = 15

// pass is one run of a workload's phases.
type pass struct {
	phases     map[string]*phaseResult
	setups     []float64
	violations []string
	delivered  uint64 // deliveries run through the FIFO check
	causal     uint64 // of which carried a vector clock for the causal check
	// Read from closed fleets, over their whole life.
	ownCasts   uint64 // casts delivered back to their sender
	latSamples uint64 // Σ Member.Latency.Count()
	walCasts   uint64
	walBytes   uint64
	probeLate  *hist
	queueMax   int
	holdMax    int
	spans      []span
}

func runPass(w workload, seed int64, seconds float64, tracedRun bool, workDir string, log func(string, ...any)) (*pass, error) {
	spec := fleetSpec{
		substrate: w.substrate, n: w.n, writers: w.writers, payload: w.payload,
		wal: w.wal, obs: w.obs, traced: tracedRun, seed: seed, workDir: workDir,
	}
	ps := &pass{phases: make(map[string]*phaseResult), probeLate: newHist()}
	runFleet := func(phases []phase, first byte) error {
		f, err := startFleet(spec)
		if err != nil {
			return fmt.Errorf("set up %s fleet: %w", w.name, err)
		}
		ps.setups = append(ps.setups, f.setup.Seconds())
		f.heapWarm = liveHeap()
		if tracedRun {
			f.startProbes()
		}
		var results []*phaseResult
		for i, p := range phases {
			dur := time.Duration(seconds * p.share * float64(time.Second))
			r, err := f.runPhase(p, first+byte(i), dur, p.name == w.loadPhase)
			if err != nil {
				f.close()
				return fmt.Errorf("phase %s: %w", p.name, err)
			}
			results = append(results, r)
			ps.phases[p.name] = r
			log("phase %-5s %s\n", p.name, describe(r))
		}
		f.close()
		settle()
		ps.violations = append(ps.violations, f.checkOutputs()...)
		for _, mb := range f.members {
			ps.delivered += mb.log.total.Load()
			ps.causal += mb.log.withVC
			ps.ownCasts += mb.log.count[mb.rank]
			ps.latSamples += uint64(mb.m.Latency.Count())
			if mb.mlog != nil {
				ps.walCasts += mb.mlog.CastCount()
				ps.walBytes += mb.mlog.Device().Bytes()
			}
		}
		if tracedRun {
			for _, mb := range f.members {
				ps.probeLate.merge(mb.lt.probeLate)
				ps.queueMax = max(ps.queueMax, mb.lt.queueMax)
				ps.holdMax = max(ps.holdMax, mb.lt.holdMax)
			}
			ps.probeLate.merge(f.gen.lt.probeLate)
			ps.queueMax = max(ps.queueMax, f.gen.lt.queueMax)
			for _, r := range results {
				r.stages = f.stages(r.id)
				ps.spans = append(ps.spans, r.stages.spans...)
			}
		}
		return nil
	}
	if w.fresh {
		for i, p := range w.phases {
			if err := runFleet([]phase{p}, byte(i+1)); err != nil {
				return nil, err
			}
		}
	} else if err := runFleet(w.phases, 1); err != nil {
		return nil, err
	}
	if !tracedRun {
		// More fleets are set up (and torn down) after the measured ones,
		// so that setup_s is a median over setupSamples fleets.
		for len(ps.setups) < setupSamples {
			f, err := startFleet(spec)
			if err != nil {
				return nil, fmt.Errorf("set up %s fleet: %w", w.name, err)
			}
			ps.setups = append(ps.setups, f.setup.Seconds())
			f.close()
			ps.violations = append(ps.violations, f.checkOutputs()...)
		}
	}
	return ps, nil
}

// settle gives timers armed by a closed fleet time to fire and release
// it, so the next fleet's heap baseline does not count its remains.
func settle() { time.Sleep(100 * time.Millisecond) }

func describe(r *phaseResult) string {
	load := fmt.Sprintf("closed %d/writer", r.p.window)
	if r.p.rate > 0 {
		load = fmt.Sprintf("open %.0f/s", r.p.rate)
	}
	secs := float64(r.win.at) / 1e9
	rates := append([]float64(nil), r.sliceRates...)
	sort.Float64s(rates)
	return fmt.Sprintf("%-16s %.2fs due=%d echoed=%d failed=%d missed=%d rate=%.0f/s (slices min/calm/max %.0f/%.0f/%.0f) latency %s gen-lag %s",
		load, secs, r.due, r.echoed, r.failed, r.missed, float64(r.windowEchoes)/secs,
		rates[0], r.rate, rates[len(rates)-1], r.lat.pctLabel(0.99), r.lag.pctLabel(0.99))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet struct {
	m    map[string]metric
	errs []string
}

func (s *metricSet) set(name, unit string, v float64) {
	if s.m == nil {
		s.m = make(map[string]metric)
	}
	s.m[name] = metric{Value: v, Unit: unit}
}

// setPct records a latency percentile in milliseconds, or an error
// when the sample cannot support it.
func (s *metricSet) setPct(name string, h *hist, q float64) {
	v, err := h.quantile(q)
	s.setMs(name, v, err)
}

// setSliced records a phase's latency percentile as read from the calm
// slices of its window (see latSlices).
func (s *metricSet) setSliced(name string, r *phaseResult, q float64) {
	v, err := slicedQuantile(r.slices, q)
	s.setMs(name, v, err)
}

func (s *metricSet) setMs(name string, ns float64, err error) {
	if err != nil {
		s.errs = append(s.errs, fmt.Sprintf("%s: %v", name, err))
	}
	s.set(name, "ms", ns/1e6)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// endToEnd computes the end-to-end metrics of an untraced pass.
func endToEnd(w workload, ps *pass) *metricSet {
	var s metricSet
	tput, load, light := ps.phases[w.tputPhase], ps.phases[w.loadPhase], ps.phases["light"]
	s.set("setup_s", "s", median(ps.setups))
	s.set("throughput_msgs_s", "msgs/s", tput.rate)
	s.set("echo_ratio", "ratio", ratio(float64(tput.echoed), float64(tput.due)))
	s.setSliced("lat_p50_ms", load, 0.5)
	s.setSliced("lat_p50_ms.light", light, 0.5)
	casts := float64(load.windowEchoes)
	s.set("cpu_us_per_msg", "us", ratio(float64(load.win.cpu)/1e3, casts))
	s.set("wire_b_per_msg", "B", ratio(float64(load.win.bytesOut), casts))
	s.set("heap_live_mb", "MB", float64(load.heapLive)/(1<<20))
	s.set("retained_b_per_msg", "B", load.retained)
	return &s
}

// perLayer computes the per-layer metrics of a traced pass. Timings
// and per-cast costs come from the workload's load phase, except the
// WAL bytes and latency samples per cast, which are read from the
// closed fleets over their whole life; drops, errors, queue and
// holdback maxima, dispatch lateness and missed casts cover every
// phase, so an overload step shows in them.
func perLayer(w workload, ps *pass) *metricSet {
	var s metricSet
	load := ps.phases[w.loadPhase]
	d := load.win
	casts := float64(load.windowEchoes)
	us := func(ns int64, n float64) float64 { return ratio(float64(ns)/1e3, n) }
	s.set("multicast.cast_us", "us", us(d.self[kCast], float64(d.calls[kCast])))
	s.set("multicast.handle_us", "us", us(d.self[kHandle], casts))
	s.set("tcpnet.send_us", "us", us(d.self[kSend], casts))
	s.set("tcpnet.sends_per_msg", "count", ratio(float64(d.calls[kSend]), casts))
	s.set("runtime.gc_cpu_frac", "ratio", ratio(d.gcCPU, d.allCPU))
	s.set("runtime.gc_pause_ms", "ms", float64(d.pauseNs)/1e6)
	st := load.stages
	s.setPct("multicast.order_wait_ms.p50", st.order, 0.5)
	s.setPct("multicast.order_wait_ms.p99", st.order, 0.99)
	s.setPct("hop.ingress_ms.p50", st.ingress, 0.5)
	s.setPct("hop.ingress_ms.p99", st.ingress, 0.99)
	s.setPct("hop.egress_ms.p50", st.egress, 0.5)
	s.setPct("hop.egress_ms.p99", st.egress, 0.99)
	s.set("pubsub.publish_us", "us", us(d.self[kPublish]+d.genSelf[kPublish], float64(d.calls[kPublish]+d.genCalls[kPublish])))
	s.set("multicast.ctrl_b_per_msg", "B", ratio(float64(d.ctrlBytes), casts))
	s.setPct("tcpnet.mailbox_wait_ms.p99", ps.probeLate, 0.99)
	s.set("tcpnet.queue_max_msgs", "count", float64(ps.queueMax))
	s.set("tcpnet.frames_per_flush", "count", ratio(float64(d.framesOut), float64(d.flushes)))
	var qd, md, ee, missed uint64
	for _, r := range ps.phases {
		qd += r.all.queueDrops
		md += r.all.mboxDrop
		ee += r.all.encodeErrs
		missed += r.missed
	}
	s.set("tcpnet.queue_drops", "count", float64(qd))
	s.set("tcpnet.mailbox_drops", "count", float64(md))
	s.set("tcpnet.encode_errors", "count", float64(ee))
	s.set("multicast.holdback_max", "count", float64(ps.holdMax))
	// WAL cost as its share of the process's CPU: a share, not a time,
	// because the two WAL-less workloads have no appends to time.
	s.set("wal.append_share", "ratio", ratio(float64(d.self[kWAL]), float64(d.cpu)))
	s.set("wal.b_per_msg", "B", ratio(float64(ps.walBytes), float64(ps.walCasts)))
	s.set("obs.sampled_msgs", "count", float64(d.obsSampled))
	s.set("metrics.samples_per_msg", "count", ratio(float64(ps.latSamples), float64(ps.ownCasts)))
	s.setPct("gen.lag_p99_ms", load.lag, 0.99)
	s.set("gen.missed", "count", float64(missed))
	return &s
}

// commit is the source revision, set at link time by run.sh.
var commit = "unknown"

func printMetrics(s *metricSet, note map[string]string) {
	names := make([]string, 0, len(s.m))
	for k := range s.m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-30s %14.6g %-6s %s\n", k, s.m[k].Value, s.m[k].Unit, note[k])
	}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	name := flag.String("workload", "", "workload: "+strings.Join(names, " | "))
	seed := flag.Int64("seed", 1, "workload seed (arrivals, payload padding, trace sampling)")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workDir := flag.String("workdir", ".bench_build", "directory for WAL files and span output")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *workDir); err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(2)
	}
}

func run(name string, seed int64, seconds float64, tracedRun bool, workDir string) error {
	var w workload
	for _, c := range workloads {
		if c.name == name {
			w = c
		}
	}
	if w.name == "" {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	fmt.Printf("# fleetbench: in-process fleet, loopback TCP | nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	fmt.Printf("# workload=%s substrate=%s N=%d writers=%d payload=%dB wal=%v obs=%v seed=%d seconds=%g trace=%v\n",
		w.name, w.substrate, w.n, w.writers, w.payload, w.wal, w.obs, seed, seconds, tracedRun)
	log := func(format string, args ...any) { fmt.Printf(format, args...) }

	res := result{Correct: true}
	var violations []string
	account := func(ps *pass) {
		fmt.Printf("# output checks: %d deliveries FIFO-checked, %d of them causal-checked, %d violations\n",
			ps.delivered, ps.causal, len(ps.violations))
		violations = append(violations, ps.violations...)
		for _, r := range ps.phases {
			res.Attempted += r.due
			if r.p.bounded {
				res.Failed += r.failed
			}
		}
	}

	untracedSecs := seconds
	if tracedRun {
		untracedSecs = seconds / 2
	}
	base, err := runPass(w, seed, untracedSecs, false, workDir, log)
	if err != nil {
		return err
	}
	account(base)
	e2e := endToEnd(w, base)
	violations = append(violations, e2e.errs...)
	note := map[string]string{
		"throughput_msgs_s": "[" + w.tputPhase + "]", "echo_ratio": "[" + w.tputPhase + "]",
		"lat_p50_ms":       "[" + w.loadPhase + "] " + base.phases[w.loadPhase].lat.pctLabel(0.99),
		"lat_p50_ms.light": "[light] " + base.phases["light"].lat.pctLabel(0.99),
		"setup_s":          fmt.Sprintf("median of %v", base.setups),
	}
	tput := base.phases[w.tputPhase]
	note["echo_ratio"] += fmt.Sprintf(" fail_ratio=%.6f (%d of %d due casts not echoed exactly once)",
		ratio(float64(tput.failed), float64(tput.due)), tput.failed, tput.due)
	out := e2e
	if tracedRun {
		tr, err := runPass(w, seed, seconds/2, true, workDir, log)
		if err != nil {
			return err
		}
		account(tr)
		traced := endToEnd(w, tr)
		fmt.Println("# tracing overhead (traced minus untraced, same seed, half the seconds each):")
		for _, k := range []string{"throughput_msgs_s", "lat_p50_ms", "lat_p50_ms.light", "cpu_us_per_msg"} {
			a, b := e2e.m[k].Value, traced.m[k].Value
			fmt.Printf("#   %-18s untraced %.6g traced %.6g delta %+.6g (%+.1f%%)\n", k, a, b, b-a, 100*ratio(b-a, a))
		}
		out = perLayer(w, tr)
		violations = append(violations, out.errs...)
		for _, p := range w.phases {
			r := tr.phases[p.name]
			st := r.stages
			fmt.Printf("# stages %-5s lag %.4f + ingress %.4f + ingest/wal %.4f + order %.4f + egress %.4f = %.4f ms (traced casts n=%d) vs mean %.4f ms (all casts n=%d)\n",
				p.name, st.lag.mean()/1e6, st.ingress.mean()/1e6, st.ingest.mean()/1e6, st.order.mean()/1e6, st.egress.mean()/1e6,
				st.stageSum()/1e6, st.total.n, r.lat.mean()/1e6, r.lat.n)
			if p.bounded {
				if err := checkStageSum(st, r.lat.mean()); err != nil {
					violations = append(violations, fmt.Sprintf("stage sum (%s): %v", p.name, err))
				}
			}
		}
		if d := tr.phases[w.loadPhase].win; d.calls[kWAL] > 0 {
			fmt.Printf("# wal append [%s]: %.3f us per append over %d appends\n",
				w.loadPhase, float64(d.self[kWAL])/1e3/float64(d.calls[kWAL]), d.calls[kWAL])
		}
		path := filepath.Join(workDir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, seed))
		if err := writeSpans(path, tr.spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("# spans of %d traced casts written to %s\n", len(tr.spans)/6, path)
	}
	printMetrics(out, note)
	if len(violations) > 0 {
		res.Correct = false
		fmt.Printf("# OUTPUT CHECK FAILED: %d violations\n", len(violations))
		for _, v := range violations {
			fmt.Println("#   " + strings.TrimSpace(v))
		}
	}
	res.Metrics = out.m
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}
