package main

import (
	"strings"
	"testing"

	"catocs/internal/vclock"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		q    float64
		want bool
	}{
		{1000, 0.99, true}, {999, 0.99, false},
		{20, 0.5, true}, {19, 0.5, false},
		{0, 0.5, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(n=%d, q=%g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	h := newHist()
	for i := int64(1); i <= 1000; i++ {
		h.add(i * 1000) // 1µs .. 1ms
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 500e3}, {0.99, 990e3}} {
		got, err := h.quantile(c.q)
		if err != nil {
			t.Fatalf("quantile(%g): %v", c.q, err)
		}
		if rel := (got - c.want) / c.want; rel > 0.001 || rel < -0.001 {
			t.Errorf("quantile(%g) = %.0f, want %.0f within 0.1%%", c.q, got, c.want)
		}
	}
	if _, err := h.quantile(0.999); err == nil || !strings.Contains(err.Error(), "n=1000") {
		t.Errorf("p99.9 of 1000 samples: err = %v, want an error naming n=1000", err)
	}
	if label := h.pctLabel(0.99); !strings.Contains(label, "(n=1000)") {
		t.Errorf("pctLabel = %q, want the sample count", label)
	}
}

func TestLedgerFailAccounting(t *testing.T) {
	var l ledger
	for i := 0; i < 5; i++ {
		l.issue()
	}
	l.missed = 2 // due in the window, never sent
	for _, seq := range []uint64{1, 2, 2, 2, 3} {
		l.echo(seq)
	}
	if got := l.pending(); got != 2 {
		t.Errorf("pending = %d, want 2 (seqs 4 and 5)", got)
	}
	l.close()
	if l.echo(4) {
		t.Error("an echo after the drain deadline counted as timely")
	}
	if l.echo(9) {
		t.Error("an echo of a never-issued seq counted")
	}
	// Due 7; exactly once: 1 and 3. Failed: 2 (duplicated), 4 (late),
	// 5 (lost), and the two missed.
	if l.due() != 7 || l.once != 2 || l.failed() != 5 {
		t.Errorf("due=%d once=%d failed=%d, want 7, 2, 5", l.due(), l.once, l.failed())
	}
	if l.late != 1 || l.dups != 2 || l.phant != 1 {
		t.Errorf("late=%d dups=%d phantoms=%d, want 1, 2, 1", l.late, l.dups, l.phant)
	}
	err := l.violation()
	if err == nil || !strings.Contains(err.Error(), "2 duplicate and 1 phantom") {
		t.Errorf("violation = %v, want duplicates and phantoms reported", err)
	}
	var clean ledger
	clean.issue()
	clean.echo(1)
	if err := clean.violation(); err != nil || clean.failed() != 0 {
		t.Errorf("clean ledger: violation=%v failed=%d", err, clean.failed())
	}
}

func stagesOf(casts [][6]int64) *stageStats {
	st := newStageStats()
	for _, c := range casts {
		due, send, ingest, cast, deliver, echo := c[0], c[1], c[2], c[3], c[4], c[5]
		st.lag.add(send - due)
		st.ingress.add(ingest - send)
		st.ingest.add(cast - ingest)
		st.order.add(deliver - cast)
		st.egress.add(echo - deliver)
		st.total.add(echo - due)
	}
	return st
}

func TestStageSumIdentity(t *testing.T) {
	st := stagesOf([][6]int64{
		{0, 10, 110, 130, 1130, 1200},
		{5000, 5000, 5150, 5160, 7160, 7300},
	})
	mean := (1200.0 + 2300.0) / 2
	if d := st.stageSum() - mean; d > 1e-9 || d < -1e-9 {
		t.Fatalf("stage means sum to %g, traced mean latency %g", st.stageSum(), mean)
	}
	if err := checkStageSum(st, mean); err != nil {
		t.Errorf("matching means: %v", err)
	}
	// Two casts leave a wide sampling error; many alike pin the mean.
	var many [][6]int64
	for i := int64(0); i < 1000; i++ {
		many = append(many, [6]int64{i, i + 10, i + 110, i + 130, i + 1130, i + 1200 + i%3})
	}
	tight := stagesOf(many)
	if err := checkStageSum(tight, tight.total.mean()*1.005); err != nil {
		t.Errorf("within 1%%: %v", err)
	}
	if err := checkStageSum(tight, tight.total.mean()*1.1); err == nil {
		t.Error("a stage sum 10% off the mean latency of all casts passed")
	}
	st.incomplete = 1
	if err := checkStageSum(st, mean); err == nil {
		t.Error("an echoed traced cast without member stamps passed")
	}
	if err := checkStageSum(stagesOf(nil), mean); err == nil {
		t.Error("a phase with no traced casts passed")
	}
}

func deliverAll(d *deliveryLog, ids [][2]uint64) {
	for _, id := range ids {
		d.deliver(vclock.ProcessID(id[0]), id[1], nil)
	}
}

func TestChecksFireOnReorderedDeliveryLog(t *testing.T) {
	inOrder := [][2]uint64{{0, 1}, {1, 1}, {0, 2}, {1, 2}, {0, 3}}
	good := newDeliveryLog(2)
	deliverAll(good, inOrder)
	if good.nviol != 0 {
		t.Fatalf("in-order log flagged: %v", good.viol)
	}

	fifo := newDeliveryLog(2)
	deliverAll(fifo, [][2]uint64{{0, 1}, {0, 3}, {0, 2}})
	if fifo.nviol == 0 || !strings.Contains(fifo.viol[0], "FIFO") {
		t.Errorf("reordered sender stream not flagged: %v", fifo.viol)
	}

	causal := newDeliveryLog(2)
	causal.deliver(1, 1, vclock.VC{1, 1}) // depends on 0:1, not yet delivered
	if causal.nviol == 0 || !strings.Contains(causal.viol[0], "causal") {
		t.Errorf("delivery ahead of its causal past not flagged: %v", causal.viol)
	}
	ok := newDeliveryLog(2)
	ok.deliver(0, 1, vclock.VC{1, 0})
	ok.deliver(1, 1, vclock.VC{1, 1})
	if ok.nviol != 0 {
		t.Errorf("causally ordered deliveries flagged: %v", ok.viol)
	}

	swapped := newDeliveryLog(2)
	deliverAll(swapped, [][2]uint64{{1, 1}, {0, 1}, {0, 2}, {1, 2}, {0, 3}})
	if swapped.nviol != 0 {
		t.Fatalf("swap across senders is FIFO-legal, flagged: %v", swapped.viol)
	}
	if err := checkAgreement([]*deliveryLog{good, swapped}); err == nil {
		t.Error("two members with different delivery orders agreed")
	}
	same := newDeliveryLog(2)
	deliverAll(same, inOrder[:3]) // a shorter prefix of the same order
	if err := checkAgreement([]*deliveryLog{good, same}); err != nil {
		t.Errorf("members agreeing on their common prefix: %v", err)
	}
}

func TestAgreementOverLongLogs(t *testing.T) {
	a, b := newDeliveryLog(2), newDeliveryLog(2)
	const n = 3 * digestTail
	for i := uint64(1); i <= n; i++ {
		a.deliver(0, i, nil)
		if i <= n-digestTail-7 { // b lags by more than the tail
			b.deliver(0, i, nil)
		}
	}
	if err := checkAgreement([]*deliveryLog{a, b}); err != nil {
		t.Errorf("same order, far apart: %v", err)
	}
	c := newDeliveryLog(2)
	for i := uint64(1); i <= 2*digestEvery; i++ {
		c.deliver(vclock.ProcessID(i%2), (i+1)/2, nil)
	}
	d := newDeliveryLog(2)
	for i := uint64(1); i <= 2*digestEvery; i++ {
		d.deliver(vclock.ProcessID((i+1)%2), (i+1)/2, nil)
	}
	if err := checkAgreement([]*deliveryLog{c, d}); err == nil {
		t.Error("different orders at a checkpoint boundary agreed")
	}
}

// TestFleetSmoke drives every workload's phases briefly on a real
// loopback fleet and expects clean output checks.
func TestFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts TCP fleets")
	}
	for _, w := range workloads {
		w := w
		if w.n > 3 {
			continue // the 16-member fleet is too heavy for a unit test
		}
		for _, traced := range []bool{false, true} {
			ps, err := runPass(w, 1, 0.6, traced, t.TempDir(), func(string, ...any) {})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if len(ps.violations) > 0 {
				t.Errorf("%s traced=%v: %v", w.name, traced, ps.violations)
			}
			for _, p := range w.phases {
				r := ps.phases[p.name]
				if r == nil || r.due == 0 || r.echoed == 0 {
					t.Errorf("%s traced=%v phase %s: nothing echoed", w.name, traced, p.name)
				} else if p.rate == 0 && r.failed > 0 {
					// Closed loops cannot overload the fleet; an open-loop
					// step can, on a build slowed by the race detector.
					t.Errorf("%s traced=%v phase %s: %d of %d casts failed", w.name, traced, p.name, r.failed, r.due)
				}
			}
		}
	}
}
