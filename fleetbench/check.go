package main

import (
	"fmt"
	"sync/atomic"

	"catocs/internal/vclock"
)

// deliveryLog checks one member's delivery stream as it happens: per
// sender FIFO, the causal condition wherever a delivery carries its
// vector clock, and a running digest of the delivery order so members
// of a total order can be compared afterwards. It is touched only from
// its member's dispatch goroutine; total is atomic so the set-up wait
// can watch it.
type deliveryLog struct {
	count []uint64 // deliveries per sender rank
	total atomic.Uint64

	// Order digest: FNV-1a over packed (sender, seq) ids, with the
	// running value kept at every digestEvery deliveries and the last
	// digestTail ids kept so the digest at any recent length can be
	// recomputed.
	hash   uint64
	marks  []uint64
	tail   [digestTail]uint64
	withVC uint64

	nviol uint64
	viol  []string // first few violations, for the report
}

const (
	digestEvery = 64
	digestTail  = 1 << 13
	fnvOffset   = 14695981039346656037
	fnvPrime    = 1099511628211
	maxViolLog  = 8
)

func newDeliveryLog(n int) *deliveryLog {
	return &deliveryLog{count: make([]uint64, n), hash: fnvOffset}
}

func packID(sender vclock.ProcessID, seq uint64) uint64 {
	return uint64(sender)<<48 | seq&(1<<48-1)
}

func fnvStep(h, id uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= id & 0xff
		h *= fnvPrime
		id >>= 8
	}
	return h
}

func (d *deliveryLog) violate(format string, args ...any) {
	d.nviol++
	if len(d.viol) < maxViolLog {
		d.viol = append(d.viol, fmt.Sprintf(format, args...))
	}
}

// deliver checks and records one delivery of (sender, seq) whose causal
// stamp is vc (nil when the ordering does not carry one).
func (d *deliveryLog) deliver(sender vclock.ProcessID, seq uint64, vc vclock.VC) {
	if int(sender) < 0 || int(sender) >= len(d.count) {
		d.violate("delivery from rank %d outside the group", sender)
		return
	}
	if want := d.count[sender] + 1; seq != want {
		d.violate("FIFO: delivered %d:%d, expected seq %d", sender, seq, want)
	}
	if vc != nil {
		d.withVC++
		if len(vc) != len(d.count) {
			d.violate("causal: stamp of %d:%d has %d entries, group has %d", sender, seq, len(vc), len(d.count))
		} else {
			for k, t := range vc {
				if k != int(sender) && d.count[k] < t {
					d.violate("causal: %d:%d depends on %d casts of rank %d, only %d delivered", sender, seq, t, k, d.count[k])
					break
				}
			}
		}
	}
	if seq > d.count[sender] {
		d.count[sender] = seq
	}
	id := packID(sender, seq)
	n := d.total.Load()
	d.tail[n%digestTail] = id
	d.hash = fnvStep(d.hash, id)
	n++
	if n%digestEvery == 0 {
		d.marks = append(d.marks, d.hash)
	}
	d.total.Store(n)
}

// digestAt returns the order digest over the first l deliveries, or
// false when l lies too far behind the tail to recompute.
func (d *deliveryLog) digestAt(l uint64) (uint64, bool) {
	base := l / digestEvery * digestEvery
	h := uint64(fnvOffset)
	if base > 0 {
		h = d.marks[base/digestEvery-1]
	}
	if l == base {
		return h, true
	}
	if total := d.total.Load(); l > total || total-base > digestTail {
		return 0, false
	}
	for i := base; i < l; i++ {
		h = fnvStep(h, d.tail[i%digestTail])
	}
	return h, true
}

// checkAgreement verifies that every member delivered the same order
// over the prefix all of them delivered. Logs must be quiescent.
func checkAgreement(logs []*deliveryLog) error {
	if len(logs) == 0 {
		return nil
	}
	l := logs[0].total.Load()
	for _, d := range logs[1:] {
		l = min(l, d.total.Load())
	}
	// Members far apart (a collapsed run) are compared over the longest
	// checkpointed common prefix instead of the exact one.
	for _, d := range logs {
		if _, ok := d.digestAt(l); !ok {
			l = l / digestEvery * digestEvery
			break
		}
	}
	want, _ := logs[0].digestAt(l)
	for r, d := range logs[1:] {
		if got, _ := d.digestAt(l); got != want {
			return fmt.Errorf("total order: rank %d's first %d deliveries differ from rank 0's (digest %016x vs %016x)", r+1, l, got, want)
		}
	}
	return nil
}
