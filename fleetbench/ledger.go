package main

import "fmt"

// ledger accounts one writer's casts in one phase: every cast issued,
// every echo that came back, and what was wrong with the ones that
// did not come back exactly once. It runs on the generator's dispatch
// goroutine only.
type ledger struct {
	issued uint64   // casts sent: seqs 1..issued
	missed uint64   // casts due in the window but never sent
	seen   []uint64 // bitset: seq echoed at least once
	nseen  uint64   // popcount of seen
	dup    []uint64 // bitset: seq echoed more than once
	once   uint64   // seqs echoed exactly once before the deadline
	dups   uint64   // extra echoes of an already-echoed seq
	phant  uint64   // echoes naming a seq never issued
	late   uint64   // echoes arriving after the drain deadline
	closed bool     // the drain deadline has passed
}

func setBit(b []uint64, i uint64) []uint64 {
	for uint64(len(b))*64 <= i {
		b = append(b, 0)
	}
	b[i/64] |= 1 << (i % 64)
	return b
}

func hasBit(b []uint64, i uint64) bool {
	return i/64 < uint64(len(b)) && b[i/64]&(1<<(i%64)) != 0
}

// issue allocates the next cast sequence number.
func (l *ledger) issue() uint64 {
	l.issued++
	return l.issued
}

// echo records an echo of seq and reports whether it is the first,
// timely echo of an issued cast (the only kind whose latency counts).
func (l *ledger) echo(seq uint64) bool {
	switch {
	case seq == 0 || seq > l.issued:
		l.phant++
		return false
	case l.closed:
		l.late++
		return false
	case hasBit(l.seen, seq):
		l.dups++
		if !hasBit(l.dup, seq) {
			l.dup = setBit(l.dup, seq)
			l.once--
		}
		return false
	}
	l.seen = setBit(l.seen, seq)
	l.nseen++
	l.once++
	return true
}

// close marks the drain deadline: echoes after it count as late.
func (l *ledger) close() { l.closed = true }

// pending counts issued casts not echoed yet.
func (l *ledger) pending() uint64 { return l.issued - l.nseen }

// due is the number of casts owed in the window, sent or not.
func (l *ledger) due() uint64 { return l.issued + l.missed }

// failed counts casts due but not echoed exactly once by the deadline:
// never sent, lost, duplicated, or late.
func (l *ledger) failed() uint64 { return l.due() - l.once }

// violation describes echoes that match no single issued cast; such an
// echo is an output error of the program, not a loss.
func (l *ledger) violation() error {
	if l.dups == 0 && l.phant == 0 {
		return nil
	}
	return fmt.Errorf("%d duplicate and %d phantom echoes", l.dups, l.phant)
}
