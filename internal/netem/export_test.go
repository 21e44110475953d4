package netem

import "fmt"

// CheckWindow reports the first broken in-flight window invariant: the
// live window holds one entry per sequence number from headSeq up to
// nextSeq, its first entry is unresolved, and inflightBytes is the
// summed size of its unresolved entries.
func (f *Flow) CheckWindow() error {
	win := f.inflight[f.head:]
	if f.headSeq+int64(len(win)) != f.nextSeq {
		return fmt.Errorf("headSeq %d + window %d != nextSeq %d", f.headSeq, len(win), f.nextSeq)
	}
	if len(win) > 0 && win[0].done {
		return fmt.Errorf("window head seq %d is resolved", f.headSeq)
	}
	sum := 0
	for _, p := range win {
		if !p.done {
			sum += p.size
		}
	}
	if sum != f.inflightBytes {
		return fmt.Errorf("inflightBytes %d, unresolved entries sum to %d", f.inflightBytes, sum)
	}
	return nil
}
