package core

// scribbleFree overwrites, with v, every vector on the ring's free list
// and reports how many there were. A reader still looking at a snapshot
// it released (or never pinned) now reads v — and, under the race
// detector, is reported. The server-side twin of transport's
// ScribbleCheckinScratches.
func (r *SnapshotRing) scribbleFree(v float64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.free {
		for i := range s.params {
			s.params[i] = v
		}
	}
	return len(r.free)
}
