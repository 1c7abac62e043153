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

// retainHistory gives a server that has taken no traffic yet a ring that
// retains history snapshots (history < 1: DefaultDeltaHistory), so tests
// can watch eviction at depths 1 and 2.
func (s *Server) retainHistory(history int) *Server {
	s.ring = NewSnapshotRing(history, s.cfg.Metrics.ring)
	s.publishSnapshotLocked()
	return s
}
