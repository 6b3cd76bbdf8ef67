package bgdedup

import (
	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/sim"
)

// SetPace steps the scanner faster than production does: a step every
// interval (stepInterval) and only while the array's backlog is at most
// maxBacklog (the constant of that name). The step clock restarts.
func (s *Scanner) SetPace(interval, maxBacklog sim.Duration) {
	s.interval, s.maxBacklog = interval, maxBacklog
	s.nextStep = sim.Time(interval)
}

// EachEntry visits the core's fingerprint table.
func (c *Core) EachEntry(fn func(chunk.Fingerprint, alloc.PBA) bool) { c.fps.Each(fn) }

// ForgetNaming is the reference for the free hook: the table as it was
// when a block → fingerprint map sat beside it, which on a free dropped
// the entry that map named for the block. Here the entry is found by
// walking the table for the block instead. It reports how many entries
// named the block; the two-map table could hold at most one.
func (c *Core) ForgetNaming(pba alloc.PBA) int {
	var naming []chunk.Fingerprint
	c.fps.Each(func(fp chunk.Fingerprint, can alloc.PBA) bool {
		if can == pba {
			naming = append(naming, fp)
		}
		return true
	})
	for _, fp := range naming {
		c.fps.Delete(fp)
	}
	return len(naming)
}
