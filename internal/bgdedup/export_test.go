package bgdedup

import (
	"github.com/pod-dedup/pod/internal/sim"
)

// SetPace steps the scanner faster than production does: a step every
// interval (stepInterval) and only while the array's backlog is at most
// maxBacklog (the constant of that name). The step clock restarts.
func (s *Scanner) SetPace(interval, maxBacklog sim.Duration) {
	s.interval, s.maxBacklog = interval, maxBacklog
	s.nextStep = sim.Time(interval)
}
