// Package sim provides the primitives of the discrete-time storage
// simulator used throughout this repository: virtual time in
// microseconds and FCFS resource queues.
//
// All latency results in the POD reproduction are computed in virtual
// time. Requests are replayed in arrival order against resources that
// track a "busy-until" horizon; for first-come-first-served service with
// arrivals known a priori this is mathematically identical to a
// heap-based discrete-event simulation, while being deterministic and
// allocation-free on the hot path.
package sim

import "fmt"

// Time is a point in virtual time, in microseconds since the start of
// the simulation. It is a distinct type to keep virtual time from being
// confused with wall-clock durations.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration int64

// Common durations.
const (
	Millisecond Duration = 1000
	Second      Duration = 1000 * 1000
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String renders the time as seconds with microsecond precision.
func (t Time) String() string {
	return fmt.Sprintf("%d.%06ds", int64(t)/1e6, int64(t)%1e6)
}

// Seconds converts a duration to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e6 }

// Millis converts a duration to floating-point milliseconds.
func (d Duration) Millis() float64 { return float64(d) / 1e3 }

// String renders the duration in the most natural unit.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", d.Millis())
	default:
		return fmt.Sprintf("%dµs", int64(d))
	}
}

// MaxTime returns the later of two times.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
