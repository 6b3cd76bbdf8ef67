// Package api defines the request/result types shared by the public
// pod package and the internal serving layer. Both re-export these
// types as aliases, so a request built against the public API can be
// submitted to a sharded server without conversion or copying.
package api

import (
	"fmt"

	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

// Op is a request direction; the values are trace.Read and trace.Write.
type Op = trace.Op

// Re-exported so api users can name operations without importing
// internal/trace.
const (
	OpRead  Op = trace.Read
	OpWrite Op = trace.Write
)

// ContentID identifies a chunk's content; equal IDs mean duplicate
// chunks.
type ContentID = chunk.ContentID

// StreamID identifies the tenant stream a request belongs to; the zero
// value is the default (untagged) stream. Valid IDs are below
// trace.MaxStreams.
type StreamID = trace.StreamID

// Request is one I/O against a simulated volume.
//
// Time is the arrival time in simulated microseconds. For writes,
// Content carries one ContentID per 4 KB chunk and determines the
// request length; Chunks is ignored. For reads, Chunks is the number
// of 4 KB chunks to read. Stream tags the tenant stream; engines with
// per-stream cache apportionment enabled use it to divide fingerprint
// index quota between co-located tenants.
type Request struct {
	Time    int64
	Op      Op
	LBA     uint64
	Chunks  int
	Stream  StreamID
	Content []ContentID
}

// Len reports the request length in chunks.
func (r *Request) Len() int {
	if r.Op == OpWrite {
		return len(r.Content)
	}
	return r.Chunks
}

// Validate reports why the request is malformed, or nil: a negative
// Time, which a trace.Request cannot carry, or whatever
// trace.Request.Validate finds in the converted request.
func (r *Request) Validate() error {
	if r.Time < 0 {
		return fmt.Errorf("api: negative request time %d", r.Time)
	}
	t := r.Trace()
	return t.Validate()
}

// Trace converts the request to the internal trace representation.
// Content is shared, not copied.
func (r *Request) Trace() trace.Request {
	return trace.Request{
		Time:    sim.Time(r.Time),
		Op:      r.Op,
		LBA:     r.LBA,
		N:       r.Len(),
		Stream:  r.Stream,
		Content: r.Content,
	}
}

// FromTrace converts an internal trace request to the API shape.
// Content is shared, not copied.
func FromTrace(tr trace.Request) Request {
	req := Request{
		Time:    int64(tr.Time),
		Op:      tr.Op,
		LBA:     tr.LBA,
		Stream:  tr.Stream,
		Content: tr.Content,
	}
	if tr.Op == OpRead {
		req.Chunks = tr.N
	}
	return req
}

// Result describes one completed request. All fields are simulated
// microseconds except Shard, the serving shard index (0 outside the
// sharded server).
//
// Service is the engine's response time; Sojourn additionally includes
// queue wait, so Sojourn >= Service under queued timing and
// Sojourn == Service in passthrough/replay modes.
//
// Retries counts serving-layer re-attempts after transient storage
// faults (0 when the first attempt decided the outcome). Err is nil for
// a successful request; otherwise it is the terminal *fault.Error (or
// other error) after retries were exhausted or a permanent fault
// surfaced — fault.ClassOf(Err) recovers the transient/permanent
// classification, and the timing fields still report the virtual time
// the failed service consumed.
type Result struct {
	Shard    int
	Start    int64
	Complete int64
	Service  int64
	Sojourn  int64

	Retries int
	Err     error
}

// Failed reports whether the request ended in an error.
func (r *Result) Failed() bool { return r.Err != nil }
