package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

// Spans are recorded from the benchmark's own files, around calls into
// each package's public functions; nothing inside the program is
// instrumented. A span is a name, a start, an end, the pass-level span
// that caused it, and the index of the request it served, which every
// span of that request shares.

type spanName uint8

const (
	spanServe       spanName = iota // pass: first submit to Server.Close returning
	spanReplay                      // pass: one replay.Run call
	spanLadder                      // pass: the layer ladder over the whole trace
	spanSubmit                      // one Server.SubmitBatch call
	spanEngineWrite                 // one Engine.Write call
	spanEngineRead                  // one Engine.Read call
	spanRung                        // ladder: first rung; rung r is spanRung+r
)

var passNames = [...]string{spanServe: "server.serve", spanReplay: "replay.run", spanLadder: "ladder.pass",
	spanSubmit: "server.submit", spanEngineWrite: "engine.write", spanEngineRead: "engine.read"}

func (n spanName) String() string {
	if n >= spanRung {
		return "ladder." + rungNames[n-spanRung]
	}
	return passNames[n]
}

type span struct {
	name   spanName
	lane   int16 // engine (shard) or client that recorded it; -1 for pass-level spans
	req    int32 // request index, -1 when the span serves no single request
	parent int32 // index of the pass-level span that caused it, -1 for none
	start  int64 // ns since the tracer's epoch
	end    int64
}

// spanBuf is one goroutine's span log. Each engine and each client owns
// one, so recording takes no lock.
type spanBuf struct {
	t     *tracer
	lane  int16
	spans []span
}

func (b *spanBuf) now() int64 { return int64(time.Since(b.t.epoch)) }

// add closes a span opened at start and returns its duration.
func (b *spanBuf) add(name spanName, req int32, start int64) int64 {
	end := b.now()
	b.spans = append(b.spans, span{name: name, lane: b.lane, req: req, parent: b.t.cur.Load(), start: start, end: end})
	return end - start
}

// tracer collects the spans of one traced pass. Spans stay in memory
// and are written out, if asked for, when the benchmark ends.
type tracer struct {
	epoch time.Time
	root  []span       // pass-level spans; their indexes are the parent ids
	cur   atomic.Int32 // open pass-level span, read by every recording goroutine

	mu   sync.Mutex // guards bufs: client goroutines register concurrently
	bufs []*spanBuf
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.cur.Store(-1)
	return t
}

func (t *tracer) newBuf(lane int, capacity int) *spanBuf {
	b := &spanBuf{t: t, lane: int16(lane), spans: make([]span, 0, capacity)}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// clientBuf returns a submitting client's span log.
func (t *tracer) clientBuf(client int) *spanBuf { return t.newBuf(client, 1024) }

// beginPass opens a pass-level span; spans recorded until endPass name
// it as their parent.
func (t *tracer) beginPass(name spanName) {
	t.root = append(t.root, span{name: name, lane: -1, req: -1, parent: -1, start: int64(time.Since(t.epoch))})
	t.cur.Store(int32(len(t.root) - 1))
}

func (t *tracer) endPass() {
	t.root[t.cur.Load()].end = int64(time.Since(t.epoch))
	t.cur.Store(-1)
}

// total sums the durations of every span with the given name that
// lane recorded; lane -1 means every lane.
func (t *tracer) total(name spanName, lane int) (ns int64, count int64) {
	add := func(spans []span) {
		for _, s := range spans {
			if s.name == name && (lane < 0 || int(s.lane) == lane) {
				ns += s.end - s.start
				count++
			}
		}
	}
	add(t.root)
	for _, b := range t.bufs {
		add(b.spans)
	}
	return ns, count
}

// tracedEngine is the traced pass's decorator: an engine.Engine that
// records a span around every Write and Read of the engine it wraps and
// forwards everything else (Flush, Base and CrashAndRecover come
// through the embedded interface). End-to-end figures are never
// taken from a pass that uses it.
type tracedEngine struct {
	podEngine
	buf  *spanBuf
	reqs []int32 // this engine's k-th call serves request reqs[k]; nil: trace order
	k    int
}

// wrapShard decorates shard's engine. reqs lists the trace indexes the
// shard will be handed, in order: the server gives an engine no request
// id, but every shard sees its stream in trace order.
func (t *tracer) wrapShard(e podEngine, shard int, reqs []int32) engine.Engine {
	return &tracedEngine{podEngine: e, buf: t.newBuf(shard, len(reqs)), reqs: reqs}
}

// wrapReplay decorates an engine that will see the whole trace in order.
func (t *tracer) wrapReplay(e podEngine, lane, requests int) engine.Engine {
	return &tracedEngine{podEngine: e, buf: t.newBuf(lane, requests)}
}

func (e *tracedEngine) next() int32 {
	k := e.k
	e.k++
	switch {
	case e.reqs == nil:
		return int32(k)
	case k < len(e.reqs):
		return e.reqs[k]
	}
	return -1
}

func (e *tracedEngine) Write(r *trace.Request) (sim.Duration, error) {
	t0 := e.buf.now()
	d, err := e.podEngine.Write(r)
	e.buf.add(spanEngineWrite, e.next(), t0)
	return d, err
}

func (e *tracedEngine) Read(r *trace.Request) (sim.Duration, error) {
	t0 := e.buf.now()
	d, err := e.podEngine.Read(r)
	e.buf.add(spanEngineRead, e.next(), t0)
	return d, err
}

// writeSpans writes every span of every tracer as CSV, one tracer after
// another; pass numbers the tracer a row came from.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "pass,name,lane,req,parent,start_ns,end_ns")
	row := func(pass int, s span) {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d,%d\n", pass, s.name, s.lane, s.req, s.parent, s.start, s.end)
	}
	for p, t := range tracers {
		for _, s := range t.root {
			row(p, s)
		}
		for _, b := range t.bufs {
			for _, s := range b.spans {
				row(p, s)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
