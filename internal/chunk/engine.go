package chunk

import (
	"runtime"
	"sync"
)

// HashEngine fingerprints batches of chunks, optionally in parallel —
// the software analogue of the "dedicated embedded processor or host
// processor" hash engine in the POD architecture (§III-B). It also
// reports the modeled per-chunk latency that the simulator charges on
// the write path (32 µs per 4 KB chunk in the paper's evaluation).
//
// Parallel batches run on a process-wide persistent worker pool rather
// than goroutines spawned per call: a replay issues one FingerprintAll
// per write request, and at trace scale the per-call spawn cost (stack
// allocation plus scheduling) exceeded the hashing itself for synthetic
// fingerprints.
type HashEngine struct {
	fp          Fingerprinter
	workers     int
	ChunkTimeUS int64 // modeled fingerprint latency per chunk, µs
}

// DefaultChunkTimeUS is the paper's modeled fingerprint-computation
// delay for one 4 KB chunk (an overestimate for modern controllers,
// per §IV-A).
const DefaultChunkTimeUS = 32

// NewHashEngine returns an engine using fp with the given parallelism;
// workers ≤ 0 selects GOMAXPROCS.
func NewHashEngine(fp Fingerprinter, workers int) *HashEngine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &HashEngine{fp: fp, workers: workers, ChunkTimeUS: DefaultChunkTimeUS}
}

// hashTask is one contiguous segment of a batch, dispatched to the
// shared pool. Segments of one batch are disjoint, so workers write
// fingerprints (or payload bytes) without synchronization; wg signals
// batch completion. Two kinds share the pool: fingerprinting (part is
// set) and payload materialization (ids/dst are set) — the CDC
// splitter's byte expansion rides the same persistent workers as the
// fingerprint engine instead of spawning goroutines per request.
type hashTask struct {
	fp   Fingerprinter
	part []Chunk
	ids  []ContentID // materialize kind: fill dst with canonical payloads
	dst  []byte      // len(ids)*Size bytes, parallel to ids
	wg   *sync.WaitGroup
}

var (
	hashPoolOnce  sync.Once
	hashPoolTasks chan hashTask
)

// hashPool lazily starts the process-wide worker pool, sized to the
// machine. Workers live for the life of the process and are shared by
// every HashEngine, so constructing engines per replay job leaks
// nothing.
func hashPool() chan hashTask {
	hashPoolOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		hashPoolTasks = make(chan hashTask, 4*n)
		for i := 0; i < n; i++ {
			go func() {
				for t := range hashPoolTasks {
					if t.ids != nil {
						for i, id := range t.ids {
							FillPayload(id, t.dst[i*Size:(i+1)*Size])
						}
					} else {
						for i := range t.part {
							t.part[i].FP = t.fp.Fingerprint(&t.part[i])
						}
					}
					t.wg.Done()
				}
			}()
		}
	})
	return hashPoolTasks
}

// FingerprintAll computes fingerprints for every chunk in place and
// returns the modeled virtual-time cost of doing so serially on the
// write path (the simulator charges latency per chunk even though the
// real hashing here may run in parallel for wall-clock throughput).
func (e *HashEngine) FingerprintAll(chunks []Chunk) int64 {
	if len(chunks) == 0 {
		return 0
	}
	if e.workers == 1 || len(chunks) < 4 {
		// The synthetic fingerprinter, the one production configures,
		// is called directly: no interface call per chunk.
		if syn, ok := e.fp.(SyntheticFingerprinter); ok {
			for i := range chunks {
				chunks[i].FP = syn.Fingerprint(&chunks[i])
			}
		} else {
			for i := range chunks {
				chunks[i].FP = e.fp.Fingerprint(&chunks[i])
			}
		}
		return int64(len(chunks)) * e.ChunkTimeUS
	}
	pool := hashPool()
	var wg sync.WaitGroup
	stride := (len(chunks) + e.workers - 1) / e.workers
	for lo := 0; lo < len(chunks); lo += stride {
		hi := lo + stride
		if hi > len(chunks) {
			hi = len(chunks)
		}
		wg.Add(1)
		pool <- hashTask{fp: e.fp, part: chunks[lo:hi], wg: &wg}
	}
	wg.Wait()
	return int64(len(chunks)) * e.ChunkTimeUS
}

// Materializer fills batches of canonical ID payloads, using the
// persistent worker pool for large batches. The WaitGroup is owned and
// reused across calls, so steady-state batches allocate nothing. Not
// safe for concurrent use — each owner (an engine's CDC splitter)
// holds its own.
type Materializer struct {
	wg sync.WaitGroup
}

// materializeParallelMin is the batch size below which the pool
// dispatch overhead exceeds the fill itself.
const materializeParallelMin = 8

// FillAll writes the canonical payload of ids[i] into
// dst[i*Size : (i+1)*Size]; len(dst) must be exactly len(ids)*Size.
func (m *Materializer) FillAll(dst []byte, ids []ContentID) {
	if len(dst) != len(ids)*Size {
		panic("chunk: FillAll dst/ids length mismatch")
	}
	workers := runtime.GOMAXPROCS(0)
	if workers == 1 || len(ids) < materializeParallelMin {
		for i, id := range ids {
			FillPayload(id, dst[i*Size:(i+1)*Size])
		}
		return
	}
	pool := hashPool()
	stride := (len(ids) + workers - 1) / workers
	for lo := 0; lo < len(ids); lo += stride {
		hi := lo + stride
		if hi > len(ids) {
			hi = len(ids)
		}
		m.wg.Add(1)
		pool <- hashTask{ids: ids[lo:hi], dst: dst[lo*Size : hi*Size], wg: &m.wg}
	}
	m.wg.Wait()
}
