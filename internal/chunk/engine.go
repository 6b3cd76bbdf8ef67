package chunk

// HashEngine fingerprints batches of chunks — the software analogue of
// the "dedicated embedded processor or host processor" hash engine in
// the POD architecture (§III-B). It also reports the modeled per-chunk
// latency that the simulator charges on the write path (32 µs per 4 KB
// chunk in the paper's evaluation). Fingerprints are computed on the
// caller's goroutine: the virtual cost is fixed per chunk, so spreading
// the hashing over threads would change wall time only, and measured,
// it made the write path slower.
type HashEngine struct {
	fp          Fingerprinter
	ChunkTimeUS int64 // modeled fingerprint latency per chunk, µs
}

// DefaultChunkTimeUS is the paper's modeled fingerprint-computation
// delay for one 4 KB chunk (an overestimate for modern controllers,
// per §IV-A).
const DefaultChunkTimeUS = 32

// NewHashEngine returns an engine using fp. workers must be 1, the
// value engine.Config.WithDefaults fills: hashing runs on the caller's
// goroutine, and the parameter stays only so existing callers keep
// compiling.
func NewHashEngine(fp Fingerprinter, workers int) *HashEngine {
	if workers != 1 {
		panic("chunk: NewHashEngine hashes on the caller's goroutine; workers must be 1")
	}
	return &HashEngine{fp: fp, ChunkTimeUS: DefaultChunkTimeUS}
}

// FingerprintAll computes fingerprints for every chunk in place and
// returns the modeled virtual-time cost of doing so on the write path.
func (e *HashEngine) FingerprintAll(chunks []Chunk) int64 {
	// The synthetic fingerprinter, the one production configures, is
	// called directly: no interface call per chunk.
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
