package chunk

// HashEngine fingerprints batches of chunks and reports the modeled
// per-chunk latency (32 µs per 4 KB chunk in the paper's evaluation) —
// the software analogue of the "dedicated embedded processor or host
// processor" hash engine in the POD architecture (§III-B). No
// production path calls it: an engine's chunks are fingerprinted where
// they are cut. The benchmark harness's ladder times it as a stage of
// its own.
type HashEngine struct {
	ChunkTimeUS int64 // modeled fingerprint latency per chunk, µs
}

// DefaultChunkTimeUS is the paper's modeled fingerprint-computation
// delay for one 4 KB chunk (an overestimate for modern controllers,
// per §IV-A).
const DefaultChunkTimeUS = 32

// NewHashEngine returns an engine. fp must be SyntheticFingerprinter
// and workers 1, the values engine.Config.WithDefaults fills: both
// parameters stay only so the benchmark harness's call keeps compiling.
func NewHashEngine(fp Fingerprinter, workers int) *HashEngine {
	if _, ok := fp.(SyntheticFingerprinter); !ok || workers != 1 {
		panic("chunk: NewHashEngine fingerprints by content ID on the caller's goroutine")
	}
	return &HashEngine{ChunkTimeUS: DefaultChunkTimeUS}
}

// FingerprintAll computes fingerprints for every chunk in place and
// returns the modeled virtual-time cost of doing so on the write path.
func (e *HashEngine) FingerprintAll(chunks []Chunk) int64 {
	for i := range chunks {
		chunks[i].FP = chunks[i].Content.Fingerprint()
	}
	return int64(len(chunks)) * e.ChunkTimeUS
}
