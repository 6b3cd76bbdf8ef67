package metrics

// TraceRecord is one sampled request with its full phase timeline. All
// times are simulated microseconds. Phases maps phase name → total
// microseconds the request spent in that phase (zero phases omitted).
type TraceRecord struct {
	Seq      int64            `json:"seq"`
	Shard    int              `json:"shard"`
	Op       string           `json:"op"`
	LBA      uint64           `json:"lba"`
	Chunks   int              `json:"chunks"`
	Arrival  int64            `json:"arrival_us"`
	Start    int64            `json:"start_us"`
	Complete int64            `json:"complete_us"`
	Service  int64            `json:"service_us"`
	Sojourn  int64            `json:"sojourn_us"`
	Phases   map[string]int64 `json:"phases,omitempty"`
}

// TraceRing is a fixed-capacity ring of sampled trace records. When
// full, new records overwrite the oldest. Not synchronized: owned by
// one shard's worker, drained under the server's shard pause.
type TraceRing struct {
	buf   []TraceRecord
	next  int
	count int
}

// NewTraceRing returns a ring holding up to capacity records
// (minimum 1).
func NewTraceRing(capacity int) *TraceRing {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceRing{buf: make([]TraceRecord, capacity)}
}

// Add appends a record, evicting the oldest when full.
func (r *TraceRing) Add(rec TraceRecord) {
	r.buf[r.next] = rec
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
}

// Drain returns the buffered records oldest-first and empties the ring.
func (r *TraceRing) Drain() []TraceRecord {
	if r.count == 0 {
		return nil
	}
	out := make([]TraceRecord, 0, r.count)
	start := r.next - r.count
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.count; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	r.next = 0
	r.count = 0
	return out
}
