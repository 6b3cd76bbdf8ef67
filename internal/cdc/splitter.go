package cdc

import (
	"encoding/binary"
	"fmt"

	"github.com/pod-dedup/pod/internal/chunk"
)

// slotBytes is the byte span of one logical slot — one ContentID of
// the incoming request, and one engine chunk/Map-table entry of the
// outgoing split. CDC chunks are variable-sized in *content*, but each
// occupies one slot downstream, so the allocator, Map table, and index
// cache need no notion of byte lengths.
const slotBytes = int64(chunk.Size)

// Splitter turns one write request's ContentIDs into content-defined
// engine chunks. All scratch (byte buffer, landmark bitmap, cut list)
// is owned by the Splitter and grows to a high-water mark, so
// steady-state splitting allocates nothing. An engine services one
// request at a time, so one Splitter per Base suffices; it is not safe
// for concurrent use.
type Splitter struct {
	p Params

	buf   []byte
	marks []uint64
	cuts  []int32

	// held names the stream bytes buf holds and marks covers after a
	// stream split (zero after a plain one). Stream content is a pure
	// function of (object, gen, offset), so the next window of the same
	// stream reuses its overlap with them instead of rebuilding it, and
	// nothing — crash, recovery, shard reset — can make them stale.
	held span

	// Cumulative gauges (engine instrumentation reads these). Swept ÷
	// emitted is the sweep amplification: how many bytes the landmark
	// detector reads per byte of chunk handed downstream.
	EmittedChunks     int64
	EmittedBytes      int64
	MaterializedBytes int64
	SweptBytes        int64
}

// span is the byte range [from, to) of one stream generation.
type span struct {
	obj      uint32
	gen      uint8
	from, to int64
}

// NewSplitter returns a splitter for p (panics on invalid parameters
// or Fixed4K, like engine.NewBase does on bad substrate config —
// callers validate user input with Params.Validate / ParseAlgo first).
func NewSplitter(p Params) *Splitter {
	p = p.WithDefaults()
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if !p.Enabled() {
		panic("cdc: NewSplitter with Fixed4K (CDC off)")
	}
	return &Splitter{p: p}
}

// Params reports the (default-filled) parameters in use.
func (s *Splitter) Params() Params { return s.p }

// lookback is the content materialized behind a stream window so every
// cut decision inside (and one straddler before) it is warm: minBytes
// of landmark-isolation history plus the 64-byte Gear window for the
// earliest relevant position, which sits up to two max-chunks before
// the window start (the straddler's own start, and its anchor).
func (p Params) lookback() int64 {
	return int64(2*p.maxBytes + p.minBytes + 64)
}

// MaxChunksPerSlots bounds how many chunks Split can emit for a
// request of n slots: the emission span covers the window plus up to
// one max-chunk of straddle on each side, divided by the min bound.
// Workloads that interleave CDC extents use it to space LBA extents.
func (p Params) MaxChunksPerSlots(n int) int {
	p = p.WithDefaults()
	span := int64(n)*slotBytes + 2*int64(p.maxBytes)
	return int(span/int64(p.minBytes)) + 2
}

// Split appends the content-defined chunks of one write request to dst
// and returns it plus the total content bytes emitted (the
// fingerprint-cost basis). ids is the request's Content slice.
//
// A run of consecutive edit-encoded IDs (one object, one generation,
// adjacent block indexes) is cut in *stream* mode: the request window
// is materialized with lookback/lookahead context, normalized cuts are
// derived, and the request emits exactly the chunks whose start offset
// falls inside its window — the final chunk completes past the window
// edge out of lookahead content, and the chunk straddling the window
// start belongs to the preceding window (so a window shorter than
// maxBytes that holds no chunk start emits nothing: its bytes went out
// with that chunk). Requests covering a stream
// therefore tile its chunk sequence with no overlap and no gap: each
// chunk is emitted exactly once per pass, which keeps one generation's
// fresh chunks physically sequential on disk (a duplicate-suppression
// property the Select-Dedupe classifier's "sequentially stored" test
// depends on), while the cut normalization makes the tiling identical
// no matter how the stream is divided into requests and identical
// across shifted generations wherever content is shared. Anything else
// (the plain synthetic IDs of the existing traces) is cut in chained
// mode over the request's own bytes.
//
// Every emitted chunk's ContentID is a 64-bit hash of its bytes and
// its fingerprint derives from that ID, so equal content means equal
// fingerprint exactly as in the fixed-4K model.
func (s *Splitter) Split(dst []chunk.Chunk, ids []chunk.ContentID) ([]chunk.Chunk, int64) {
	if len(ids) == 0 {
		return dst, 0
	}
	if obj, gen, idx0, ok := streamRun(ids); ok {
		return s.splitStream(dst, obj, gen, idx0, len(ids))
	}
	return s.splitPlain(dst, ids)
}

// streamRun detects a window of one edit-encoded stream: consecutive
// IDs incrementing by exactly one without overflowing the index field.
func streamRun(ids []chunk.ContentID) (obj uint32, gen uint8, idx0 uint32, ok bool) {
	if !IsEdit(ids[0]) {
		return 0, 0, 0, false
	}
	obj, gen, idx0 = DecodeEdit(ids[0])
	if uint64(idx0)+uint64(len(ids)) > uint64(MaxEditIdx) {
		return 0, 0, 0, false
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[0]+chunk.ContentID(i) {
			return 0, 0, 0, false
		}
	}
	return obj, gen, idx0, true
}

func (s *Splitter) splitStream(dst []chunk.Chunk, obj uint32, gen uint8, idx0 uint32, n int) ([]chunk.Chunk, int64) {
	wStart := int64(idx0) * slotBytes
	wEnd := wStart + int64(n)*slotBytes
	bufStart := wStart - s.p.lookback()
	if bufStart < 0 {
		bufStart = 0
	}
	bufEnd := wEnd + int64(s.p.maxBytes)
	bn := int(bufEnd - bufStart)

	// Carry over what the previous window left: when this buffer
	// starts a whole number of bitmap words into the held one (every
	// sequential request of a stream does), its first keep bytes and
	// their landmark words are already there. Nothing held, or nothing
	// usable, is keep = 0.
	shift, keep := 0, 0
	if d := bufStart - s.held.from; obj == s.held.obj && gen == s.held.gen &&
		d >= 0 && d < s.held.to-s.held.from && d%64 == 0 {
		shift, keep = int(d), int(min(s.held.to, bufEnd)-bufStart)
	}
	s.buf = slide(s.buf, shift, keep, bn)
	s.marks = slide(s.marks, shift/64, keep/64, (bn+63)/64)
	MaterializeStream(obj, gen, bufStart+int64(keep), s.buf[keep:])
	s.MaterializedBytes += int64(bn - keep)
	s.sweepFrom(keep / 64)
	s.held = span{obj, gen, bufStart, bufEnd}
	s.cuts = appendStreamCuts(s.cuts[:0], s.marks, bn, bufStart, s.p.minBytes, s.p.maxBytes)

	// emit every chunk starting in the window [wb0, wb1): cuts are
	// chunk starts, and each chunk runs to the next cut (≤ maxBytes
	// away by the grid guarantee, within the lookahead margin)
	wb0 := int(wStart - bufStart)
	wb1 := int(wEnd - bufStart)
	k := 0
	for k < len(s.cuts) && int(s.cuts[k]) < wb0 {
		k++
	}
	var emitted int64
	for k < len(s.cuts) && int(s.cuts[k]) < wb1 {
		if k+1 >= len(s.cuts) {
			// the final cut sits within maxBytes of the buffer end,
			// past wb1 (the lookahead is exactly maxBytes) — a chunk
			// starting before wb1 always has a successor cut
			panic(fmt.Sprintf("cdc: no cut closing chunk at %d (stream %d/%d)", s.cuts[k], obj, gen))
		}
		start, end := int(s.cuts[k]), int(s.cuts[k+1])
		dst = s.emit(dst, s.buf[start:end])
		emitted += int64(end - start)
		k++
	}
	s.EmittedBytes += emitted // 0 for a window that holds no chunk start
	return dst, emitted
}

func (s *Splitter) splitPlain(dst []chunk.Chunk, ids []chunk.ContentID) ([]chunk.Chunk, int64) {
	bn := len(ids) * int(slotBytes)
	s.buf, s.marks = growTo(s.buf, bn), growTo(s.marks, (bn+63)/64)
	s.held = span{} // buf no longer holds stream bytes
	for i, id := range ids {
		chunk.FillPayload(id, s.buf[i*int(slotBytes):(i+1)*int(slotBytes)])
	}
	s.MaterializedBytes += int64(bn)
	s.sweepFrom(0)
	s.cuts = appendChainedCuts(s.cuts[:0], s.marks, bn, s.p.minBytes, s.p.maxBytes)

	start := 0
	for _, c := range s.cuts {
		dst = s.emit(dst, s.buf[start:int(c)])
		start = int(c)
	}
	s.EmittedBytes += int64(bn)
	return dst, int64(bn)
}

// emit appends one chunk for the given content bytes: ContentID is the
// 64-bit content hash, fingerprint ContentID.Fingerprint of it
// (injective over IDs, so equal bytes ⇒ equal fingerprint and — with
// overwhelming probability — unequal bytes ⇒ unequal fingerprint).
func (s *Splitter) emit(dst []chunk.Chunk, content []byte) []chunk.Chunk {
	id := chunk.ContentID(bytesHash(content))
	s.EmittedChunks++
	return append(dst, chunk.Chunk{Content: id, FP: id.Fingerprint()})
}

// sweepFrom brings s.marks up to date with s.buf, given that the first
// kept words of s.marks are a sweep of the same bytes that began
// further left. Both detectors are pure functions of at most 64 bytes
// of left context, so a sweep restarted cold one word early is exact
// from the next word on: the kept words stand, except word 0, whose
// left context is now the buffer edge — it is swept again cold, and
// s.marks equals a cold sweep of all of s.buf word for word.
func (s *Splitter) sweepFrom(kept int) {
	from := max(kept-1, 0)
	warm := s.marks[from] // exact; the cold restart is about to get it wrong
	s.detect(s.buf[from*64:], s.marks[from:])
	s.SweptBytes += int64(len(s.buf) - from*64)
	if from > 0 {
		s.marks[from] = warm
		s.detect(s.buf[:64], s.marks[:1])
		s.SweptBytes += 64
	}
}

// detect runs the configured landmark detector over buf into marks.
func (s *Splitter) detect(buf []byte, marks []uint64) {
	switch s.p.Algo {
	case Gear:
		gearMarks(buf, s.p.avgBits, marks)
	case SeqCDC:
		seqMarks(buf, s.p.seqLen, marks)
	default:
		panic("cdc: sweep with no algorithm")
	}
}

// bytesHash is the content hash behind derived ContentIDs. Four lanes
// walk the 32-byte stripes of b side by side, lane l taking word l of
// every stripe through one multiply-xorshift step, so four multiplies
// are in flight where a single chain would wait on one; each lane
// starts from its own seed, and all from the length, so a chunk that
// is a prefix or a zero-extension of another cannot collide trivially.
// The lanes fold through mix64 in order (not symmetric in them), the
// words and bytes after the last whole stripe chain through mix64 one
// at a time, and a last mix64 avalanches. A lane step is a bijection of
// the lane for a fixed word and of the word for a fixed lane, as is
// every fold and tail step, so two buffers of one length that differ
// in a single word never share a hash.
func bytesHash(b []byte) uint64 {
	h := uint64(len(b))*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	h0, h1, h2, h3 := h^laneSeed0, h^laneSeed1, h^laneSeed2, h^laneSeed3
	for ; len(b) >= 32; b = b[32:] {
		h0 = laneStep(h0, binary.LittleEndian.Uint64(b))
		h1 = laneStep(h1, binary.LittleEndian.Uint64(b[8:]))
		h2 = laneStep(h2, binary.LittleEndian.Uint64(b[16:]))
		h3 = laneStep(h3, binary.LittleEndian.Uint64(b[24:]))
	}
	h = mix64(mix64(mix64(mix64(h0)^h1)^h2) ^ h3)
	for ; len(b) >= 8; b = b[8:] {
		h = mix64(h ^ binary.LittleEndian.Uint64(b))
	}
	if len(b) > 0 {
		var tail uint64
		for i, c := range b {
			tail |= uint64(c) << (8 * uint(i))
		}
		h = mix64(h ^ tail ^ 1<<63)
	}
	return mix64(h)
}

// The lane seeds are the fractional bits of √2, √3, √5 and √7.
const (
	laneSeed0 = 0x6A09E667F3BCC908
	laneSeed1 = 0xBB67AE8584CAA73B
	laneSeed2 = 0x3C6EF372FE94F82B
	laneSeed3 = 0xA54FF53A5F1D36F1
)

// laneStep absorbs one word into one lane of bytesHash.
func laneStep(h, w uint64) uint64 {
	h = (h ^ w) * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// growTo returns s resliced to n elements, reallocated if its capacity
// falls short; the contents are unspecified.
func growTo[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// slide returns s resliced to n elements with its old elements
// [shift, shift+keep) moved to the front.
func slide[T any](s []T, shift, keep, n int) []T {
	out := growTo(s, n)
	copy(out, s[shift:shift+keep])
	return out
}
