// Package trace defines the block-level I/O trace model of the POD
// evaluation: timestamped read/write requests addressed in 4 KB chunks,
// each write chunk carrying a content identity.
//
// The FIU SyLab traces the paper replays are not redistributable, so
// this repository generates synthetic traces with matched
// characteristics (package workload); this package provides the
// request model itself, text and binary codecs, the split-record
// reassembly step §IV-A describes ("the original requests are
// reconstructed according to their timestamp, LBA and length"), and the
// redundancy analyses behind Figure 1, Figure 2 and Table II.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/sim"
)

// Op is the request direction.
type Op uint8

// Request operations.
const (
	Read Op = iota
	Write
)

// String renders the op as "R" or "W".
func (o Op) String() string {
	if o == Write {
		return "W"
	}
	return "R"
}

// ParseOp resolves an op name: "R"/"r"/"read" and "W"/"w"/"write".
// Tools share this instead of validating op flags ad hoc.
func ParseOp(s string) (Op, error) {
	switch strings.ToLower(s) {
	case "r", "read":
		return Read, nil
	case "w", "write":
		return Write, nil
	}
	return 0, fmt.Errorf("trace: bad op %q (want R or W)", s)
}

// StreamID identifies the tenant stream a request belongs to. Stream 0
// is the default (untagged) stream; multi-tenant compositions (Merge,
// workload.MixedTrace) assign small positive IDs so the engine can
// estimate per-stream locality and apportion index-cache quota.
type StreamID uint32

// DefaultStream is the stream of untagged requests.
const DefaultStream StreamID = 0

// MaxStreams bounds valid stream IDs (exclusive). Per-stream state in
// the engine is sized and validated against this.
const MaxStreams = 64

// Request is one block-level I/O request. LBA and length are in 4 KB
// chunks. Write requests carry the content identity of every chunk;
// read requests have nil Content. Stream tags the tenant stream the
// request belongs to (DefaultStream when untagged).
type Request struct {
	Time    sim.Time
	Op      Op
	LBA     uint64
	N       int
	Stream  StreamID
	Content []chunk.ContentID
}

// Validate checks internal consistency.
func (r *Request) Validate() error {
	if r.Op != Read && r.Op != Write {
		return fmt.Errorf("trace: unknown op %d", r.Op)
	}
	if r.N <= 0 {
		return fmt.Errorf("trace: request with %d chunks", r.N)
	}
	if r.LBA > math.MaxUint64-uint64(r.N-1) {
		return fmt.Errorf("trace: %d chunks at lba %d run past the last address", r.N, r.LBA)
	}
	if r.Op == Write && len(r.Content) != r.N {
		return fmt.Errorf("trace: write with %d chunks but %d content ids", r.N, len(r.Content))
	}
	if r.Op == Read && r.Content != nil {
		return fmt.Errorf("trace: read carrying content")
	}
	if r.Stream >= MaxStreams {
		return fmt.Errorf("trace: stream id %d out of range (max %d)", r.Stream, MaxStreams-1)
	}
	return nil
}

// Trace is an ordered request stream with identifying metadata.
type Trace struct {
	Name     string
	Requests []Request
}

// Reassemble merges split records back into original requests, the
// preprocessing step the paper applies to the FIU traces (which were
// recorded as fixed-size 4 KB/512 B records): consecutive records with
// the same op, contiguous LBAs, and timestamps within window are one
// logical request. Input must be time-ordered; the result preserves the
// first record's timestamp.
func Reassemble(reqs []Request, window sim.Duration) []Request {
	if len(reqs) == 0 {
		return nil
	}
	out := make([]Request, 0, len(reqs))
	cur := cloneRequest(reqs[0])
	for _, r := range reqs[1:] {
		contig := r.Op == cur.Op &&
			r.Stream == cur.Stream &&
			r.LBA == cur.LBA+uint64(cur.N) &&
			r.Time.Sub(cur.Time) <= window
		if contig {
			cur.N += r.N
			if cur.Op == Write {
				cur.Content = append(cur.Content, r.Content...)
			}
			continue
		}
		out = append(out, cur)
		cur = cloneRequest(r)
	}
	return append(out, cur)
}

func cloneRequest(r Request) Request {
	if r.Content != nil {
		r.Content = append([]chunk.ContentID(nil), r.Content...)
	}
	return r
}

// --- text codec ---
//
// One request per line:
//
//	<time_us> <R|W> <lba> <nchunks> [id1,id2,...] [s<stream>]
//
// The trailing s<stream> field is emitted only for tagged requests
// (Stream != 0), so untagged traces encode byte-identically to the
// pre-stream format. Lines starting with '#' are comments.

// WriteText encodes t to w in the text format.
func WriteText(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# pod trace: %s (%d requests)\n", t.Name, len(t.Requests))
	for i := range t.Requests {
		r := &t.Requests[i]
		fmt.Fprintf(bw, "%d %s %d %d", int64(r.Time), r.Op, r.LBA, r.N)
		if r.Op == Write {
			bw.WriteByte(' ')
			for j, id := range r.Content {
				if j > 0 {
					bw.WriteByte(',')
				}
				bw.WriteString(strconv.FormatUint(uint64(id), 10))
			}
		}
		if r.Stream != DefaultStream {
			bw.WriteString(" s")
			bw.WriteString(strconv.FormatUint(uint64(r.Stream), 10))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ReadText decodes a text-format trace.
func ReadText(r io.Reader, name string) (*Trace, error) {
	t := &Trace{Name: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			return nil, fmt.Errorf("trace: line %d: want ≥4 fields, got %d", lineNo, len(fields))
		}
		var stream StreamID
		if last := fields[len(fields)-1]; len(last) > 1 && last[0] == 's' {
			sid, err := strconv.ParseUint(last[1:], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad stream field %q", lineNo, last)
			}
			stream = StreamID(sid)
			fields = fields[:len(fields)-1]
			if len(fields) < 4 {
				return nil, fmt.Errorf("trace: line %d: want ≥4 fields, got %d", lineNo, len(fields))
			}
		}
		ts, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad time: %v", lineNo, err)
		}
		var op Op
		switch fields[1] {
		case "R":
			op = Read
		case "W":
			op = Write
		default:
			return nil, fmt.Errorf("trace: line %d: bad op %q", lineNo, fields[1])
		}
		lba, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad lba: %v", lineNo, err)
		}
		n, err := strconv.Atoi(fields[3])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("trace: line %d: bad chunk count %q", lineNo, fields[3])
		}
		req := Request{Time: sim.Time(ts), Op: op, LBA: lba, N: n, Stream: stream}
		if op == Read && len(fields) != 4 {
			return nil, fmt.Errorf("trace: line %d: read with %d fields, want 4", lineNo, len(fields))
		}
		if op == Write && len(fields) != 5 {
			return nil, fmt.Errorf("trace: line %d: write with %d fields, want 5", lineNo, len(fields))
		}
		if op == Write {
			parts := strings.Split(fields[4], ",")
			if len(parts) != n {
				return nil, fmt.Errorf("trace: line %d: %d ids for %d chunks", lineNo, len(parts), n)
			}
			req.Content = make([]chunk.ContentID, n)
			for i, p := range parts {
				id, err := strconv.ParseUint(p, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("trace: line %d: bad content id %q", lineNo, p)
				}
				req.Content[i] = chunk.ContentID(id)
			}
		}
		if err := req.Validate(); err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", lineNo, err)
		}
		t.Requests = append(t.Requests, req)
	}
	return t, sc.Err()
}

// --- binary codec ---
//
// Header: magic "PODT", u32 name length, name bytes, u64 request count.
// Request: i64 time, u8 op, u64 lba, u32 n, then n×u64 ids for writes.
// Tagged requests (Stream != 0) set the high bit of the op byte and
// append a u32 stream id after n; untagged requests encode exactly as
// the pre-stream format did, so old files remain readable and untagged
// output is byte-identical.

var binMagic = [4]byte{'P', 'O', 'D', 'T'}

// binStreamFlag marks an op byte whose request carries a stream id.
const binStreamFlag = 0x80

// WriteBinary encodes t to w in the compact binary format.
func WriteBinary(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	bw.Write(binMagic[:])
	var u32 [4]byte
	var u64 [8]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(t.Name)))
	bw.Write(u32[:])
	bw.WriteString(t.Name)
	binary.LittleEndian.PutUint64(u64[:], uint64(len(t.Requests)))
	bw.Write(u64[:])
	for i := range t.Requests {
		r := &t.Requests[i]
		binary.LittleEndian.PutUint64(u64[:], uint64(r.Time))
		bw.Write(u64[:])
		opByte := byte(r.Op)
		if r.Stream != DefaultStream {
			opByte |= binStreamFlag
		}
		bw.WriteByte(opByte)
		binary.LittleEndian.PutUint64(u64[:], r.LBA)
		bw.Write(u64[:])
		binary.LittleEndian.PutUint32(u32[:], uint32(r.N))
		bw.Write(u32[:])
		if r.Stream != DefaultStream {
			binary.LittleEndian.PutUint32(u32[:], uint32(r.Stream))
			bw.Write(u32[:])
		}
		if r.Op == Write {
			for _, id := range r.Content {
				binary.LittleEndian.PutUint64(u64[:], uint64(id))
				bw.Write(u64[:])
			}
		}
	}
	return bw.Flush()
}

// ReadBinary decodes a binary-format trace.
func ReadBinary(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, err
	}
	if magic != binMagic {
		return nil, fmt.Errorf("trace: bad binary magic %q", magic)
	}
	var u32 [4]byte
	var u64 [8]byte
	if _, err := io.ReadFull(br, u32[:]); err != nil {
		return nil, err
	}
	nameLen := binary.LittleEndian.Uint32(u32[:])
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(br, u64[:]); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint64(u64[:])
	if count > 1<<32 {
		return nil, fmt.Errorf("trace: implausible request count %d", count)
	}
	t := &Trace{Name: string(nameBuf), Requests: make([]Request, 0, count)}
	for i := uint64(0); i < count; i++ {
		var req Request
		if _, err := io.ReadFull(br, u64[:]); err != nil {
			return nil, err
		}
		req.Time = sim.Time(binary.LittleEndian.Uint64(u64[:]))
		op, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		req.Op = Op(op &^ binStreamFlag)
		if _, err := io.ReadFull(br, u64[:]); err != nil {
			return nil, err
		}
		req.LBA = binary.LittleEndian.Uint64(u64[:])
		if _, err := io.ReadFull(br, u32[:]); err != nil {
			return nil, err
		}
		req.N = int(binary.LittleEndian.Uint32(u32[:]))
		if req.N <= 0 || req.N > 1<<20 {
			return nil, fmt.Errorf("trace: request %d: implausible chunk count %d", i, req.N)
		}
		if op&binStreamFlag != 0 {
			if _, err := io.ReadFull(br, u32[:]); err != nil {
				return nil, err
			}
			req.Stream = StreamID(binary.LittleEndian.Uint32(u32[:]))
		}
		if req.Op == Write {
			req.Content = make([]chunk.ContentID, req.N)
			for j := 0; j < req.N; j++ {
				if _, err := io.ReadFull(br, u64[:]); err != nil {
					return nil, err
				}
				req.Content[j] = chunk.ContentID(binary.LittleEndian.Uint64(u64[:]))
			}
		}
		if err := req.Validate(); err != nil {
			return nil, fmt.Errorf("trace: request %d: %v", i, err)
		}
		t.Requests = append(t.Requests, req)
	}
	return t, nil
}
