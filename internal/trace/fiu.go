package trace

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"

	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/sim"
)

// FIU SRT trace support. The original evaluation replays the FIU SyLab
// traces (Koller & Rangaswami, FAST'10), distributed via SNIA as text
// records:
//
//	<ts> <pid> <process> <blockNo> <blockCount> <W|R> <major> <minor> <md5>
//
// one record per fixed-size access unit, each carrying the MD5 of its
// content — which maps directly onto this repository's content-ID
// model. ReadFIU converts a record stream into chunk-addressed
// requests; pipe the result through Reassemble to reconstruct the
// original multi-block requests exactly as the paper's §IV-A describes.
//
// This reproduction ships synthetic stand-ins for the traces (package
// workload); ReadFIU exists so that anyone holding the real files can
// replay them unchanged.

// FIUOptions controls record interpretation.
type FIUOptions struct {
	// SectorBytes is the unit of blockNo/blockCount in the file
	// (512 for sector-addressed dumps, 4096 for block-addressed ones —
	// the SyLab web-vm/homes/mail releases are 512-byte addressed with
	// one MD5 per 4 KB record). Default 512.
	SectorBytes int
	// TimestampUnit is the duration of one timestamp tick. The SyLab
	// releases use milliseconds... some mirrors microseconds; default
	// is microseconds (1).
	TimestampUnitUS float64
	// KeepReads includes read records (true by default via ReadFIU).
	DropReads bool
}

// maxRecordChunks bounds one record: an FIU record is one access unit,
// and none is wider than 1 MiB. It also bounds what one line of input
// can make the reader allocate.
const maxRecordChunks = 1 << 20 / chunk.Size

// contentIDFromDigest maps a content digest string to a ContentID.
// Collisions are as unlikely as 64-bit FNV collisions over distinct
// MD5s — irrelevant for dedup-behaviour studies.
func contentIDFromDigest(d string) chunk.ContentID {
	h := fnv.New64a()
	io.WriteString(h, d)
	id := chunk.ContentID(h.Sum64())
	if id == 0 {
		id = 1
	}
	return id
}

// ReadFIU parses an FIU SRT record stream into a chunk-addressed trace.
// Each record becomes one request of ⌈blockCount×sector/4096⌉ chunks;
// write records carry the record's content identity for every chunk.
// Records with unparsable fields, or wider than 1 MiB, are rejected
// with a line-numbered error. Requests preserve file order; timestamps
// are normalized to start at zero.
func ReadFIU(r io.Reader, name string, opt FIUOptions) (*Trace, error) {
	if opt.SectorBytes == 0 {
		opt.SectorBytes = 512
	}
	if opt.TimestampUnitUS == 0 {
		opt.TimestampUnitUS = 1
	}
	if chunk.Size%opt.SectorBytes != 0 && opt.SectorBytes%chunk.Size != 0 {
		return nil, fmt.Errorf("trace: sector size %d incompatible with %d-byte chunks", opt.SectorBytes, chunk.Size)
	}

	t := &Trace{Name: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24) // grown to the longest line
	lineNo := 0
	var t0 int64
	first := true
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 9 {
			return nil, fmt.Errorf("trace: line %d: want 9 fields, got %d", lineNo, len(f))
		}
		ts, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad timestamp: %v", lineNo, err)
		}
		blockNo, err := strconv.ParseUint(f[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad block number: %v", lineNo, err)
		}
		blockCount, err := strconv.ParseUint(f[4], 10, 64)
		if err != nil || blockCount == 0 {
			return nil, fmt.Errorf("trace: line %d: bad block count %q", lineNo, f[4])
		}
		var op Op
		switch strings.ToUpper(f[5]) {
		case "W":
			op = Write
		case "R":
			op = Read
		default:
			return nil, fmt.Errorf("trace: line %d: bad op %q", lineNo, f[5])
		}
		if op == Read && opt.DropReads {
			continue
		}

		tsUS := int64(ts * opt.TimestampUnitUS)
		if first {
			t0 = tsUS
			first = false
		}
		rel := tsUS - t0
		if rel < 0 {
			rel = 0
		}

		if maxSectors := LBALimit * chunk.Size / uint64(opt.SectorBytes); blockNo > maxSectors || blockCount > maxSectors {
			return nil, fmt.Errorf("trace: line %d: %d sectors at sector %d run past the logical-address bound %d", lineNo, blockCount, blockNo, uint64(LBALimit))
		}
		bytesOff := blockNo * uint64(opt.SectorBytes)
		bytesLen := blockCount * uint64(opt.SectorBytes)
		lba := bytesOff / chunk.Size
		n := int((bytesOff%chunk.Size + bytesLen + chunk.Size - 1) / chunk.Size)
		if n < 1 {
			n = 1
		}
		if n > maxRecordChunks {
			return nil, fmt.Errorf("trace: line %d: a record of %d chunks, wider than %d", lineNo, n, maxRecordChunks)
		}

		req := Request{Time: sim.Time(rel), Op: op, LBA: lba, N: n}
		if op == Write {
			id := contentIDFromDigest(f[8])
			req.Content = make([]chunk.ContentID, n)
			for i := range req.Content {
				// multi-chunk records carry one digest; derive
				// per-chunk identities deterministically from it
				req.Content[i] = id + chunk.ContentID(i)*0x9E3779B97F4A7C15
			}
		}
		if err := req.Validate(); err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", lineNo, err)
		}
		t.Requests = append(t.Requests, req)
	}
	return t, sc.Err()
}
