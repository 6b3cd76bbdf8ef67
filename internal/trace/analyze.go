package trace

import (
	"github.com/pod-dedup/pod/internal/chunk"
)

// Characteristics are the Table II trace statistics.
type Characteristics struct {
	Name       string
	IOs        int
	WriteRatio float64 // percent
	AvgReqKB   float64
}

// SizeBucket is one bar group of Figure 1: write-request counts within
// a size class and how many of them were redundant.
type SizeBucket struct {
	LabelKB   int   // 4, 8, 16, 32, 64, 128 (≥128 for the last)
	Total     int64 // write requests in this size class
	Redundant int64 // fully redundant write requests (all chunks seen before)
}

// Analysis aggregates everything the paper's workload figures report.
type Analysis struct {
	Chars Characteristics

	// Figure 1: redundancy distribution across request sizes.
	Buckets []SizeBucket

	// Figure 2 (percent of written chunks): writes whose content
	// already sits at the very same LBA (same location — pure I/O
	// redundancy) vs. content duplicated from elsewhere (different
	// location — capacity redundancy). IORedundancyPct is their sum.
	SameLBAPct      float64
	DiffLBAPct      float64
	IORedundancyPct float64

	// Chunk-level totals.
	WriteChunks     int64
	RedundantChunks int64
}

// BucketLabelsKB are the Figure 1 size classes.
var BucketLabelsKB = []int{4, 8, 16, 32, 64, 128}

func bucketIndex(n int) int {
	kb := n * chunk.Size / 1024
	for i, lim := range BucketLabelsKB {
		if kb <= lim || i == len(BucketLabelsKB)-1 {
			return i
		}
	}
	return len(BucketLabelsKB) - 1
}

// Analyze computes the workload-characterization statistics over a
// trace in one streaming pass. Redundancy is judged against the history
// of the stream itself: a chunk is redundant when its content was
// written earlier, and the redundancy is "same location" when the chunk
// currently stored at the target LBA already has that content.
func Analyze(t *Trace) *Analysis {
	a := &Analysis{}
	a.Chars.Name = t.Name
	a.Buckets = make([]SizeBucket, len(BucketLabelsKB))
	for i, kb := range BucketLabelsKB {
		a.Buckets[i].LabelKB = kb
	}

	seen := make(map[chunk.ContentID]struct{})
	var at Volume // lba -> current content

	var writes, totalChunksAll int64
	var sameLBA, diffLBA int64
	for i := range t.Requests {
		r := &t.Requests[i]
		totalChunksAll += int64(r.N)
		if r.Op != Write {
			continue
		}
		writes++
		b := bucketIndex(r.N)
		a.Buckets[b].Total++

		redundant := 0
		for j, id := range r.Content {
			lba := r.LBA + uint64(j)
			if _, ok := seen[id]; ok {
				redundant++
				if cur, ok, _ := at.Lookup(lba); ok && cur == id {
					sameLBA++
				} else {
					diffLBA++
				}
			}
			seen[id] = struct{}{}
			at.Set(lba, id)
		}
		a.WriteChunks += int64(r.N)
		a.RedundantChunks += int64(redundant)
		if redundant == r.N {
			a.Buckets[b].Redundant++
		}
	}

	a.Chars.IOs = len(t.Requests)
	if len(t.Requests) > 0 {
		a.Chars.WriteRatio = 100 * float64(writes) / float64(len(t.Requests))
		a.Chars.AvgReqKB = float64(totalChunksAll) * chunk.Size / 1024 / float64(len(t.Requests))
	}
	if a.WriteChunks > 0 {
		a.SameLBAPct = 100 * float64(sameLBA) / float64(a.WriteChunks)
		a.DiffLBAPct = 100 * float64(diffLBA) / float64(a.WriteChunks)
		a.IORedundancyPct = a.SameLBAPct + a.DiffLBAPct
	}
	return a
}
