// Package core implements the paper's primary contribution: the
// request-based Select-Dedupe write path with its three-way request
// classification (§III-B, Figure 5), and POD — Select-Dedupe combined
// with the adaptive iCache controller (§III-C).
package core

import "github.com/pod-dedup/pod/internal/alloc"

// Category is Select-Dedupe's write-request classification.
type Category int

// Categories of Figure 5. CatUnique is the degenerate case of a request
// containing no redundant chunk at all (trivially "category 2" in
// behaviour: everything is written).
const (
	CatUnique Category = iota
	// Cat1: fully redundant and the duplicate copies are stored
	// sequentially on disk — deduplicate the whole request.
	Cat1
	// Cat2: partially redundant with fewer redundant chunks than the
	// threshold, or redundancy too scattered to exploit — write
	// everything, avoiding fragmentation and read amplification.
	Cat2
	// Cat3: enough redundant chunks, sequentially stored — deduplicate
	// the sequential runs, write the rest.
	Cat3
)

// ClassifyInto decides, for one write request, which chunks
// Select-Dedupe deduplicates. dup[i] marks chunks whose fingerprint hit
// the hot index; target[i] is the physical block of the existing copy
// (valid where dup[i]). threshold is the paper's partial-redundancy
// threshold (3 in the prototype).
//
// The decision follows Figure 5:
//
//   - A fully redundant request whose duplicate copies form one
//     sequential run is category 1: everything is deduplicated (this
//     includes every fully redundant small write — the requests iDedup
//     ignores and POD exists to eliminate).
//   - Otherwise, sequential duplicate runs of at least threshold chunks
//     are deduplicated (category 3); a request with redundancy below
//     the threshold, or whose duplicates are scattered singletons, is
//     written in full (category 2) so that subsequent reads stay
//     sequential.
//
// The positions to deduplicate are marked in dedupe, a caller-provided
// mask of dup's length (the engines pass per-request scratch so the hot
// path does not allocate); it is cleared before the decision is written.
func ClassifyInto(dedupe, dup []bool, target []alloc.PBA, threshold int) Category {
	n := len(dup)
	for i := range dedupe {
		dedupe[i] = false
	}
	totalDup := 0
	for _, d := range dup {
		if d {
			totalDup++
		}
	}
	if totalDup == 0 {
		return CatUnique
	}

	// fully redundant + one sequential run covering the request → Cat1
	if totalDup == n {
		sequential := true
		for i := 1; i < n; i++ {
			if target[i] != target[i-1]+1 {
				sequential = false
				break
			}
		}
		if sequential {
			for i := range dedupe {
				dedupe[i] = true
			}
			return Cat1
		}
	}

	// below the threshold: never fragment for so little
	if totalDup < threshold && totalDup < n {
		return Cat2
	}

	// deduplicate sequential duplicate runs of at least threshold
	deduped := false
	i := 0
	for i < n {
		if !dup[i] {
			i++
			continue
		}
		j := i + 1
		for j < n && dup[j] && target[j] == target[j-1]+1 {
			j++
		}
		if j-i >= threshold {
			for k := i; k < j; k++ {
				dedupe[k] = true
			}
			deduped = true
		}
		i = j
	}
	if deduped {
		return Cat3
	}
	return Cat2
}
