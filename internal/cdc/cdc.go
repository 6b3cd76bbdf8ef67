// Package cdc implements content-defined chunking (CDC) as a
// selectable engine axis: a Gear rolling-hash chunker and a
// SeqCDC-style sequence-based chunker, both batch-oriented and
// allocation-free in steady state.
//
// The rest of the repository identifies chunk content by opaque
// ContentIDs at a fixed 4 KiB granularity — equal IDs mean
// byte-identical chunks, and nothing below the workload generator ever
// sees bytes. That model cannot express *shifted* duplicate content: a
// snapshot stream that gained a few bytes at its head has every 4 KiB
// block re-aligned, so fixed chunking (and any ID-granular scheme)
// dedups exactly 0% of it. This package closes the gap in three
// layers:
//
//  1. A deterministic byte-materializer (materialize.go) expands
//     synthetic ContentID streams into reproducible byte content.
//     Edit-encoded IDs (EncodeEdit: object, generation, block index)
//     describe snapshot generations whose bytes are the previous
//     generation's bytes shifted by a small head insert or delete, so
//     byte-level redundancy exists between generations even though
//     every 4 KiB block differs.
//  2. A two-stage chunker: a batched landmark sweep (gear.go,
//     seqcdc.go) marks candidate cutpoints in a bitmap, 64 positions a
//     word — Gear asks each 64-byte block whether it holds a landmark
//     at all and walks only those that do for positions, SeqCDC finds
//     a block's run ends with shifts and ANDs of one step word — then
//     cut derivation (cut.go) applies min/avg/max bounds. For stream
//     (edit-ID) content the cuts are *normalized*: a landmark is
//     accepted only when no other landmark precedes it within
//     minBytes, making every accepted cut a pure function of a
//     bounded content window — byte-shifted content re-synchronizes
//     to identical chunks within one max-chunk distance of the edit.
//  3. A Splitter (splitter.go) that turns one write request's IDs
//     into engine chunks: each CDC chunk occupies one logical slot,
//     its ContentID is a 64-bit hash of its bytes (bytesHash: four
//     lanes over 32-byte stripes, folded and avalanched), and its
//     fingerprint derives from that ID exactly like the synthetic
//     fixed-4K path — so the Map table, allocator, index cache, and
//     every dedup decision downstream work unchanged.
//
// Fixed4K (the default) bypasses all of this: engines split requests
// one ID per chunk as before, keeping every paper artifact
// byte-identical. See DESIGN.md §14.
package cdc

import (
	"fmt"
	"strings"
)

// Algo selects the chunking algorithm of one engine.
type Algo int

const (
	// Fixed4K is the repository default: one chunk per 4 KiB content
	// ID, no byte materialization. The zero value, so an unset
	// Params leaves every existing configuration untouched.
	Fixed4K Algo = iota
	// Gear is a Gear rolling-hash chunker (the FastCDC/VectorCDC hash
	// family): h = (h<<1) + G[b], landmark where the top avgBits bits
	// of h are zero. The hash window is exactly 64 bytes. The sweep
	// keeps the smallest hash of each 64-byte block beside the chain
	// and looks for positions only in a block whose minimum qualifies.
	Gear
	// SeqCDC is a hashless sequence-based chunker in the style of
	// SeqCDC/VectorCDC: a landmark is a run of seqLen consecutive
	// strictly-increasing byte steps. Cheaper per byte than Gear: the
	// sweep is bit-parallel and branch-free — a SWAR byte compare per 8
	// input bytes builds a 64-bit step bitmap, and shifts and ANDs of
	// that word find the run ends of 64 positions at once.
	SeqCDC
)

// String names the algorithm as accepted by ParseAlgo.
func (a Algo) String() string {
	switch a {
	case Fixed4K:
		return "fixed4k"
	case Gear:
		return "gear"
	case SeqCDC:
		return "seqcdc"
	default:
		return fmt.Sprintf("cdc.Algo(%d)", int(a))
	}
}

// Algos lists the selectable chunkers in presentation order.
func Algos() []Algo { return []Algo{Fixed4K, Gear, SeqCDC} }

// ParseAlgo resolves a chunker name case-insensitively, ignoring
// hyphen/underscore/space punctuation ("fixed4k", "Fixed-4K", "gear",
// "SeqCDC" all resolve), mirroring pod.ParseScheme so every
// command-line tool validates -chunking the same way.
func ParseAlgo(s string) (Algo, error) {
	norm := func(v string) string {
		v = strings.ToLower(v)
		for _, cut := range []string{"-", "_", " "} {
			v = strings.ReplaceAll(v, cut, "")
		}
		return v
	}
	want := norm(s)
	if want == "" {
		return Fixed4K, fmt.Errorf("cdc: empty chunker name")
	}
	for _, a := range Algos() {
		if norm(a.String()) == want {
			return a, nil
		}
	}
	var names []string
	for _, a := range Algos() {
		names = append(names, a.String())
	}
	return Fixed4K, fmt.Errorf("cdc: unknown chunker %q (have %s)", s, strings.Join(names, ", "))
}

// Params configures one engine's chunker. The zero value selects
// Fixed4K (CDC off); Algo is the one choice a caller makes. The chunk
// shape below has a single serving value, the default WithDefaults
// fills in; it is a set of fields only so this package's kernel
// cross-checks and fuzz targets can sweep it (avgBits 6 makes Gear's
// rare path the common one, every legal seqLen, small min/max bounds).
type Params struct {
	Algo Algo

	// minBytes and maxBytes bound every emitted chunk (the head and
	// tail chunk of a stream may run shorter). Defaults 2048 / 16384.
	minBytes int
	maxBytes int

	// avgBits sets Gear's landmark density: a landmark roughly every
	// 2^avgBits bytes before the min-bound filter. Default 11 (2 KiB).
	avgBits int

	// seqLen sets SeqCDC's landmark condition: a run of seqLen
	// consecutive strictly-increasing byte steps. Default 6 (≈1/5040
	// positions on random bytes).
	seqLen int
}

// Enabled reports whether content-defined chunking is on.
func (p Params) Enabled() bool { return p.Algo != Fixed4K }

// WithDefaults fills unset fields with the evaluation defaults.
func (p Params) WithDefaults() Params {
	if p.minBytes == 0 {
		p.minBytes = 2048
	}
	if p.maxBytes == 0 {
		p.maxBytes = 16384
	}
	if p.avgBits == 0 {
		p.avgBits = 11
	}
	if p.seqLen == 0 {
		p.seqLen = 6
	}
	return p
}

// Validate rejects parameter combinations the splitter cannot honor.
func (p Params) Validate() error {
	p = p.WithDefaults()
	if !p.Enabled() {
		return nil
	}
	if p.minBytes < 256 {
		return fmt.Errorf("cdc: minBytes %d < 256", p.minBytes)
	}
	if p.maxBytes < 2*p.minBytes {
		return fmt.Errorf("cdc: maxBytes %d < 2×minBytes %d", p.maxBytes, p.minBytes)
	}
	if p.maxBytes > 1<<20 {
		return fmt.Errorf("cdc: maxBytes %d > 1 MiB", p.maxBytes)
	}
	if p.avgBits < 6 || p.avgBits > 20 {
		return fmt.Errorf("cdc: avgBits %d outside [6, 20]", p.avgBits)
	}
	if p.seqLen < 3 || p.seqLen > 16 {
		return fmt.Errorf("cdc: seqLen %d outside [3, 16]", p.seqLen)
	}
	return nil
}
