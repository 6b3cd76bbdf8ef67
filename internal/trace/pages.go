package trace

// PageBits is the width of a page of LBA-indexed state: one routing
// granule (server.DefaultGranChunks, 1 024 LBAs). A shard holds LBAs
// only in the granules the router deals it, so with pages any wider
// every shard would touch every page of the footprint and fill a
// 1/shards share of each.
const PageBits = 10

// Pages is the directory of a paged array over [0, LBALimit): page pg
// holds keys [pg<<PageBits, (pg+1)<<PageBits). It has two levels, a
// fixed top of 256 leaves of 1 024 page pointers each, so it costs
// 2 KiB plus one 8 KiB leaf per span of 2^20 keys that holds a page,
// whatever the highest key: one key near LBALimit costs one leaf, where
// a flat directory grown to reach it would cost 2 MiB. A lookup makes
// as many dependent loads as a flat slice's (leaf, page, entry). The
// zero Pages is empty and ready.
type Pages[P any] struct {
	top [maxPages >> dirBits]*[dirFan]*P
}

const (
	dirBits = 10
	dirFan  = 1 << dirBits
	dirMask = dirFan - 1

	maxPages = LBALimit >> PageBits // the pages below LBALimit
)

// Page returns page pg, or nil if it was never added.
func (d *Pages[P]) Page(pg uint64) *P {
	t := pg >> dirBits
	if t >= uint64(len(d.top)) {
		return nil
	}
	if leaf := d.top[t]; leaf != nil {
		return leaf[pg&dirMask]
	}
	return nil
}

// Slot returns where page pg is kept, adding its leaf if absent; the
// caller fills a nil slot. It panics on a page at or past LBALimit.
func (d *Pages[P]) Slot(pg uint64) **P {
	t := pg >> dirBits
	if t >= uint64(len(d.top)) {
		panic("trace: page past the logical-address bound")
	}
	leaf := d.top[t]
	if leaf == nil {
		leaf = new([dirFan]*P)
		d.top[t] = leaf
	}
	return &leaf[pg&dirMask]
}

// Each visits every page in ascending order; fn returns false to stop,
// and Each then returns false.
func (d *Pages[P]) Each(fn func(pg uint64, p *P) bool) bool {
	for t, leaf := range d.top {
		if leaf == nil {
			continue
		}
		for i, p := range leaf {
			if p != nil && !fn(uint64(t)<<dirBits|uint64(i), p) {
				return false
			}
		}
	}
	return true
}

// Any reports whether any page of [lo, hi] is present; hi must be a
// page below LBALimit. It skips a missing leaf whole, so it costs the
// leaves the range meets and the pages of those present, not the
// range's length.
func (d *Pages[P]) Any(lo, hi uint64) bool {
	for pg := lo; pg <= hi; pg++ {
		if d.top[pg>>dirBits] == nil {
			pg |= dirMask
		} else if d.Page(pg) != nil {
			return true
		}
	}
	return false
}

// Clear hands every page to put, in ascending order, and empties the
// directory. It keeps the leaves, so a directory refilled over the
// same span allocates nothing.
func (d *Pages[P]) Clear(put func(*P)) {
	for _, leaf := range d.top {
		if leaf == nil {
			continue
		}
		for i, p := range leaf {
			if p != nil {
				put(p)
				leaf[i] = nil
			}
		}
	}
}
