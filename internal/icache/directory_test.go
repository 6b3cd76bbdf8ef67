package icache

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/sim"
)

// --- the reference ---

// mEntry is one fingerprint the model index side knows.
type mEntry struct {
	fp   chunk.Fingerprint
	pba  alloc.PBA
	home uint32 // the stream whose quota holds it, or held it
}

// model is the controller written the obvious way: one slice per
// stream and one for the ghost index, one for the read cache and one for
// its ghost, most recent first, linear search for everything. It states
// the behaviour the directory must reproduce; it follows the
// controller's partition decisions (the Swap Module's arithmetic is not
// under test) and reproduces everything that happens to the entries.
// content is what each written block holds, as the engine's Store keeps
// it: the index binds a fingerprint only to a block holding it, and a
// block leaves the index by what it held.
type model struct {
	adaptive, streamMode bool
	static, shares       map[uint32]float64
	icEntries, maxIndex  int
	order                []uint32 // streams, first seen first
	live                 map[uint32][]mEntry
	caps                 map[uint32]int
	ghost                []mEntry
	ghostCap             int
	lookups, hits, gHits map[uint32]int64
	ghostHits            int64
	content              map[alloc.PBA]chunk.Fingerprint

	// the read side: two plain LRUs of blocks, a block on either or both
	read, readGhost                []alloc.PBA
	readCap, readGhostCap, maxRead int
	readGhostHits                  int64
}

func newModel(p Params, streamMode bool, static map[uint32]float64) *model {
	m := &model{
		adaptive: p.Adaptive, streamMode: streamMode, static: static,
		maxIndex: int(p.TotalBytes) / p.IndexEntryBytes,
		live:     map[uint32][]mEntry{}, caps: map[uint32]int{}, content: map[alloc.PBA]chunk.Fingerprint{},
		lookups: map[uint32]int64{}, hits: map[uint32]int64{}, gHits: map[uint32]int64{},
		maxRead: int(p.TotalBytes) / blockBytes,
	}
	idxBytes := int64(p.IndexFrac * float64(p.TotalBytes))
	m.icEntries = int(idxBytes) / p.IndexEntryBytes
	m.ghostCap = m.maxIndex - m.icEntries
	m.readCap = int(p.TotalBytes-idxBytes) / blockBytes
	m.readGhostCap = m.maxRead - m.readCap
	if !streamMode {
		m.order = []uint32{0}
		m.caps[0] = m.icEntries
	}
	return m
}

func (m *model) capFor(id uint32) int {
	share := 1.0
	switch {
	case !m.streamMode:
	case m.static != nil:
		share = m.static[id]
	case m.shares != nil:
		share = m.shares[id]
	default:
		share = 1.0 / float64(len(m.order))
	}
	if c := int(share * float64(m.icEntries)); c > 0 {
		return c
	}
	return 0
}

// toGhost parks an evicted entry in the ghost, whose oldest entry falls
// off when it is over capacity; the fixed partition keeps no ghost.
func (m *model) toGhost(e mEntry) {
	if !m.adaptive {
		return
	}
	m.ghost = append([]mEntry{e}, m.ghost...)
	if len(m.ghost) > m.ghostCap {
		m.ghost = m.ghost[:len(m.ghost)-1]
	}
}

// shrink evicts stream id's oldest entries until it fits its quota.
func (m *model) shrink(id uint32) {
	for l := m.live[id]; len(l) > m.caps[id]; l = m.live[id] {
		m.live[id] = l[:len(l)-1]
		m.toGhost(l[len(l)-1])
	}
}

func (m *model) applyQuotas() {
	for _, id := range m.order {
		m.caps[id] = m.capFor(id)
		m.shrink(id)
	}
}

// sub resolves the stream a request is served under, creating it on
// first sight — which, during the equal-split start-up, re-divides
// every quota.
func (m *model) sub(stream uint32) uint32 {
	if !m.streamMode {
		return 0
	}
	if _, ok := m.caps[stream]; ok {
		return stream
	}
	m.order = append(m.order, stream)
	m.caps[stream] = 0
	if m.static == nil && m.shares == nil {
		m.applyQuotas()
	} else {
		m.caps[stream] = m.capFor(stream)
	}
	return stream
}

func (m *model) findLive(fp chunk.Fingerprint) (uint32, int) {
	for _, id := range m.order {
		for k, e := range m.live[id] {
			if e.fp == fp {
				return id, k
			}
		}
	}
	return 0, -1
}

func (m *model) findGhost(fp chunk.Fingerprint) int {
	for k, e := range m.ghost {
		if e.fp == fp {
			return k
		}
	}
	return -1
}

func without(l []mEntry, k int) []mEntry {
	return append(append([]mEntry{}, l[:k]...), l[k+1:]...)
}

func (m *model) promote(id uint32, k int, e mEntry) {
	m.live[id] = append([]mEntry{e}, without(m.live[id], k)...)
}

func (m *model) lookup(stream uint32, fp chunk.Fingerprint) (Entry, bool) {
	s := m.sub(stream)
	m.lookups[s]++
	if id, k := m.findLive(fp); k >= 0 {
		e := m.live[id][k]
		m.promote(id, k, e)
		m.hits[s]++
		return Entry{PBA: e.pba}, true
	}
	if k := m.findGhost(fp); k >= 0 {
		m.ghostHits++
		m.gHits[m.ghost[k].home]++
	}
	return Entry{}, false
}

func (m *model) peek(fp chunk.Fingerprint) (Entry, bool) {
	if id, k := m.findLive(fp); k >= 0 {
		return Entry{PBA: m.live[id][k].pba}, true
	}
	return Entry{}, false
}

func (m *model) insert(stream uint32, fp chunk.Fingerprint, pba alloc.PBA) {
	if id, k := m.findLive(fp); k >= 0 {
		if e := m.live[id][k]; e.pba != pba {
			e.pba = pba
			m.promote(id, k, e)
		}
		return
	}
	if k := m.findGhost(fp); k >= 0 {
		m.ghost = without(m.ghost, k)
	}
	s := m.sub(stream)
	if m.caps[s] == 0 {
		return
	}
	m.live[s] = append([]mEntry{{fp: fp, pba: pba, home: s}}, m.live[s]...)
	m.shrink(s)
}

// forget drops fp's entry, cached or ghosted, if it binds pba.
func (m *model) forget(fp chunk.Fingerprint, pba alloc.PBA) {
	if id, k := m.findLive(fp); k >= 0 && m.live[id][k].pba == pba {
		m.live[id] = without(m.live[id], k)
	}
	if k := m.findGhost(fp); k >= 0 && m.ghost[k].pba == pba {
		m.ghost = without(m.ghost, k)
	}
}

// free drops a freed block from both sides, as the engine does: the
// read side by the block, the index by what the block held.
func (m *model) free(pba alloc.PBA) {
	m.purgeWhere(func(b alloc.PBA) bool { return b == pba })
	if f, ok := m.content[pba]; ok {
		m.forget(f, pba)
		delete(m.content, pba)
	}
}

// --- the model's read side ---

func blockAt(l []alloc.PBA, pba alloc.PBA) int {
	for k, b := range l {
		if b == pba {
			return k
		}
	}
	return -1
}

// toFront makes pba the most recent block of l, adding it if absent.
func toFront(l []alloc.PBA, pba alloc.PBA) []alloc.PBA {
	if k := blockAt(l, pba); k >= 0 {
		l = append(l[:k:k], l[k+1:]...)
	}
	return append([]alloc.PBA{pba}, l...)
}

// toReadGhost records a read-cache eviction: only the adaptive
// controller keeps a read ghost; a block it already holds becomes its
// most recent, otherwise the oldest falls off when it is over capacity.
func (m *model) toReadGhost(pba alloc.PBA) {
	if !m.adaptive {
		return
	}
	m.readGhost = toFront(m.readGhost, pba)
	if len(m.readGhost) > m.readGhostCap {
		m.readGhost = m.readGhost[:len(m.readGhost)-1]
	}
}

func (m *model) shrinkRead() {
	for len(m.read) > m.readCap {
		victim := m.read[len(m.read)-1]
		m.read = m.read[:len(m.read)-1]
		m.toReadGhost(victim)
	}
}

// readHit promotes a cached block; a miss the adaptive read ghost
// remembers is a ghost hit and consumes the ghost's entry.
func (m *model) readHit(pba alloc.PBA) bool {
	if blockAt(m.read, pba) >= 0 {
		m.read = toFront(m.read, pba)
		return true
	}
	if k := blockAt(m.readGhost, pba); m.adaptive && k >= 0 {
		m.readGhost = append(m.readGhost[:k:k], m.readGhost[k+1:]...)
		m.readGhostHits++
	}
	return false
}

// readInsert caches pba, leaving any read-ghost entry for it in place.
func (m *model) readInsert(pba alloc.PBA) {
	m.read = toFront(m.read, pba)
	m.shrinkRead()
}

func (m *model) purgeWhere(pred func(alloc.PBA) bool) {
	keep := func(l []alloc.PBA) []alloc.PBA {
		var out []alloc.PBA
		for _, b := range l {
			if !pred(b) {
				out = append(out, b)
			}
		}
		return out
	}
	m.read, m.readGhost = keep(m.read), keep(m.readGhost)
}

// readRepartition applies a Swap Module decision to the read side: the
// cache shrinks into its ghost at the ghost's old capacity, the ghost
// takes its new capacity, then — if the cache grew — the most recent
// ghosts fill the room, each landing in front of the one before it. It
// returns the blocks re-admitted, in the order they were chosen.
func (m *model) readRepartition(readCap int, grew bool) []alloc.PBA {
	m.readCap = readCap
	m.shrinkRead()
	m.readGhostCap = m.maxRead - readCap
	if len(m.readGhost) > m.readGhostCap {
		m.readGhost = m.readGhost[:max(m.readGhostCap, 0)]
	}
	if !grew {
		return nil
	}
	room := min(max(readCap-len(m.read), 0), len(m.readGhost))
	chosen := append([]alloc.PBA(nil), m.readGhost[:room]...)
	m.readGhost = m.readGhost[room:]
	for _, b := range chosen {
		m.read = toFront(m.read, b)
	}
	return chosen
}

func (m *model) setShares(shares map[uint32]float64) {
	if !m.streamMode || m.static != nil {
		return
	}
	m.shares = map[uint32]float64{}
	for id, s := range shares {
		m.shares[id] = s
	}
	m.applyQuotas()
}

// repartition applies a Swap Module decision: quotas shrink into the
// ghost at its old capacity, then the ghost takes its new capacity,
// then — if the index grew — the most recent ghosts come back, each
// while its own stream has room, inserted in the order they were chosen.
func (m *model) repartition(icEntries int, grew bool) (swapIns int) {
	m.icEntries = icEntries
	m.applyQuotas()
	m.ghostCap = m.maxIndex - icEntries
	if len(m.ghost) > m.ghostCap {
		m.ghost = m.ghost[:m.ghostCap]
	}
	if !grew {
		return 0
	}
	room, total := map[uint32]int{}, 0
	for _, id := range m.order {
		if r := m.caps[id] - len(m.live[id]); r > 0 {
			room[id] = r
			total += r
		}
	}
	var chosen, rest []mEntry
	for _, e := range m.ghost {
		if total > 0 && room[e.home] > 0 {
			room[e.home]--
			total--
			chosen = append(chosen, e)
		} else {
			rest = append(rest, e)
		}
	}
	m.ghost = rest
	for _, e := range chosen {
		m.live[e.home] = append([]mEntry{e}, m.live[e.home]...)
	}
	return len(chosen)
}

// --- what the controller shows ---

// indexOrder lists every cached index entry, stream by stream in
// first-seen order, each from most to least recently used, with the
// stream whose quota holds it (0 outside stream mode).
func indexOrder(c *Controller) []mEntry {
	var out []mEntry
	d := &c.dir
	for k, a := range c.acct {
		h := d.lists[k+firstIndexList].head
		for i := d.at(h).next; i != h; i = d.at(i).next {
			e := d.entry(i)
			out = append(out, mEntry{fp: d.at(i).fp, pba: e.PBA, home: a.id})
		}
	}
	return out
}

// quota is one stream's quota and hit accounting: what its
// icache_stream_* gauges publish.
type quota struct {
	Stream        uint32
	Cap, Len      int
	Lookups, Hits int64
	GhostHits     int64
}

// quotas lists every stream's quota in first-seen order (nil when
// stream mode is off).
func quotas(c *Controller) []quota {
	if !c.streamMode {
		return nil
	}
	out := make([]quota, 0, len(c.acct))
	for k, a := range c.acct {
		l := c.dir.lists[k+firstIndexList]
		out = append(out, quota{Stream: a.id, Cap: l.cap, Len: l.n, Lookups: a.lookups, Hits: a.hits, GhostHits: a.ghostHits})
	}
	return out
}

// ghostOrder lists the controller's ghost index, most recent first, as
// model entries.
func ghostOrder(c *Controller) []mEntry {
	var out []mEntry
	d := &c.dir
	h := d.lists[ghostList].head
	for i := d.at(h).next; i != h; i = d.at(i).next {
		s := d.at(i)
		out = append(out, mEntry{fp: s.fp, pba: s.pba, home: c.acct[s.home-firstIndexList].id})
	}
	return out
}

// readOrder lists the controller's read cache and read ghost, most
// recent first (nil when empty, as the model keeps them).
func readOrder(c *Controller) (read, ghost []alloc.PBA) {
	return blocksOn(&c.dir, readList), blocksOn(&c.dir, readGhostList)
}

func blocksOn(d *directory, l int32) []alloc.PBA {
	var out []alloc.PBA
	h := d.lists[l].head
	for i := d.at(h).next; i != h; i = d.at(i).next {
		out = append(out, d.at(i).pba)
	}
	return out
}

// agree compares everything observable about the controller.
func agree(c *Controller, m *model) error {
	got, want := indexOrder(c), []mEntry(nil)
	for _, id := range m.order {
		want = append(want, m.live[id]...)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("index order (stream by stream, MRU first) differs:\n got  %v\n want %v", got, want)
	}
	gg, mg := ghostOrder(c), append([]mEntry(nil), m.ghost...)
	if !reflect.DeepEqual(gg, mg) {
		return fmt.Errorf("ghost order differs:\n got  %v\n want %v", gg, mg)
	}
	if c.totalGhostIdxHits != m.ghostHits {
		return fmt.Errorf("ghost hits = %d, want %d", c.totalGhostIdxHits, m.ghostHits)
	}
	if c.IndexCapTotal() != m.icEntries {
		return fmt.Errorf("index partition = %d entries, want %d", c.IndexCapTotal(), m.icEntries)
	}
	var wantQ []quota
	if m.streamMode {
		wantQ = []quota{}
		for _, id := range m.order {
			q := quota{Stream: id, Cap: m.caps[id], Len: len(m.live[id]),
				Lookups: m.lookups[id], Hits: m.hits[id], GhostHits: m.gHits[id]}
			wantQ = append(wantQ, q)
		}
	}
	gotQ := quotas(c)
	if !reflect.DeepEqual(gotQ, wantQ) {
		return fmt.Errorf("stream quotas differ:\n got  %+v\n want %+v", gotQ, wantQ)
	}
	if !m.streamMode {
		s := c.acct[0]
		if s.lookups != m.lookups[0] || s.hits != m.hits[0] || s.ghostHits != m.gHits[0] {
			return fmt.Errorf("lookups/hits/ghost hits = %d/%d/%d, want %d/%d/%d",
				s.lookups, s.hits, s.ghostHits, m.lookups[0], m.hits[0], m.gHits[0])
		}
	}
	read, readGhost := readOrder(c)
	if !slices.Equal(read, m.read) || !slices.Equal(readGhost, m.readGhost) {
		return fmt.Errorf("read side differs:\n got  %v, ghost %v\n want %v, ghost %v", read, readGhost, m.read, m.readGhost)
	}
	if c.totalGhostReadHits != m.readGhostHits || c.ReadCacheCap() != m.readCap {
		return fmt.Errorf("read ghost hits = %d, read cap %d; want %d, %d",
			c.totalGhostReadHits, c.ReadCacheCap(), m.readGhostHits, m.readCap)
	}
	return c.CheckInvariants()
}

// --- the driver ---

// The shapes the directory serves, over a budget so small every list
// overflows: 64 index entries or 16 read blocks at most.
var dirModes = []struct {
	name             string
	adaptive, stream bool
	static           map[uint32]float64
	// arrivals: no shares are ever set and a new stream shows up every
	// 64 operations, so the equal split keeps being re-divided under load
	arrivals bool
	// oneBucket: every fingerprint shares its word's top half, so all of
	// them chain through one bucket at every size, every chained compare
	// is a mismatch of distinct words and entries leave from the middle
	// of the chain
	oneBucket bool
}{
	{name: "classic-fixed"},
	{name: "classic-adaptive", adaptive: true},
	// stream 3 is named with no quota, stream 4 not named at all
	{name: "streams-static", adaptive: true, stream: true, static: map[uint32]float64{1: 0.5, 2: 0.3, 3: 0}},
	{name: "streams-dynamic", adaptive: true, stream: true},
	{name: "streams-dynamic-fixed", stream: true},
	{name: "streams-arriving", adaptive: true, stream: true, arrivals: true},
	{name: "streams-one-bucket", adaptive: true, stream: true, oneBucket: true},
}

// modeFP is fingerprint id as a mode sees it: with oneBucket, every
// fingerprint has the same top half, and id is its bottom half.
func modeFP(oneBucket bool, id int) chunk.Fingerprint {
	if !oneBucket {
		return fp(uint64(id))
	}
	var f chunk.Fingerprint
	binary.LittleEndian.PutUint64(f[:], 0x5eed<<32|uint64(uint32(id)))
	return f
}

// dirState is everything a read-only pass must leave as it found it:
// every slot — so every list's members, order and links, and every
// chain —, both bucket arrays with their shifts and counts, the lists'
// counts and capacities, the per-stream lookups, hits and ghost hits,
// the Access Monitor's counters and the slab's shape.
type dirState struct {
	slots       []slot
	byFP, byPBA buckets
	lists       []lruList
	acct        []streamAcct
	counters    [8]int64
}

func stateOf(c *Controller) dirState {
	d := &c.dir
	clone := func(b buckets) buckets { b.heads = slices.Clone(b.heads); return b }
	st := dirState{
		byFP: clone(d.byFP), byPBA: clone(d.byPBA),
		lists: slices.Clone(d.lists), acct: slices.Clone(c.acct),
		counters: [...]int64{c.ghostIdxHits, c.ghostReadHits, c.totalGhostIdxHits, c.totalGhostReadHits,
			c.swapInsIdx, c.swapInsRd, int64(d.n), int64(d.free)},
	}
	for i := int32(0); i < d.n; i++ {
		st.slots = append(st.slots, *d.at(i))
	}
	return st
}

// dirParams is a budget of 64 index entries or 16 read blocks.
func dirParams(adaptive bool) Params {
	p := DefaultParams(16 * blockBytes)
	p.Adaptive = adaptive
	p.IndexEntryBytes = blockBytes / 4
	return p
}

// runDirectoryOps interprets data as a sequence of index-side
// operations (three bytes each), applies it to a controller and to the
// model, compares every returned entry as it goes and everything
// observable every few operations.
func runDirectoryOps(mode int, data []byte) error {
	cfg := dirModes[mode%len(dirModes)]
	p := dirParams(cfg.adaptive)
	c := New(p)
	if cfg.stream {
		c.EnableStreams(cfg.static)
	}
	m := newModel(p, cfg.stream, cfg.static)
	// free frees a block on both sides: the read side by the block, the
	// index by what the block held
	free := func(pba alloc.PBA) {
		c.PurgePBA(pba)
		if f, ok := m.content[pba]; ok {
			c.ForgetIndex(f, pba)
		}
		m.free(pba)
	}
	now := sim.Time(0)
	for n := 0; len(data) >= 3; n++ {
		op, a, b := data[0], data[1], data[2]
		data = data[3:]
		// 96 fingerprints written over 256 blocks, one to a block at a
		// time: more than the directory holds, with two or three copies
		// of each, so frequent remaps
		stream, f, pba := uint32(1+a>>6), modeFP(cfg.oneBucket, int(a%96)), alloc.PBA(b)
		if cfg.arrivals {
			stream = 1 + uint32(a>>4)%uint32(1+n/64)
			if op %= 32; op >= 29 {
				op = 0
			}
		}
		what := ""
		switch op %= 32; {
		case op < 10:
			what = fmt.Sprintf("lookup(%d, fp %d)", stream, a%96)
			ge, gok := c.IndexLookupS(stream, f)
			we, wok := m.lookup(stream, f)
			if ge != we || gok != wok {
				return fmt.Errorf("op %d %s = %+v, %v, want %+v, %v", n, what, ge, gok, we, wok)
			}
		case op < 20:
			// the write of f into pba, which first frees the block if it
			// holds something else
			what = fmt.Sprintf("insert(%d, fp %d, block %d)", stream, a%96, pba)
			if held, ok := m.content[pba]; ok && held != f {
				free(pba)
			}
			m.content[pba] = f
			c.IndexInsertS(stream, f, pba)
			m.insert(stream, f, pba)
		case op < 21:
			what = fmt.Sprintf("peek(fp %d)", a%96)
			ge, gok := indexPeek(c, f)
			we, wok := m.peek(f)
			if ge != we || gok != wok {
				return fmt.Errorf("op %d %s = %+v, %v, want %+v, %v", n, what, ge, gok, we, wok)
			}
		case op < 22:
			// a batch of up to eight fingerprints, 11 apart: warming them
			// must leave everything as it was, the model included
			var batch [8]chunk.Fingerprint
			for k := range batch {
				batch[k] = modeFP(cfg.oneBucket, (int(a)+11*k)%96)
			}
			what = fmt.Sprintf("warm(%d from fp %d)", 1+b%8, a%96)
			before := stateOf(c)
			c.Warm(batch[:1+b%8])
			if !reflect.DeepEqual(stateOf(c), before) {
				return fmt.Errorf("op %d %s changed the directory", n, what)
			}
		case op < 24:
			// the first 64 blocks: the read ops' 16..39 among them
			pba %= 64
			what = fmt.Sprintf("free(block %d)", pba)
			free(pba)
		case op < 26:
			// a read request as the engine serves it — a probe per block,
			// an insert per miss — over 24 blocks, twice the read side's
			// room, that the index binds too; now and then they are a
			// peer's blocks, as remote reads cache them
			what = fmt.Sprintf("read(from block %d)", 16+b%24)
			for k := 0; k < 12; k++ {
				blk := alloc.PBA(16 + (int(b)+k)%24)
				if a&8 != 0 {
					blk = alloc.MakeRemote(1, blk)
				}
				got, want := c.ReadHit(blk), m.readHit(blk)
				if got != want {
					return fmt.Errorf("op %d %s: block %d hit = %v, want %v", n, what, blk, got, want)
				}
				if !got {
					c.ReadInsert(blk)
					m.readInsert(blk)
				}
			}
		case op < 27:
			if a&3 == 0 {
				// a peer shard crashed: its blocks and one residue class go
				what = fmt.Sprintf("purgeWhere(remote or %%5 == %d)", b%5)
				pred := func(blk alloc.PBA) bool { return alloc.IsRemote(blk) || blk%5 == alloc.PBA(b%5) }
				c.PurgeWhere(pred)
				m.purgeWhere(pred)
				break
			}
			// an insert with no probe before it: a block the read ghost
			// remembers is then both cached and ghosted
			blk := alloc.PBA(16 + b%24)
			what = fmt.Sprintf("readInsert(block %d)", blk)
			c.ReadInsert(blk)
			m.readInsert(blk)
		case op < 29:
			what = "tick"
			now = now.Add(p.Interval)
			before := c.indexFrac
			rep := c.Tick(now)
			if rep.Changed {
				grew := c.indexFrac > before
				if want := m.repartition(c.IndexCapTotal(), grew); rep.IndexSwapIns != want {
					return fmt.Errorf("op %d tick: %d index swap-ins, want %d", n, rep.IndexSwapIns, want)
				}
				if want := m.readRepartition(c.ReadCacheCap(), !grew); !slices.Equal(rep.ReadSwapIns, want) {
					return fmt.Errorf("op %d tick: read swap-ins %v, want %v", n, rep.ReadSwapIns, want)
				}
			}
		default:
			// shares as the apportioner hands them out: a floor each, the
			// rest by weight, and now and then a stream left out
			w := [3]float64{float64(a & 7), float64(a >> 3 & 7), float64(b & 7)}
			sum := w[0] + w[1] + w[2] + 1e-9
			shares := map[uint32]float64{}
			for k, wk := range w {
				if b>>4&3 != uint8(k) {
					shares[uint32(k+1)] = 0.1 + 0.7*wk/sum
				}
			}
			what = fmt.Sprintf("shares(%v)", shares)
			c.SetStreamShares(shares)
			m.setShares(shares)
		}
		if n%8 == 0 || len(data) < 3 {
			if err := agree(c, m); err != nil {
				return fmt.Errorf("after op %d %s: %w", n, what, err)
			}
		}
	}
	return nil
}

// TestDirectoryMatchesModel drives long random operation sequences
// through every mode.
func TestDirectoryMatchesModel(t *testing.T) {
	for mode, cfg := range dirModes {
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				data := make([]byte, 3*4000)
				rand.New(rand.NewSource(seed)).Read(data)
				if err := runDirectoryOps(mode, data); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// FuzzDirectoryOps is the same driver under the fuzzer.
func FuzzDirectoryOps(f *testing.F) {
	for mode := range dirModes {
		data := make([]byte, 3*400)
		rand.New(rand.NewSource(int64(mode))).Read(data)
		f.Add(uint8(mode), data)
	}
	// overflow one stream, re-divide with a first-seen one, re-admit
	// through the write path, free a block, tick
	overflow := []byte{
		10, 0, 0, 10, 1, 1, 10, 2, 2, 10, 3, 3, 10, 4, 0, 10, 5, 1,
		0, 0, 0, 10, 64, 7, 10, 0, 9, 23, 0, 0, 27, 0, 0, 31, 9, 18, 27, 0, 0,
	}
	f.Add(uint8(3), overflow)
	// the same with every fingerprint in one bucket: the free and the
	// remap unlink from the middle of the chain
	f.Add(uint8(len(dirModes)-1), overflow)
	// the read side alone: overflow the read cache into its ghost, cache
	// ghosted blocks without a probe, repartition, cache a peer's blocks
	// and drop them with the crash sweep
	f.Add(uint8(1), []byte{
		24, 0, 0, 24, 0, 12, 24, 0, 3, 26, 1, 0, 26, 1, 1, 24, 0, 0, 27, 0, 0,
		24, 8, 5, 26, 0, 2, 24, 0, 7, 27, 0, 0,
	})
	f.Fuzz(func(t *testing.T, mode uint8, data []byte) {
		if err := runDirectoryOps(int(mode), data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWarmChangesNothing: warming is read-only. In every mode, a
// directory holding cached, ghosted and read-side entries is warmed with
// fingerprints it caches, ghosts and does not hold (in
// streams-one-bucket, all of them sharing one bucket); after each warm
// every slot, bucket, list and counter is what it was before, and the
// audit passes.
func TestWarmChangesNothing(t *testing.T) {
	for _, cfg := range dirModes {
		t.Run(cfg.name, func(t *testing.T) {
			c := New(dirParams(cfg.adaptive))
			if cfg.stream {
				c.EnableStreams(cfg.static)
			}
			// 96 fingerprints over three streams, more than the index's 64,
			// each write followed by a lookup and a read
			for id := 0; id < 96; id++ {
				stream := uint32(1 + id%3)
				c.IndexInsertS(stream, modeFP(cfg.oneBucket, id), alloc.PBA(id))
				c.IndexLookupS(stream, modeFP(cfg.oneBucket, id/2))
				if !c.ReadHit(alloc.PBA(id % 24)) {
					c.ReadInsert(alloc.PBA(id % 24))
				}
			}
			var cached, ghosted, absent []chunk.Fingerprint
			for id := 0; id < 112; id++ {
				f := modeFP(cfg.oneBucket, id)
				switch i := c.dir.find(f); {
				case i == 0:
					absent = append(absent, f)
				case c.dir.at(i).list == ghostList:
					ghosted = append(ghosted, f)
				default:
					cached = append(cached, f)
				}
			}
			if len(cached) == 0 || len(absent) == 0 || cfg.adaptive != (len(ghosted) > 0) {
				t.Fatalf("%d cached, %d ghosted, %d absent: the set-up does not cover the cases", len(cached), len(ghosted), len(absent))
			}
			all := slices.Concat(cached, ghosted, absent)
			for _, batch := range [][]chunk.Fingerprint{cached, ghosted, absent, all, all[:1], nil} {
				before := stateOf(c)
				c.Warm(batch)
				if !reflect.DeepEqual(stateOf(c), before) {
					t.Fatalf("warming %d fingerprints changed the directory", len(batch))
				}
				checkAll(t, c)
			}
			if c.dir.warmed == 0 {
				t.Fatal("warm loaded nothing")
			}
		})
	}
}

// --- the three ordering rules, by name ---

// fillIndex inserts n fresh fingerprints on stream, ids from first.
func fillIndex(c *Controller, stream uint32, first, n int) {
	for i := first; i < first+n; i++ {
		c.IndexInsertS(stream, fp(uint64(i)), alloc.PBA(i))
	}
}

func ghostLen(c *Controller) int { return c.dir.lists[ghostList].n }

// A shrinking index pushes its victims into the ghost, oldest first,
// while the ghost still has its old capacity — each pushes an old ghost
// out — and only then does the ghost take its new, larger capacity.
func TestGhostResizedAfterTheShrink(t *testing.T) {
	c := New(testParams(true)) // 512 index entries, 512 ghosts, 8 of 16 read blocks
	fillIndex(c, 0, 0, 1024)   // ids 0..511 ghosts (full), 512..1023 cached
	for i := 0; i < 64; i++ {
		c.ReadInsert(alloc.PBA(i))
	}
	for i := 48; i < 56; i++ { // the read ghost holds blocks 48..55
		c.ReadHit(alloc.PBA(i))
	}
	rep := c.Tick(sim.Time(sim.Second))
	if !rep.Changed || c.IndexCapTotal() != 448 {
		t.Fatalf("index partition = %d entries after the tick, want 448", c.IndexCapTotal())
	}
	// 64 victims (ids 512..575) went in at capacity 512 and pushed ids
	// 0..63 out; resizing the ghost first would have kept all 576
	if n := ghostLen(c); n != 512 {
		t.Fatalf("ghost holds %d entries, want the 512 of its old capacity", n)
	}
	g := ghostOrder(c)
	if g[0].fp != fp(575) || g[63].fp != fp(512) || g[len(g)-1].fp != fp(64) {
		t.Fatalf("ghost runs %v … %v … %v, want the victims youngest first, then ids 511 down to 64",
			g[0].fp, g[63].fp, g[len(g)-1].fp)
	}
	checkAll(t, c)
}

// A fingerprint re-admitted through the write path leaves the ghost
// before its stream — seen for the first time — re-divides every quota
// and floods the ghost with the other streams' victims.
func TestReadmissionLeavesGhostBeforeStreamsRedivide(t *testing.T) {
	c := streamController(t, true, nil)
	fillIndex(c, 1, 0, 1024) // stream 1 alone: ids 0..511 ghosts (full), 512..1023 cached
	// stream 2 appears, writing ghost id 400: that ghost leaves (511
	// left), stream 1 halves and its 256 victims push out the 255 oldest
	// ghosts, ids 0..254. Had the victims arrived first they would have
	// pushed out id 255 as well.
	c.IndexInsertS(2, fp(400), alloc.PBA(5000))
	if n := ghostLen(c); n != 512 {
		t.Fatalf("ghost holds %d entries, want 512", n)
	}
	if g := ghostOrder(c); g[len(g)-1].fp != fp(255) {
		t.Fatalf("oldest ghost is %v, want id 255 (%v)", g[len(g)-1].fp, fp(255))
	}
	if e, ok := indexPeek(c, fp(400)); !ok || e.PBA != 5000 {
		t.Fatalf("re-admitted entry = %+v, %v", e, ok)
	}
	qs := quotas(c)
	if qs[0].Len != 256 || qs[1].Len != 1 {
		t.Fatalf("streams hold %d and %d entries, want 256 and 1", qs[0].Len, qs[1].Len)
	}
	checkAll(t, c)
}

// A stream with no quota caches nothing, but its write still consumes
// the ghost entry: the fingerprint now names a block the ghost does not
// know.
func TestZeroQuotaStreamConsumesGhostEntry(t *testing.T) {
	c := streamController(t, true, map[uint32]float64{1: 1, 2: 0})
	fillIndex(c, 1, 0, 513) // id 0 is the one ghost
	if ghostLen(c) != 1 {
		t.Fatalf("ghost holds %d entries, want 1", ghostLen(c))
	}
	c.IndexInsertS(2, fp(0), alloc.PBA(9000))
	if ghostLen(c) != 0 {
		t.Fatal("the zero-quota stream's write left the ghost entry behind")
	}
	if _, ok := indexPeek(c, fp(0)); ok {
		t.Fatal("zero-quota stream cached an entry")
	}
	c.IndexLookupS(1, fp(0))
	if c.totalGhostIdxHits != 0 || quotas(c)[0].GhostHits != 0 {
		t.Fatal("consumed ghost entry still counted a ghost hit")
	}
	checkAll(t, c)
}

// A ghost hit is charged to the stream whose quota lost the entry, not
// to the stream that came looking for it.
func TestStreamGhostHitsNameTheHomeStream(t *testing.T) {
	c := streamController(t, true, map[uint32]float64{1: 0.5, 2: 0.5})
	fillIndex(c, 1, 0, 257) // id 0 falls out of stream 1's 256
	c.IndexLookupS(2, fp(0))
	qs := quotas(c)
	if qs[0].GhostHits != 1 || qs[1].GhostHits != 0 {
		t.Fatalf("ghost hits = %d for stream 1, %d for stream 2; want 1, 0", qs[0].GhostHits, qs[1].GhostHits)
	}
	if qs[1].Lookups != 1 || qs[1].Hits != 0 {
		t.Fatalf("stream 2 accounting = %d lookups, %d hits", qs[1].Lookups, qs[1].Hits)
	}
}

// --- the read side's rules, by name ---

// A read-ghost hit consumes the ghost's entry, and only the adaptive
// controller keeps a read ghost at all.
func TestReadGhostHitConsumesEntry(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		c := New(testParams(adaptive)) // 8 of 16 read blocks
		for i := 0; i < 9; i++ {       // block 0 is evicted
			c.ReadInsert(alloc.PBA(i))
		}
		c.ReadHit(0)
		c.ReadHit(0)
		want := int64(0)
		if adaptive {
			want = 1
		}
		if _, g := readOrder(c); c.totalGhostReadHits != want || len(g) != 0 {
			t.Errorf("adaptive %v: %d read-ghost hits, ghost %v; want %d and an empty ghost", adaptive, c.totalGhostReadHits, g, want)
		}
		checkAll(t, c)
	}
}

// A shrinking read cache pushes its victims into the read ghost while the
// ghost still has its old capacity, and only then does the ghost grow.
func TestReadShrinkFillsGhostAtOldCapacity(t *testing.T) {
	c := New(testParams(true)) // 8 read blocks, 8 read ghosts
	for i := 0; i < 16; i++ {  // blocks 0..7 ghosted, 8..15 cached
		c.ReadInsert(alloc.PBA(i))
	}
	fillIndex(c, 0, 0, 1024)
	for i := 0; i < 10; i++ { // ghost index hits: the index grows
		c.IndexLookup(fp(uint64(i)))
	}
	if rep := c.Tick(sim.Time(sim.Second)); !rep.Changed || c.ReadCacheCap() != 7 {
		t.Fatalf("read cache holds %d blocks after the tick, want 7", c.ReadCacheCap())
	}
	// victim 8 went in at capacity 8 and pushed block 0 out; resizing the
	// ghost to 9 first would have kept it
	read, ghost := readOrder(c)
	if want := []alloc.PBA{8, 7, 6, 5, 4, 3, 2, 1}; len(read) != 7 || !reflect.DeepEqual(ghost, want) {
		t.Fatalf("read %v, ghost %v; want 7 blocks and ghost %v", read, ghost, want)
	}
	checkAll(t, c)
}

// A growing read cache re-admits the most recent ghosts first, each in
// front of the one before it, so the oldest re-admitted ends up the most
// recent; ReadSwapIns lists them in the order they were chosen.
func TestReadSwapInsOldestEndsMostRecent(t *testing.T) {
	p := testParams(true)
	p.TotalBytes = 1 << 20 // 128 read blocks, 128 read ghosts
	c := New(p)
	for i := 0; i < 256; i++ { // blocks 0..127 ghosted, 128..255 cached
		c.ReadInsert(alloc.PBA(i))
	}
	c.ghostReadHits = 1 // the Access Monitor's verdict, set by hand
	rep := c.Tick(sim.Time(sim.Second))
	if !rep.Changed || c.ReadCacheCap() != 144 || len(rep.ReadSwapIns) != 16 {
		t.Fatalf("read cache %d blocks, %d swap-ins; want 144 and 16", c.ReadCacheCap(), len(rep.ReadSwapIns))
	}
	read, _ := readOrder(c)
	for k, pba := range rep.ReadSwapIns {
		if want := alloc.PBA(127 - k); pba != want || read[15-k] != want {
			t.Fatalf("swap-in %d is block %d at read position %d (%d); want block %d", k, pba, 15-k, read[15-k], want)
		}
	}
	if read[16] != 255 {
		t.Fatalf("the re-admitted blocks are followed by %d, want 255", read[16])
	}
	checkAll(t, c)
}

// A block can be cached and ghosted at once — an insert with no probe
// leaves the ghost alone — and its later eviction promotes the ghost's
// one entry rather than adding a second.
func TestReadBlockCachedAndGhosted(t *testing.T) {
	c := New(testParams(true)) // 8 read blocks, 8 read ghosts
	for i := 0; i < 9; i++ {   // block 0 ghosted
		c.ReadInsert(alloc.PBA(i))
	}
	c.ReadInsert(0) // cached too; block 1 ghosted
	if read, ghost := readOrder(c); read[0] != 0 || !reflect.DeepEqual(ghost, []alloc.PBA{1, 0}) {
		t.Fatalf("read %v, ghost %v; want block 0 on both", read, ghost)
	}
	if !c.ReadHit(0) || c.totalGhostReadHits != 0 {
		t.Fatal("a cached block's probe must hit the cache, not the ghost")
	}
	c.ReadHit(1)              // a ghost hit: room in the ghost
	for i := 9; i < 16; i++ { // evicts 2..8
		c.ReadInsert(alloc.PBA(i))
	}
	c.ReadHit(2)     // another: the ghost holds 7
	c.ReadInsert(16) // evicts block 0
	if _, ghost := readOrder(c); !reflect.DeepEqual(ghost, []alloc.PBA{0, 8, 7, 6, 5, 4, 3}) {
		t.Fatalf("ghost %v, want block 0 promoted once in front of 8..3", ghost)
	}
	checkAll(t, c)
}

// CheckInvariants must notice a directory whose parts disagree.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	// move takes slot i out of its bucket and chains it into bucket b of
	// family f
	move := func(d *directory, i int32, f *buckets, b uint64) {
		*d.link(i) = d.at(i).chain
		d.at(i).chain, f.heads[b] = f.heads[b], i
	}
	for name, corrupt := range map[string]func(*Controller){
		"unhashed slot": func(c *Controller) {
			i := c.dir.find(fp(1))
			*c.dir.link(i) = c.dir.at(i).chain
		},
		"block bucket emptied": func(c *Controller) { *c.dir.byPBA.head(blockWord(1)) = 0 },
		"wrong bucket": func(c *Controller) {
			d := &c.dir
			i := d.find(fp(1))
			move(d, i, &d.byFP, (d.at(i).fp.Word()>>d.byFP.shift+1)%uint64(len(d.byFP.heads)))
		},
		"self-loop":       func(c *Controller) { i := c.dir.find(fp(1)); c.dir.at(i).chain = i },
		"list count":      func(c *Controller) { c.dir.lists[firstIndexList].n++ },
		"list membership": func(c *Controller) { c.dir.at(c.dir.find(fp(100))).list = ghostList },
		"block chain crossed": func(c *Controller) {
			// a block whose bucket is not block 11's
			s, blk := c.dir.at(c.dir.holding(readList, 11)), alloc.PBA(100)
			for blockWord(blk)>>c.dir.byPBA.shift == blockWord(11)>>c.dir.byPBA.shift {
				blk++
			}
			s.pba = blk
		},
		"remote block":  func(c *Controller) { c.dir.at(c.dir.find(fp(1))).pba = alloc.MakeRemote(1, 1) },
		"over capacity": func(c *Controller) { c.dir.lists[firstIndexList].cap = 2 },
		"leaked slot":   func(c *Controller) { c.dir.free = 0 },
		"read slot on the wrong list": func(c *Controller) {
			c.dir.at(c.dir.holding(readList, 11)).list = readGhostList
		},
		"read ghost over capacity": func(c *Controller) { c.dir.lists[readGhostList].cap = 1 },
		"unchained read slot": func(c *Controller) {
			i := c.dir.holding(readList, 11)
			*c.dir.link(i) = c.dir.at(i).chain
		},
		"index slot in a block bucket": func(c *Controller) {
			d := &c.dir
			i := d.find(fp(100))
			move(d, i, &d.byPBA, blockWord(d.at(i).pba)>>d.byPBA.shift)
			d.byFP.keys--
			d.byPBA.keys++
		},
		"read slot in a fingerprint bucket": func(c *Controller) {
			d := &c.dir
			i := d.holding(readList, 11)
			move(d, i, &d.byFP, 0)
			d.byPBA.keys--
			d.byFP.keys++
		},
	} {
		c := New(testParams(true))
		fillIndex(c, 0, 0, 600)
		for i := 0; i < 12; i++ { // blocks 11..4 cached, 3..0 ghosted
			c.ReadInsert(alloc.PBA(i))
		}
		// something on the free list, from both families: block 3 freed
		// from the read ghost, and fingerprint 3's ghost entry with it
		c.PurgePBA(3)
		c.ForgetIndex(fp(3), 3)
		checkAll(t, c)
		corrupt(c)
		if c.CheckInvariants() == nil {
			t.Errorf("%s: not detected", name)
		}
	}
}

// The slab never moves: a slot keeps its address however far the
// directory grows after it, and the slab is paid for a whole page at a
// time.
func TestSlabSlotsNeverMove(t *testing.T) {
	c := New(benchParams()) // 16 384 index entries: nothing below is evicted
	d := &c.dir
	pageBytes := int(unsafe.Sizeof([slabPageSlots]slot{}))
	c.IndexInsert(fp(0), 1)
	first := d.at(d.find(fp(0)))
	for i := 1; i <= 10000; i++ {
		c.IndexInsert(fp(uint64(i)), alloc.PBA(i+1))
		if want := (int(d.n) + slabPageSlots - 1) / slabPageSlots; len(d.pages) != want {
			t.Fatalf("after %d inserts %d slots sit on %d pages, want %d", i, d.n, len(d.pages), want)
		}
		if slab := d.bytes() - 4*(len(d.byFP.heads)+len(d.byPBA.heads)); slab != len(d.pages)*pageBytes {
			t.Fatalf("after %d inserts the slab counts %d B, %d pages of %d B", i, slab, len(d.pages), pageBytes)
		}
	}
	if len(d.pages) < 10 {
		t.Fatalf("10 000 inserts filled %d pages", len(d.pages))
	}
	if s := d.at(d.find(fp(0))); s != first || s.fp != fp(0) || s.pba != 1 {
		t.Fatalf("the first slot moved or changed: %p → %p, %+v", first, s, *s)
	}
	checkAll(t, c)
}

// The directory's keys live only in the slab: a slot is 40 bytes with
// its one chain link, and the buckets are one int32 each, each array
// sized by its own keys — at most four buckets per key held, and never
// grown by the other family's.
func TestDirectoryFootprint(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n != 40 {
		t.Fatalf("a slot is %d B, want 40", n)
	}
	c := New(benchParams()) // 16 384 index entries, 256 read blocks
	d := &c.dir
	pageBytes := int(unsafe.Sizeof([slabPageSlots]slot{}))
	for i := 0; i < 10000; i++ {
		c.IndexInsert(fp(uint64(i)), alloc.PBA(i))
	}
	if got, want := d.bytes(), len(d.pages)*pageBytes+4*(len(d.byFP.heads)+minBuckets); got != want || len(d.byPBA.heads) != minBuckets {
		t.Fatalf("bytes() = %d, want %d: %d pages, %d fingerprint buckets and %d block buckets of 4 B",
			got, want, len(d.pages), len(d.byFP.heads), len(d.byPBA.heads))
	}
	if d.byFP.keys != 10000 || len(d.byFP.heads) > 4*d.byFP.keys {
		t.Fatalf("%d buckets for %d fingerprints, want at most four each", len(d.byFP.heads), d.byFP.keys)
	}
	fpBuckets := len(d.byFP.heads)
	for i := 0; i < 200; i++ {
		c.ReadInsert(alloc.PBA(i))
	}
	if d.byPBA.keys != 200 || len(d.byPBA.heads) > 4*d.byPBA.keys || len(d.byFP.heads) != fpBuckets {
		t.Fatalf("%d block buckets for %d blocks and %d fingerprint buckets (were %d): want at most four a block, and no fingerprint bucket added",
			len(d.byPBA.heads), d.byPBA.keys, len(d.byFP.heads), fpBuckets)
	}
	checkAll(t, c)
}

// --- microbenchmarks ---

func failOnAllocs(b *testing.B, what string, f func()) {
	b.Helper()
	b.StopTimer()
	if avg := testing.AllocsPerRun(100, f); avg != 0 {
		b.Fatalf("%s: %.2f allocs/op, want 0", what, avg)
	}
}

func benchFPs(n int) []chunk.Fingerprint {
	fps := make([]chunk.Fingerprint, n)
	for i := range fps {
		fps[i] = fp(uint64(i))
	}
	return fps
}

// benchParams is a 2 MB budget: 32 768 index entries at most, half of
// them cached at the initial split.
func benchParams() Params {
	p := DefaultParams(2 << 20)
	p.Adaptive = true
	return p
}

// BenchmarkIndexMissInsertEvict is the write path of a chunk the index
// does not know, on a full adaptive controller: a lookup that misses,
// an insert, the eviction of the oldest entry into the ghost and of the
// oldest ghost out of the directory.
func BenchmarkIndexMissInsertEvict(b *testing.B) {
	c := New(benchParams())
	fps := benchFPs(1 << 17) // four times what index and ghost hold
	step := func(i int) {
		f := fps[i&(len(fps)-1)]
		if _, ok := c.IndexLookupS(0, f); !ok {
			c.IndexInsertS(0, f, alloc.PBA(i))
		}
	}
	for i := 0; i < len(fps); i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
	n := b.N
	failOnAllocs(b, "miss + insert + evict", func() { step(n); n++ })
}

// BenchmarkReadPath is the read side as the engine drives it, on a full
// adaptive controller whose index binds the same blocks: a probe per
// block — a hit, a read-ghost hit or a miss — an insert per miss, which
// evicts into the read ghost and the ghost's oldest out, and now and
// then a freed block purged from the read side and forgotten by the
// index under what it held.
func BenchmarkReadPath(b *testing.B) {
	c := New(benchParams()) // 256 read blocks, 256 read ghosts
	fillIndex(c, 0, 0, 1<<15)
	step := func(i int) {
		// every other probe is for a hot 128 blocks: about half hit,
		// nearly all the rest hit the ghost
		blk := alloc.PBA(uint32(i*0x9e3779b1) % 640)
		if i&1 == 0 {
			blk %= 128
		}
		if !c.ReadHit(blk) {
			c.ReadInsert(blk)
		}
		if i%16 == 0 {
			c.PurgePBA(blk + 1)
			c.ForgetIndex(fp(uint64(blk+1)), blk+1)
		}
	}
	for i := 0; i < 1<<12; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
	n := b.N
	failOnAllocs(b, "read hit + insert + free", func() { step(n); n++ })
}

// BenchmarkLookupRequest is a 16-chunk write request's index probes, as
// selectDedupe.Lookup issues them, against a full adaptive directory of
// half a million slots (28 MB of slab, far past L2): the batch warmed,
// then each chunk looked up; half the chunks hit. Unwarmed is the same
// probes without the warm, the path of a one-chunk request.
func BenchmarkLookupRequest(b *testing.B) {
	p := DefaultParams(32 << 20) // 262 144 index entries and as many ghosts
	p.Adaptive = true
	c := New(p)
	const held = 1 << 19
	fillIndex(c, 0, 0, held) // ids below held/2 ghosted, the rest cached
	reqs := make([]chunk.Fingerprint, 1<<16)
	for k := range reqs {
		reqs[k] = fp(uint64(held/2 + int(uint32(k)*0x9e3779b1)%held))
	}
	var sink alloc.PBA
	for _, warm := range []bool{true, false} {
		name := "warmed"
		if !warm {
			name = "unwarmed"
		}
		b.Run(name, func(b *testing.B) {
			step := func(i int) {
				req := reqs[i*16&(len(reqs)-1):][:16]
				if warm {
					c.Warm(req)
				}
				for k := range req {
					e, _ := c.IndexLookupS(0, req[k])
					sink += e.PBA
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i)
			}
			n := b.N
			failOnAllocs(b, "request lookup", func() { step(n); n++ })
		})
	}
	_ = sink
}

// BenchmarkRepartition moves the partition one step toward the index
// and one step back, alternately, on a controller whose index and ghost
// are full: 2 048 entries swapped in, then 2 048 pushed out.
func BenchmarkRepartition(b *testing.B) {
	c := New(benchParams())
	fillIndex(c, 0, 0, 1<<16)
	now := sim.Time(0)
	step := func(i int) {
		// the Access Monitor's verdict for the interval, set by hand
		c.ghostIdxHits, c.ghostReadHits = int64(1-i&1), int64(i&1)
		now = now.Add(c.p.Interval)
		if !c.Tick(now).Changed {
			b.Fatal("tick did not repartition")
		}
	}
	step(0)
	step(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
	n := b.N
	failOnAllocs(b, "repartition", func() { step(n); n++ })
	b.ReportMetric(float64(c.swapInsIdx)/float64(c.repartitions), "swapins/op")
}

// BenchmarkReapportion re-divides a full index between three streams
// the way locality.Apportion swings them — each in turn the
// high-locality stream, the others at the floor — with the partition
// moving under them as in BenchmarkRepartition, so that the quota a
// stream wins back is refilled from the ghost.
func BenchmarkReapportion(b *testing.B) {
	c := New(benchParams())
	c.EnableStreams(nil)
	for i := 0; i < 1<<16; i++ {
		c.IndexInsertS(uint32(1+i%3), fp(uint64(i)), alloc.PBA(i))
	}
	var swings [3]map[uint32]float64
	for k := range swings {
		swings[k] = map[uint32]float64{1: 0.1, 2: 0.1, 3: 0.1}
		swings[k][uint32(k+1)] = 0.8
	}
	now := sim.Time(0)
	step := func(i int) {
		c.SetStreamShares(swings[i%3])
		c.ghostIdxHits, c.ghostReadHits = int64(1-i&1), int64(i&1)
		now = now.Add(c.p.Interval)
		c.Tick(now)
	}
	for i := 0; i < 12; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
	n := b.N
	failOnAllocs(b, "re-apportion", func() { step(n); n++ })
	b.ReportMetric(float64(c.swapInsIdx)/float64(c.repartitions), "swapins/op")
}
