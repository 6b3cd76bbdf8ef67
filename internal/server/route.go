package server

// Router maps logical block addresses onto shards. The LBA space is
// cut into fixed-size granules of GranChunks contiguous chunks;
// granules are dealt round-robin across the shards. The function is a
// pure, stable partition of the LBA space: every address belongs to
// exactly one shard, the assignment never changes for the lifetime of
// a layout (it depends only on shards and granule size), and two
// routers with the same parameters agree on every address.
//
// The granule is deliberately much larger than any single request so
// that one request's chunk run almost always lives inside one granule
// and is served whole by one engine (an engine's Map table pages are
// one default granule wide, so a shard pays only for the granules it is
// dealt). A request that does straddle a boundary is also served whole,
// by the shard owning its first chunk, and that is a correctness gap,
// not a routing policy: Server.ReadContent routes each LBA on its own,
// so a straddling write's tail chunks land in a Map table no routed
// read consults. The mixed trace at scale 1 has 3 172 such requests
// among 547 069, 2 672 of them writes; the chaos oracle excludes their
// tail chunks as "spill" rather than checking them.
type Router struct {
	shards int
	gran   uint64
}

// DefaultGranChunks is the default routing granule: 1024 chunks
// (4 MiB), an order of magnitude above the largest request in the
// synthetic traces (64 chunks) while fine enough that even a
// sub-sampled trace's address-space prefix spreads across many
// granules.
const DefaultGranChunks = 1024

// NewRouter builds a router over the given shard count and granule
// size in chunks (0 selects DefaultGranChunks). It panics on a
// non-positive shard count.
func NewRouter(shards int, granChunks uint64) Router {
	if shards <= 0 {
		panic("server: router needs at least one shard")
	}
	if granChunks == 0 {
		granChunks = DefaultGranChunks
	}
	return Router{shards: shards, gran: granChunks}
}

// Shard returns the shard owning lba, always in [0, shards).
func (r Router) Shard(lba uint64) int {
	return int((lba / r.gran) % uint64(r.shards))
}
