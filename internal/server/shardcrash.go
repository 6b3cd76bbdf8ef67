package server

import (
	"errors"
	"fmt"

	"github.com/pod-dedup/pod/internal/alloc"
)

// CrashShard crashes shard i as an isolated failure domain while the
// rest of the server (and the global fingerprint tier, when enabled)
// keeps serving: the shard's DRAM state is conceptually lost, its
// queue fail-replies everything with typed KindShardDown (transient)
// errors until RecoverShard, and the tier fences the dead shard out —
// its epoch is bumped (in-flight messages and ads from its previous
// life are dropped on receipt), its table entries and the hints on its
// canonicals are swept, and every live shard drops its cached remote
// reads of them, so no new cross-shard references toward it can form
// during the outage.
//
// The crash lands at a batch boundary: all shard locks are taken
// (ascending, the canonical order), so no serving round, agent tick,
// or advertisement interleaves with the epoch bump, and everything the
// shard sent is queued ahead of the tier's crash notices. Requests already
// queued on the shard fail-reply as the worker drains them.
func (s *Server) CrashShard(i int) error {
	if i < 0 || i >= len(s.shards) {
		return fmt.Errorf("server: CrashShard(%d): shard out of range [0, %d)", i, len(s.shards))
	}
	if s.isClosed() {
		return errors.New("server: CrashShard after Close")
	}
	defer s.lockAll()()
	if s.shards[i].down.Load() {
		return fmt.Errorf("server: CrashShard(%d): shard already down", i)
	}
	s.shards[i].down.Store(true)
	if s.tier == nil {
		return nil
	}
	// A surviving hint naming a dead canonical is a time bomb: the
	// rejoin re-audit frees canonicals whose references vanished, so a
	// peer deduping against a stale hint after that could share a
	// reused block. The tier drops them now, while every shard is
	// quiescent; the read caches drop their remote-keyed copies of the
	// same blocks (the dead shard's own cache holds none).
	s.tier.CrashShard(i)
	for _, sh := range s.shards {
		sh.base.IC.PurgeWhere(func(pba alloc.PBA) bool {
			if !alloc.IsRemote(pba) {
				return false
			}
			owner, _ := alloc.RemoteParts(pba)
			return owner == i
		})
	}
	return nil
}

// RecoverShard rejoins a shard crashed by CrashShard: recover scoped to
// the one shard, its inward pins recomputed from the live shards'
// current (journal-backed) remote references. Outward references (shard
// i's mappings onto peers' canonicals) are durable in its journal and
// their ref pins on the owners never moved, so they need no repair.
// Returns the journal records replayed; idempotent — recovering a live
// shard is a no-op.
func (s *Server) RecoverShard(i int) (int, error) {
	if i < 0 || i >= len(s.shards) {
		return 0, fmt.Errorf("server: RecoverShard(%d): shard out of range [0, %d)", i, len(s.shards))
	}
	defer s.lockAll()()
	sh := s.shards[i]
	if !sh.down.Load() {
		return 0, nil
	}
	replayed, err := s.recover(s.shards[i : i+1])
	if err != nil {
		return 0, err
	}
	if s.tier != nil {
		s.tier.RecoverShard(i)
	}
	// fresh shard, fresh luck: the breaker state belonged to the dead
	// incarnation
	sh.down.Store(false)
	sh.brOpen = false
	sh.brUntil = 0
	sh.consecFails = 0
	return replayed, nil
}
