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
// life are dropped on receipt), its advertisements and table entries
// are swept, and every live shard eagerly drops its hints on (the
// tier's part) and cached remote reads of the dead shard's canonicals,
// so no new cross-shard references toward it can form during the outage.
//
// The crash lands at a batch boundary: all shard locks are taken
// (ascending, the canonical order), so no serving round, agent tick,
// or recall snapshot interleaves with the epoch bump. Requests already
// queued on the shard fail-reply as the worker drains them.
func (s *Server) CrashShard(i int) error {
	if i < 0 || i >= len(s.shards) {
		return fmt.Errorf("server: CrashShard(%d): shard out of range [0, %d)", i, len(s.shards))
	}
	s.closeMu.RLock()
	closed := s.closed
	s.closeMu.RUnlock()
	if closed {
		return errors.New("server: CrashShard after Close")
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	if s.shards[i].down {
		return fmt.Errorf("server: CrashShard(%d): shard already down", i)
	}
	s.shards[i].down = true
	s.downMask.Store(s.downMask.Load() | uint64(1)<<uint(i))
	if s.tier == nil {
		return nil
	}
	// A surviving hint naming a dead canonical is a time bomb: the
	// rejoin re-audit frees canonicals whose references vanished, so a
	// peer deduping against a stale hint after that could share a
	// reused block. The tier drops them from every survivor's hint
	// table now, while every shard is quiescent; the read caches drop
	// their remote-keyed copies of the same blocks.
	s.tier.CrashShard(i)
	for j, sh := range s.shards {
		if j == i {
			continue
		}
		h, ok := sh.eng.(baseHolder)
		if !ok {
			continue
		}
		h.Base().IC.PurgeWhere(func(pba alloc.PBA) bool {
			if !alloc.IsRemote(pba) {
				return false
			}
			owner, _ := alloc.RemoteParts(pba)
			return owner == i
		})
	}
	return nil
}

// RecoverShard rejoins a shard crashed by CrashShard, rebuilding its
// state the same way whole-node recovery does — NVRAM journal replay
// into a fresh Map table, then allocator/store reconstruction with
// cross-shard canonicals re-pinned — but scoped to the one shard. The
// pin re-audit recomputes shard i's inward pins from the live shards'
// current (journal-backed) remote references, which also heals any
// RefDown that was dropped toward the dead inbox during the outage.
// Outward references (shard i's mappings onto peers' canonicals) are
// durable in its journal and their ref pins on the owners never moved,
// so they need no repair. Returns the journal records replayed;
// idempotent — recovering a live shard is a no-op.
func (s *Server) RecoverShard(i int) (int, error) {
	if i < 0 || i >= len(s.shards) {
		return 0, fmt.Errorf("server: RecoverShard(%d): shard out of range [0, %d)", i, len(s.shards))
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	sh := s.shards[i]
	if !sh.down {
		return 0, nil
	}
	var replayed int
	if s.tier != nil {
		h, ok := sh.eng.(baseHolder)
		if !ok {
			return 0, fmt.Errorf("server: shard %d engine %s does not support crash recovery", i, sh.eng.Name())
		}
		b := h.Base()
		n, err := b.RecoverLoad()
		if err != nil {
			return 0, fmt.Errorf("server: shard %d: %w", i, err)
		}
		replayed = n
		var pinned []alloc.PBA
		for j, osh := range s.shards {
			if j == i {
				continue
			}
			oh, ok := osh.eng.(baseHolder)
			if !ok {
				continue
			}
			seen := make(map[alloc.PBA]bool)
			oh.Base().Map.Each(func(_ uint64, pba alloc.PBA, _ bool) bool {
				if !alloc.IsRemote(pba) || seen[pba] {
					return true
				}
				seen[pba] = true
				if owner, canon := alloc.RemoteParts(pba); owner == i {
					pinned = append(pinned, canon)
				}
				return true
			})
		}
		b.RecoverFinish(pinned)
		s.tier.RecoverShard(i)
	} else {
		r, ok := sh.eng.(interface{ CrashAndRecover() (int, error) })
		if !ok {
			return 0, fmt.Errorf("server: shard %d engine %s does not support crash recovery", i, sh.eng.Name())
		}
		n, err := r.CrashAndRecover()
		if err != nil {
			return 0, fmt.Errorf("server: shard %d: %w", i, err)
		}
		replayed = n
	}
	// fresh shard, fresh luck: the breaker state belonged to the dead
	// incarnation
	sh.down = false
	sh.brOpen = false
	sh.brUntil = 0
	sh.consecFails = 0
	s.downMask.Store(s.downMask.Load() &^ (uint64(1) << uint(i)))
	return replayed, nil
}
