package server

import (
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/bgdedup"
	"github.com/pod-dedup/pod/internal/globalfp"
	"github.com/pod-dedup/pod/internal/metrics"
	"github.com/pod-dedup/pod/internal/sim"
)

// initGlobalFP builds the tier and wires one agent per shard. Called by
// New after every shard engine exists, so the bgdedup scanner each agent
// wraps is already attached — or missing, which is refused here.
func (s *Server) initGlobalFP() error {
	tier, err := globalfp.NewTier(s.cfg.Shards, globalfp.Params{})
	if err != nil {
		return err
	}
	s.tier = tier
	s.agents = make([]*globalfp.Agent, s.cfg.Shards)
	for i, sh := range s.shards {
		// The tier complements the selective inline schemes, the only
		// ones whose write path advertises to it; on any other scheme it
		// would attach and sit idle.
		name := sh.eng.Name()
		if name != "Select-Dedupe" && name != "POD" {
			return fmt.Errorf("server: shard %d engine %s: the global fingerprint tier requires Select-Dedupe or POD engines", i, name)
		}
		if sh.base == nil {
			return fmt.Errorf("server: shard %d engine %s does not expose its substrate (no Base()); the global fingerprint tier cannot attach", i, name)
		}
		if _, ok := sh.base.Background.(*bgdedup.Scanner); !ok {
			return fmt.Errorf("server: shard %d engine %s has no bgdedup scanner attached; the global fingerprint tier folds through it", i, name)
		}
		s.agents[i] = globalfp.New(sh.base, tier, i)
		// per-shard fencing epoch, exported beside the shard's other
		// tier gauges (atomic read; safe under the registry rule)
		sh.eng.Metrics().GaugeFunc(
			metrics.Labeled("globalfp_epoch", "shard", strconv.Itoa(i)),
			func() int64 { return int64(tier.Epoch(i)) })
	}

	// Tier-level gauges live in the server registry: the tier is shared
	// state, not any one shard's.
	tier.Instrument(s.reg)
	return nil
}

// settleGlobalFP runs once, from Close, after the workers have drained:
// every shard republishes its distinct live blocks (retrying fold
// candidates that injected faults aborted or hint overwrites
// invalidated), and the shards exchange
// grant/fold/recall traffic in rounds until a full round moves nothing
// — the quiescent point the cross-shard audit assumes.
//
// Both phases run every live shard at once, each agent under its own
// shard lock, exactly as the agents' ticks interleave while serving
// (shard → partition → inbox lock order, never two shard locks). A
// round ends at a barrier, so the termination test reads a still
// system: no agent is mid-drain and every message sent is in its
// receiver's inbox, so a round that moved nothing with every inbox
// empty leaves no work anywhere.
func (s *Server) settleGlobalFP() {
	s.eachLiveAgent(func(a *globalfp.Agent, _ sim.Time) int {
		a.ReAdvertise()
		return 0
	})
	// Each round's work strictly shrinks the remaining protocol state
	// (folds consume duplicates, recalls consume paroles); the cap is a
	// backstop against an invariant bug turning Close into a hang. A
	// shard left down at Close is skipped — its inbox stays empty (the
	// tier drops sends toward it), and the crash notice its peers drain
	// implicitly grants its acks, so settlement still converges.
	for round := 0; round < 256; round++ {
		moved := s.eachLiveAgent((*globalfp.Agent).DrainAll)
		if moved == 0 && s.tier.Backlog() == 0 {
			return
		}
	}
}

// eachLiveAgent runs fn on every live shard's agent concurrently, each
// under its shard's lock with the shard's last virtual time, waits for
// all of them, and returns the sum of what they report.
func (s *Server) eachLiveAgent(fn func(a *globalfp.Agent, now sim.Time) int) int {
	var wg sync.WaitGroup
	var total atomic.Int64
	for i, sh := range s.shards {
		wg.Add(1)
		go func(a *globalfp.Agent, sh *shard) {
			defer wg.Done()
			sh.mu.Lock()
			defer sh.mu.Unlock()
			if !sh.down.Load() {
				total.Add(int64(fn(a, sh.lastStart)))
			}
		}(s.agents[i], sh)
	}
	wg.Wait()
	return int(total.Load())
}

// CheckConsistency audits the whole server: each shard's engine-level
// invariants, then — with the tier enabled — the tier's hint table
// (Tier.CheckHints: every binding names a live, hinted-pinned block
// holding its content on a live shard) and the cross-shard reference
// invariant: every remote mapping's canonical must be live on its
// owner, and the owner's pin count must equal the number of
// referencing shards plus at most one (the tier's hinted pin). Call it
// after Close; mid-serve the protocol is legitimately in flight.
//
// An intentionally-down shard (CrashShard without RecoverShard) makes
// the audit degraded, not broken: the dead shard's engine invariants
// are skipped (it is conceptually powered off), its journal-backed
// remote references still count (they survive the crash and will be
// recovered verbatim), and pin-slack checks on its canonicals are
// skipped — RefDowns toward its dead inbox are legitimately lost
// mid-outage and the rejoin re-audit rebuilds those pins exactly.
// Liveness of its canonicals is still enforced.
func (s *Server) CheckConsistency() error {
	if !s.isClosed() {
		return errors.New("server: CheckConsistency before Close")
	}
	defer s.lockAll()()
	for i, sh := range s.shards {
		if sh.down.Load() || sh.base == nil {
			continue
		}
		if err := sh.base.CheckConsistency(); err != nil {
			return fmt.Errorf("server: shard %d: %w", i, err)
		}
	}
	if s.tier != nil {
		if err := s.tier.CheckHints(); err != nil {
			return fmt.Errorf("server: %w", err)
		}
	}
	refs := make(map[alloc.PBA]uint64) // canonical (encoded) → referencing shards
	s.eachRemoteRef(func(from int, enc alloc.PBA) { refs[enc] |= uint64(1) << uint(from) })
	for enc, mask := range refs {
		owner, canon := alloc.RemoteParts(enc)
		osh := s.shards[owner]
		if _, live := osh.base.Store.Read(canon); !live {
			return fmt.Errorf("server: shards %b reference dead canonical %d on shard %d", mask, canon, owner)
		}
		if osh.down.Load() {
			continue // degraded: pin state frozen until the rejoin re-audit
		}
		pins := osh.base.Map.PinCount(canon)
		nrefs := bits.OnesCount64(mask)
		if slack := pins - nrefs; slack < 0 || slack > 1 {
			return fmt.Errorf("server: canonical %d on shard %d holds %d pins for %d referencing shards (want refs or refs+1)", canon, owner, pins, nrefs)
		}
	}
	return nil
}
