package bgdedup

import (
	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/sim"
)

// Params tunes the background deduplication scanner; zero values select
// the defaults.
type Params struct {
	// BlocksPerSec budgets scan throughput: each step covers
	// stepInterval × BlocksPerSec blocks of the data region
	// (default 16384 blocks/s ≈ 64 MiB/s of 4 KiB blocks).
	BlocksPerSec int64
}

// stepInterval is the minimum virtual time between scan steps, and a
// step runs only while the array's queued work is at most maxBacklog:
// none, so the scanner runs only in fully idle windows.
const (
	stepInterval = 500 * sim.Millisecond
	maxBacklog   = 0
)

func (p Params) withDefaults() Params {
	if p.BlocksPerSec == 0 {
		p.BlocksPerSec = 16384
	}
	return p
}

// Scanner is the idle-aware out-of-line deduplication scanner: a
// cursor sweep over the engine's data region that fingerprints live
// blocks and rewires all referrers of a duplicate copy to one
// canonical block, freeing the rest. It runs in virtual time from the
// engine's per-request Tick, pausing whenever foreground load is
// present, and converges under Flush at end of run.
type Scanner struct {
	b    *engine.Base
	core *Core
	p    Params

	interval, maxBacklog sim.Duration // the constants; tests pace faster

	cursor   uint64      // next block of the sweep
	nextStep sim.Time    // earliest virtual time of the next step
	live     []alloc.PBA // liveIn's result, reused by every segment

	steps          int64 // scan steps executed
	wraps          int64 // complete sweeps of the data region
	scanIOs        int64 // background read I/Os issued
	pausedBusy     int64 // steps deferred on disk backlog
	skippedExtents int64 // extents skipped on read faults
}

// New attaches a scanner to the engine substrate: the Map table's
// reverse index is enabled (crash recovery carries it onto the recovered
// table), the scanner joins the engine's
// Tick/Flush/Recover background path, and its progress gauges join the
// engine registry. The substrate must not already run a background task
// (Post-Process's scan queue is one): the scanner would displace it.
func New(b *engine.Base, p Params) *Scanner {
	if b.Background != nil {
		panic("bgdedup: the engine already runs a background task")
	}
	s := &Scanner{b: b, core: NewCore(b), p: p.withDefaults(), interval: stepInterval, maxBacklog: maxBacklog}
	s.nextStep = sim.Time(s.interval)
	b.Background = s
	b.Map.EnableReverseIndex()

	// read through b.Map: crash recovery replaces the table
	b.Reg.GaugeFunc("maptable_reverse_index_bytes", func() int64 { return b.Map.ReverseIndexBytes() })
	b.Reg.GaugeFunc("bgdedup_steps", func() int64 { return s.steps })
	b.Reg.GaugeFunc("bgdedup_wraps", func() int64 { return s.wraps })
	b.Reg.GaugeFunc("bgdedup_cursor_blocks", func() int64 { return int64(s.cursor) })
	b.Reg.GaugeFunc("bgdedup_scan_ios", func() int64 { return s.scanIOs })
	b.Reg.GaugeFunc("bgdedup_scanned_blocks", func() int64 { return s.core.scanned })
	b.Reg.GaugeFunc("bgdedup_duplicate_blocks", func() int64 { return s.core.dupBlocks })
	b.Reg.GaugeFunc("bgdedup_remapped_lbas", func() int64 { return s.core.remapped })
	b.Reg.GaugeFunc("bgdedup_reclaimed_blocks", func() int64 { return s.core.reclaimed })
	b.Reg.GaugeFunc("bgdedup_seq_swaps", func() int64 { return s.core.seqSwaps })
	b.Reg.GaugeFunc("bgdedup_paused_busy", func() int64 { return s.pausedBusy })
	b.Reg.GaugeFunc("bgdedup_skipped_extents", func() int64 { return s.skippedExtents })
	return s
}

// Attach wires a scanner onto any engine that exposes its substrate
// through Base() — an engine.Pipeline, directly or behind a decorator
// that forwards it. ok is false otherwise, and for an engine that
// already runs a background task of its own (Post-Process). The scanner
// complements the selective inline schemes (Select-Dedupe, POD); on a
// scheme that leaves nothing behind, or keeps no Map table, it finds
// nothing to merge.
func Attach(e engine.Engine, p Params) (*Scanner, bool) {
	h, ok := e.(interface{ Base() *engine.Base })
	if !ok || h.Base().Background != nil {
		return nil, false
	}
	return New(h.Base(), p), true
}

// Core exposes the scanner's merge machinery; the global fingerprint
// tier's shard agent drives FoldRemote through it, so cross-shard
// remap candidates share the cursor sweep's revalidation, counters,
// and fingerprint table.
func (s *Scanner) Core() *Core { return s.core }

// Tick implements engine.BackgroundTask: it offers the scanner one
// chance to run at the given virtual time. A step runs only when the
// step interval elapsed and the disk queues are drained down to
// maxBacklog — otherwise the step is deferred and the pause counted.
func (s *Scanner) Tick(now sim.Time) {
	if now < s.nextStep {
		return
	}
	if s.b.Array.Backlog(now) > s.maxBacklog {
		s.pausedBusy++
		s.nextStep = now.Add(s.interval / 4)
		return
	}
	s.nextStep = now.Add(s.interval)
	s.step(now, s.stepBlocks())
}

// stepBlocks is the per-step scan window implied by the budget.
func (s *Scanner) stepBlocks() uint64 {
	n := uint64(float64(s.p.BlocksPerSec) * float64(s.interval) / 1e6)
	if n == 0 {
		n = 1
	}
	return n
}

// step scans the window [cursor, cursor+n) of the data region: live
// blocks are read back in a few large sequential background I/Os,
// fingerprinted, and merged onto canonical copies. A read fault skips
// the extent — its mappings are left exactly as they were — and the
// sweep continues past it.
func (s *Scanner) step(now sim.Time, n uint64) {
	s.steps++
	data := s.b.DataBlocks()
	if s.cursor >= data {
		s.cursor = 0
	}
	end := s.cursor + n
	if end > data {
		end = data
	}

	// One ~1 MiB background read per segment bounds how much queued
	// scan I/O a foreground request arriving mid-step can wait behind.
	const seg = 256
	for off := s.cursor; off < end; {
		cnt := end - off
		if cnt > seg {
			cnt = seg
		}
		live := s.liveIn(off, cnt)
		if len(live) == 0 {
			off += cnt // fully dead segment: no I/O, no work
			continue
		}
		if _, err := s.b.Array.Read(now, off, cnt); err != nil {
			// Typed fault (latent sector error, degraded data loss,
			// transient storm): skip the extent without touching a
			// single mapping. The next wrap retries it — transient
			// faults heal, permanent ones keep being skipped.
			s.skippedExtents++
			off += cnt
			continue
		}
		s.scanIOs++
		s.b.St.BackgroundIOs++
		for _, pba := range live {
			id, ok := s.b.Store.Read(pba)
			if !ok {
				continue // freed by an earlier merge this step
			}
			s.core.ScanBlock(pba, id)
		}
		off += cnt
	}

	s.cursor = end
	if s.cursor >= data {
		s.cursor = 0
		s.wraps++
	}
}

// liveIn lists the live, referenced blocks in [off, off+cnt), in the
// scanner's scratch (valid until the next call). A segment on pages the
// content model never allocated holds none and is not probed: a flush
// sweeps the whole data region, most of which was never written.
func (s *Scanner) liveIn(off, cnt uint64) []alloc.PBA {
	if !s.b.Store.Touched(off, cnt) {
		return nil
	}
	out := s.live[:0]
	for pba := alloc.PBA(off); pba < alloc.PBA(off+cnt); pba++ {
		if _, ok := s.b.Store.Read(pba); !ok {
			continue
		}
		if s.b.Map.RefCount(pba) == 0 {
			continue // pinned-only or in-flight: nothing to rewire
		}
		out = append(out, pba)
	}
	s.live = out
	return out
}

// Flush implements engine.BackgroundTask: one full sweep of the data
// region, ignoring the idle gate and budget pacing. A single wrap
// converges — every live block is either registered as a canonical
// copy or merged into one registered earlier in the same sweep, and
// merging never creates new duplicates.
func (s *Scanner) Flush(now sim.Time) {
	s.cursor = 0
	for {
		before := s.cursor
		s.step(now, s.stepBlocks())
		if s.cursor <= before {
			return // wrapped: the sweep is complete
		}
	}
}

// RecoverReset implements engine.BackgroundTask: after crash recovery
// the volatile fingerprint table is gone and the sweep restarts from
// the base of the region. Every pre-crash remap is durable in the
// journaled Map table, so the repeated sweep is idempotent.
func (s *Scanner) RecoverReset() {
	s.core.Reset()
	s.cursor = 0
}
