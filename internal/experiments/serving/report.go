package serving

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/pod-dedup/pod/internal/metrics"
	"github.com/pod-dedup/pod/internal/perf"
	"github.com/pod-dedup/pod/internal/server"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

// Report is one run that passed its checks: what it measured, and the
// verdict of each armed feature. Latency is virtual-time sojourn (queue
// wait + service); throughput is completed requests per virtual second
// across the serving window.
type Report struct {
	Spec     Spec   // as run: Clients, BGDedup, Tier and CrashShard resolved
	Trace    string // the generated trace's name
	Scheme   string // canonical
	Requests int
	Horizon  sim.Time // arrival-schedule span, where faults and the outage are placed; 0 on a flood

	// Snap is the merged snapshot after Close (before any recovery
	// check), its Metrics carrying the sampled traces.
	Snap server.Snapshot
	// Drive is the harness cost of the client drive plus Close; Extra
	// holds the throughput and latency figures a perf trajectory keeps.
	Drive        perf.Entry
	ReadFailures int64 // closed-loop reads that ended in an error

	Streams []StreamVerdict // Spec.Streams: one per tenant
	Outage  *Outage         // outage scenarios
	Oracle  *OracleVerdict  // Spec.Chaos
}

// StreamVerdict is one tenant's counters merged across shards. Counts
// and quotas sum; the removal percentage is recomputed from the sums (a
// per-shard percentage does not survive summation).
type StreamVerdict struct {
	Stream                 int
	Writes, Removed, Quota int64 // Quota: index entries over every shard's partition
}

// OracleVerdict is the read-back integrity check after the drain and —
// with the scanner attached — again after a whole-node crash recovery.
type OracleVerdict struct {
	Acked, FailedWrites  int64
	Indeterminate        int
	Spilled              int64
	Verified             int
	Replayed, Reverified int // the recovery: journal records, blocks
}

func streamVerdicts(g map[string]int64) (out []StreamVerdict, tagged int64) {
	for s := 0; s < int(trace.MaxStreams); s++ {
		l := strconv.Itoa(s)
		writes, okW := g[metrics.Labeled("stream_writes", "stream", l)]
		quota, okQ := g[metrics.Labeled("icache_stream_quota", "stream", l)]
		if okW || okQ {
			out = append(out, StreamVerdict{s, writes, g[metrics.Labeled("stream_writes_removed", "stream", l)], quota})
			tagged += writes
		}
	}
	return out, tagged
}

// The verdict blocks, one line each. ${gauge} reads the merged snapshot
// (unlabeled substrate gauges sum across shards there), ${shards:gauge}
// sums a shard-labeled one, and the hyphenated names are the run's own
// figures (see WriteText).
var (
	scannerBlock = []string{
		"alloc: used=${alloc_used_blocks} blocks, free extents=${alloc_free_extents}, largest free=${alloc_largest_free}",
		"bgdedup: steps=${bgdedup_steps} wraps=${bgdedup_wraps} scan-ios=${bgdedup_scan_ios} scanned=${bgdedup_scanned_blocks} dups=${bgdedup_duplicate_blocks} remapped=${bgdedup_remapped_lbas} reclaimed=${bgdedup_reclaimed_blocks} seq-swaps=${bgdedup_seq_swaps}",
		"bgdedup: paused busy=${bgdedup_paused_busy}, skipped extents=${bgdedup_skipped_extents}",
	}
	tierBlock = []string{
		"globalfp: ads=${globalfp_ads_queued} | dups detected=${globalfp_dups_detected} hints broadcast=${globalfp_hints_broadcast} installed=${globalfp_hints_installed} | table entries=${globalfp_table_entries} fixes=${globalfp_table_fixes}",
		"globalfp: remaps applied=${globalfp_remaps_applied} rejected=${globalfp_remaps_rejected} reclaimed=${globalfp_reclaimed_blocks} blocks | pins granted=${globalfp_pins_granted} rejects=${globalfp_pin_rejects} | recalls ${globalfp_recalls_sent} sent ${globalfp_recalls_done} done ${globalfp_recalls_dropped} dropped in ${globalfp_recall_rounds} rounds",
		"globalfp: messages handled pinreq=${globalfp_msgs_pinreq} grant=${globalfp_msgs_grant} refup=${globalfp_msgs_refup} refdown=${globalfp_msgs_refdown} barrier=${globalfp_msgs_barrier} ack=${globalfp_msgs_ack} peerdown=${globalfp_msgs_peerdown}",
		"globalfp: hint table ${hint-table-kib} KiB | hits=${globalfp_hint_hits} of ${globalfp_hints_installed} installed (${hint-hit-pct}%) overwrites=${globalfp_hint_overwrites}",
		"globalfp: inboxes ${inbox-kib} KiB held, ${globalfp_inbox_peak_msgs} messages at the shards' peaks | map reverse indexes ${reverse-index-kib} KiB",
		"globalfp: remote inline dedupes=${remote-deduped} remote reads=${remote-reads}",
		"globalfp: cross-shard consistency PASS",
	}
	outageBlock = []string{
		"shardcrash: shard ${outage-shard} crashed and rejoined, ${outage-replayed} journal records replayed, ${shards:server_shard_down_refused} requests refused while down",
		"shardcrash: epochs=[${epochs}] stale-dropped=${globalfp_stale_dropped} down-dropped=${globalfp_down_dropped} implicit-grants=${globalfp_recall_implicit_grants}",
		"shardcrash: outage window closed, cluster whole",
	}
	chaosBlock = []string{
		"chaos faults: injected transient=${fault_injected_transient} sector=${fault_injected_sector} diskfail=${fault_injected_disk_fail} slow=${fault_slow_accesses} | healed ranges=${fault_healed_ranges}",
		"chaos raid: degraded reads=${raid_degraded_reads} sector repairs=${raid_sector_repairs} fail events=${raid_fail_events} rebuild ios=${raid_rebuild_ios} rebuilds done=${raid_rebuilds_done} data loss=${raid_data_loss_errors}",
		"chaos server: retries=${shards:server_retries} failed=${shards:server_failed} deadline=${shards:server_deadline_exceeded} breaker opens=${shards:server_breaker_opens} breaker shed=${shards:server_breaker_shed} read failures=${read-failures}",
	}
)

// WriteText renders the run the way podload prints it: the banner, the
// serving figures, one verdict block per armed feature, the per-shard
// queueing split.
func (r *Report) WriteText(w io.Writer) {
	s, snap, g := r.Spec, &r.Snap, r.Snap.Metrics.Gauges
	pf := func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }
	shard := func(gauge string, k int) int64 { return g[metrics.Labeled(gauge, "shard", strconv.Itoa(k))] }
	own := map[string]any{
		"remote-deduped":    snap.Engine.RemoteDeduped,
		"remote-reads":      snap.Engine.RemoteReads,
		"read-failures":     r.ReadFailures,
		"hint-table-kib":    g["globalfp_hint_table_bytes"] >> 10,
		"inbox-kib":         g["globalfp_inbox_bytes"] >> 10,
		"reverse-index-kib": g["maptable_reverse_index_bytes"] >> 10,
		"hint-hit-pct":      fmt.Sprintf("%.1f", 100*float64(g["globalfp_hint_hits"])/float64(max(1, g["globalfp_hints_installed"]))),
	}
	if o := r.Outage; o != nil {
		epochs := make([]string, snap.Shards) // one fencing generation per shard
		for k := range epochs {
			epochs[k] = strconv.FormatInt(shard("globalfp_epoch", k), 10)
		}
		own["outage-shard"], own["outage-replayed"], own["epochs"] = o.Shard, o.Replayed, strings.Join(epochs, " ")
	}
	figure := func(name string) string {
		if v, ok := own[name]; ok {
			return fmt.Sprint(v)
		}
		v := g[name]
		if gauge, sum := strings.CutPrefix(name, "shards:"); sum {
			for k := 0; k < snap.Shards; k++ {
				v += shard(gauge, k)
			}
		}
		return strconv.FormatInt(v, 10)
	}
	block := func(lines []string) {
		for _, l := range lines {
			pf("%s", os.Expand(l, figure))
		}
	}
	rate, deadline := "flood", "off"
	if s.Rate > 0 {
		rate = fmt.Sprintf("%.0f/s", s.Rate)
	}
	if s.DeadlineUS > 0 {
		deadline = fmt.Sprintf("%dus", s.DeadlineUS)
	}
	pf("podload: trace=%s scheme=%s shards=%d clients=%d rate=%s requests=%d queue=%d batch=%d policy=%s",
		r.Trace, r.Scheme, s.Shards, s.Clients, rate, r.Requests, s.Queue, server.DefaultMaxBatch, s.Policy)
	if s.Streams {
		pf("streams: per-stream index-cache apportionment on (dynamic, locality-driven)")
	}
	if s.Chaos != "" {
		pf("chaos: scenario=%s seed=%d horizon=%v deadline=%s", s.Chaos, s.ChaosSeed, r.Horizon, deadline)
	}
	if o := r.Outage; o != nil {
		pf("shardcrash: shard=%d crash@%v recover@%v", o.Shard, o.CrashAt, o.RecoverAt)
	}

	wall := time.Duration(r.Drive.WallMS * float64(time.Millisecond))
	pf("completed %d of %d requests (%d shed) in %v wall (%.0f req/s wall)",
		snap.Completed, r.Requests, snap.ShedCount, wall.Round(time.Millisecond), r.Drive.Extra["throughput_wall"])
	pf("simulated: window %v, aggregate throughput %.1f req/s", snap.LastComplete.Sub(snap.FirstArrival), snap.Throughput())
	lat := snap.Latency
	pf("latency (sojourn): p50 %.2fms p95 %.2fms p99 %.2fms mean %.2fms max %.2fms",
		lat.Percentile(50)/1000, lat.Percentile(95)/1000, lat.Percentile(99)/1000, lat.Mean()/1000, float64(lat.Max())/1000)
	pf("dedup: %.1f%% writes removed, %.1f%% chunks deduped, %.1f%% read cache hits, %d blocks used",
		snap.Engine.WriteRemovalPct(), snap.Engine.DedupRatioPct(), snap.Engine.CacheHitPct(), snap.UsedBlocks)
	lo, hi := snap.PerShard[0].Completed, snap.PerShard[0].Completed
	for _, ps := range snap.PerShard {
		lo, hi = min(lo, ps.Completed), max(hi, ps.Completed)
	}
	pf("shards: %d, completed/shard min %d max %d", snap.Shards, lo, hi)

	for _, v := range r.Streams {
		pf("stream %d: writes=%d removed=%d (%.1f%%) index-quota=%d entries",
			v.Stream, v.Writes, v.Removed, 100*float64(v.Removed)/float64(max(1, v.Writes)), v.Quota)
	}
	if s.BGDedup {
		block(scannerBlock)
	}
	if s.Tier {
		block(tierBlock)
	}
	if r.Outage != nil {
		block(outageBlock)
	}
	if v := r.Oracle; v != nil {
		block(chaosBlock)
		pf("chaos oracle: %d acked writes, %d failed writes, %d indeterminate blocks, %d spilled chunks, %d blocks verified",
			v.Acked, v.FailedWrites, v.Indeterminate, v.Spilled, v.Verified)
		pf("chaos oracle: PASS")
		if s.BGDedup {
			pf("chaos recovery: %d journal records replayed, %d blocks re-verified, consistency PASS", v.Replayed, v.Reverified)
		}
	}

	// queue wait vs service time per shard, from the shard-labeled
	// histograms the server publishes into each shard engine's registry
	m := snap.Metrics
	for k := 0; k < snap.Shards; k++ {
		qw := m.Histograms[metrics.Labeled("server_queue_wait_us", "shard", strconv.Itoa(k))]
		svc := m.Histograms[metrics.Labeled("server_service_us", "shard", strconv.Itoa(k))]
		if qw == nil || svc == nil {
			continue
		}
		pf("shard %d: queue-wait p50 %.2fms p95 %.2fms | service p50 %.2fms p95 %.2fms (%d served)",
			k, qw.Percentile(50)/1000, qw.Percentile(95)/1000, svc.Percentile(50)/1000, svc.Percentile(95)/1000, svc.N)
	}
	if len(m.Traces) > 0 {
		t := m.Traces[0]
		pf("traces: %d sampled (every %d per shard); first: shard=%d op=%v lba=%d chunks=%d sojourn=%dus phases=%v",
			len(m.Traces), s.TraceSample, t.Shard, t.Op, t.LBA, t.Chunks, t.Sojourn, t.Phases)
	}
	if s.MetricsOut != "" {
		samples := int64(0)
		for _, h := range m.Histograms {
			samples += h.N
		}
		pf("metrics: %d series (%d histogram samples) -> %s", len(m.Histograms)+len(m.Gauges), samples, s.MetricsOut)
	}
}
