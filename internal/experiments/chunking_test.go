package experiments

import "testing"

// TestChunkingShifted is the experiment's headline assertion: on the
// shifted snapshot trace, fixed-4K chunking removes exactly zero
// writes (every block ID is unique) while gear and seqcdc each remove
// a substantial share of the rewrite generations.
func TestChunkingShifted(t *testing.T) {
	env := NewEnv(0.05, 0)
	_, rows := env.Chunking()
	if len(rows) != 3 {
		t.Fatalf("want 3 chunker rows, got %d", len(rows))
	}
	byAlgo := map[string]ChunkingRow{}
	for _, r := range rows {
		byAlgo[r.Algo] = r
	}

	fixed := byAlgo["fixed4k"]
	if fixed.Removed != 0 {
		t.Fatalf("fixed4k removed %d writes on the shifted trace; unique IDs must yield 0", fixed.Removed)
	}
	if fixed.EmittedChunks != 0 {
		t.Fatalf("fixed4k reports %d CDC chunks; the splitter must be off", fixed.EmittedChunks)
	}

	for _, name := range []string{"gear", "seqcdc"} {
		row := byAlgo[name]
		if row.Writes == 0 {
			t.Fatalf("%s: no measured writes", name)
		}
		if row.Removed == 0 {
			t.Fatalf("%s removed 0 writes; shifted redundancy not recovered", name)
		}
		// the bulk of post-warmup rewrites should be absorbed whole:
		// every request of generations 1+ except the edit-head request
		// of each object is fully duplicate content
		if pct := float64(row.Removed) / float64(row.Writes); pct < 0.5 {
			t.Fatalf("%s removed only %.1f%% of writes, want > 50%%", name, 100*pct)
		}
		if row.EmittedChunks == 0 {
			t.Fatalf("%s: cdc_emitted_chunks gauge is zero", name)
		}
		if row.UsedBlocks >= fixed.UsedBlocks {
			t.Fatalf("%s used %d blocks, not below fixed4k's %d", name, row.UsedBlocks, fixed.UsedBlocks)
		}
	}
}
