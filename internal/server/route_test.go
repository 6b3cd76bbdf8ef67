package server

import (
	"math/rand"
	"testing"
)

// TestRouterStablePartition is the property test of the routing
// function: for any shard count and granularity, the shard assignment
// is (a) always in range, (b) deterministic and identical across
// router instances with the same parameters, (c) constant within a
// granule, and (d) a partition that actually uses every shard once the
// address space spans enough granules.
func TestRouterStablePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, shards := range []int{1, 2, 3, 4, 7, 8, 16} {
		for _, gran := range []uint64{1, 64, DefaultGranChunks, 10000} {
			a := NewRouter(shards, gran)
			b := NewRouter(shards, gran)
			seen := make(map[int]bool)
			for i := 0; i < 20000; i++ {
				lba := rng.Uint64() % (uint64(shards) * gran * 64)
				sh := a.Shard(lba)
				if sh < 0 || sh >= shards {
					t.Fatalf("shards=%d gran=%d: Shard(%d) = %d out of range", shards, gran, lba, sh)
				}
				if got := a.Shard(lba); got != sh {
					t.Fatalf("shards=%d gran=%d: Shard(%d) unstable: %d then %d", shards, gran, lba, sh, got)
				}
				if got := b.Shard(lba); got != sh {
					t.Fatalf("shards=%d gran=%d: routers disagree at %d: %d vs %d", shards, gran, lba, sh, got)
				}
				// every address inside lba's granule lands on the same shard
				base := lba - lba%gran
				for _, off := range []uint64{0, gran / 2, gran - 1} {
					if got := a.Shard(base + off); got != sh {
						t.Fatalf("shards=%d gran=%d: granule of %d split between shards %d and %d", shards, gran, lba, sh, got)
					}
				}
				seen[sh] = true
			}
			if len(seen) != shards {
				t.Fatalf("shards=%d gran=%d: only %d of %d shards ever selected", shards, gran, len(seen), shards)
			}
		}
	}
}

// TestRouterBalance checks that a uniformly spread address space lands
// evenly: no shard more than 2x the mean under round-robin granules.
func TestRouterBalance(t *testing.T) {
	const shards = 8
	r := NewRouter(shards, 0)
	counts := make([]int, shards)
	const granules = 1 << 12
	for g := uint64(0); g < granules; g++ {
		counts[r.Shard(g*DefaultGranChunks)]++
	}
	mean := granules / shards
	for i, c := range counts {
		if c < mean/2 || c > mean*2 {
			t.Fatalf("shard %d owns %d granules, mean %d: partition is skewed", i, c, mean)
		}
	}
}

func TestRouterRejectsZeroShards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0 shards")
		}
	}()
	NewRouter(0, 0)
}
