package dist

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/graph"
)

// shardDigest enumerates one root range [start, end) with the given
// engine and digests its output. Ordering is identity throughout this
// file so every digest lives in the same id space as the brute-force
// oracle's.
func shardDigest(t *testing.T, g *graph.Bipartite, name string, start, end int32) difftest.Digest {
	t.Helper()
	id, err := engine.Parse(name)
	if err != nil {
		t.Fatal(err)
	}
	var d difftest.Digest
	if _, err := id.Run(g, core.Options{OnBiclique: d.Observe, StartRoot: start, EndRoot: end}); err != nil {
		t.Fatal(err)
	}
	return d
}

// randomPartition cuts [0, nv) into 1..nv contiguous ranges at random
// cut points.
func randomPartition(rng *rand.Rand, nv int) []RootRange {
	cuts := map[int32]bool{0: true, int32(nv): true}
	for i, k := 0, rng.Intn(nv); i < k; i++ {
		cuts[int32(1+rng.Intn(nv-1))] = true
	}
	var points []int32
	for p := range cuts {
		points = append(points, p)
	}
	for i := range points { // insertion sort; tiny
		for j := i; j > 0 && points[j] < points[j-1]; j-- {
			points[j], points[j-1] = points[j-1], points[j]
		}
	}
	out := make([]RootRange, 0, len(points)-1)
	for i := 0; i+1 < len(points); i++ {
		out = append(out, RootRange{Start: points[i], End: points[i+1]})
	}
	return out
}

// mergeTree folds digests in a random binary association: each step
// merges two random entries until one remains. Combined with a shuffle
// this exercises arbitrary (order, grouping) of the commutative monoid.
func mergeTree(rng *rand.Rand, ds []difftest.Digest) difftest.Digest {
	if len(ds) == 0 {
		return difftest.Digest{}
	}
	work := append([]difftest.Digest(nil), ds...)
	for len(work) > 1 {
		i := rng.Intn(len(work))
		j := rng.Intn(len(work) - 1)
		if j >= i {
			j++
		}
		if i > j {
			i, j = j, i
		}
		work[i].Merge(work[j])
		work[j] = work[len(work)-1]
		work = work[:len(work)-1]
	}
	return work[0]
}

// TestDigestMergeIsCommutativeAndAssociative is the shard-merge
// property behind the whole protocol: however the root space is
// partitioned, whichever engine enumerates each shard, and in whatever
// order and grouping the shard digests are merged, the result equals
// the brute-force oracle's digest of the full graph.
func TestDigestMergeIsCommutativeAndAssociative(t *testing.T) {
	engines := []string{"AdaMBE", "Baseline", "AdaMBE-LN", "AdaMBE-BIT", "BBK"}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		nu := 2 + rng.Intn(8)
		nv := 2 + rng.Intn(core.MaxBruteForceV-7) // keep the 2^nv oracle cheap
		m := 1 + rng.Intn(nu*nv)
		g := testGraph(t, int64(1000+trial), nu, nv, m)

		var oracle difftest.Digest
		core.BruteForce(g, oracle.Observe)

		parts := randomPartition(rng, nv)
		shards := make([]difftest.Digest, len(parts))
		for i, p := range parts {
			// A different engine per shard: the partition contract is an
			// engine-family property, so heterogeneous shards must still
			// merge to the same multiset.
			shards[i] = shardDigest(t, g, engines[(trial+i)%len(engines)], p.Start, p.End)
		}

		// Left-to-right in shard order.
		var seq difftest.Digest
		for _, s := range shards {
			seq.Merge(s)
		}
		// Shuffled order (commutativity).
		shuf := append([]difftest.Digest(nil), shards...)
		rng.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
		var com difftest.Digest
		for _, s := range shuf {
			com.Merge(s)
		}
		// Random association (associativity).
		tree := mergeTree(rng, shards)

		for name, got := range map[string]difftest.Digest{"sequential": seq, "shuffled": com, "tree": tree} {
			if !got.Equal(oracle) || got.Count != oracle.Count {
				t.Fatalf("trial %d (%d shards, %dx%d/%d): %s merge %v != oracle %v",
					trial, len(parts), nu, nv, m, name, got, oracle)
			}
		}
	}
}
