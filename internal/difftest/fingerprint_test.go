package difftest

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

func TestFingerprintOrderInvariantWithinSides(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		L := randomIDs(rng, 1+rng.Intn(12))
		R := randomIDs(rng, 1+rng.Intn(12))
		want := Fingerprint(L, R)
		for shuffle := 0; shuffle < 5; shuffle++ {
			ls := append([]int32(nil), L...)
			rs := append([]int32(nil), R...)
			rng.Shuffle(len(ls), func(i, j int) { ls[i], ls[j] = ls[j], ls[i] })
			rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
			if got := Fingerprint(ls, rs); got != want {
				t.Fatalf("fingerprint depends on order: %x vs %x", got, want)
			}
		}
	}
}

func TestFingerprintSideAsymmetric(t *testing.T) {
	L := []int32{1, 2, 3}
	R := []int32{1, 2, 3}
	if Fingerprint(L, R) == 0 {
		t.Fatal("degenerate zero fingerprint")
	}
	a := Fingerprint([]int32{1, 2}, []int32{7})
	b := Fingerprint([]int32{7}, []int32{1, 2})
	if a == b {
		t.Fatal("fingerprint symmetric under side swap; side-swap metamorphic check would be blind")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := Fingerprint([]int32{1, 2, 3}, []int32{10, 11})
	perturbed := []struct {
		name string
		L, R []int32
	}{
		{"change L id", []int32{1, 2, 4}, []int32{10, 11}},
		{"change R id", []int32{1, 2, 3}, []int32{10, 12}},
		{"drop L id", []int32{1, 2}, []int32{10, 11}},
		{"drop R id", []int32{1, 2, 3}, []int32{10}},
		{"move id across sides", []int32{1, 2}, []int32{3, 10, 11}},
	}
	for _, p := range perturbed {
		if Fingerprint(p.L, p.R) == base {
			t.Fatalf("%s: fingerprint unchanged", p.name)
		}
	}
}

func TestDigestCommutativeAndMergeable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	fps := make([]uint64, 200)
	for i := range fps {
		fps[i] = rng.Uint64()
	}
	var forward, backward, merged Digest
	for _, fp := range fps {
		forward.Add(fp)
	}
	for i := len(fps) - 1; i >= 0; i-- {
		backward.Add(fps[i])
	}
	var shards [4]Digest
	for i, f := range fps {
		shards[i%4].Add(f)
	}
	for _, s := range shards {
		merged.Merge(s)
	}
	if !forward.Equal(backward) {
		t.Fatalf("digest order-dependent: %s vs %s", forward, backward)
	}
	if !forward.Equal(merged) {
		t.Fatalf("sharded merge diverges: %s vs %s", forward, merged)
	}
}

// TestDigestJSONRoundTrip: a Digest survives json.Marshal and
// json.Unmarshal bit for bit, folds above 2^53 included, and a fold that
// is not hex fails the decode.
func TestDigestJSONRoundTrip(t *testing.T) {
	var added Digest
	for _, fp := range []uint64{1, 2, 3} {
		added.Add(fp)
	}
	for _, d := range []Digest{
		{},
		added,
		{Count: 1 << 40, Sum: ^uint64(0), Xor: 1, Fold: 0x8000000000000000},
	} {
		blob, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("marshal %v: %v", d, err)
		}
		var got Digest
		if err := json.Unmarshal(blob, &got); err != nil {
			t.Fatalf("round-trip %v through %s: %v", d, blob, err)
		}
		if got != d {
			t.Errorf("round-trip %v -> %s -> %v", d, blob, got)
		}
	}
	for _, bad := range []string{
		`{"count":0,"sum":"zz","xor":"0","fold":"0"}`,
		`{"count":0,"sum":"0","xor":"","fold":"0"}`,
		`{"count":0,"sum":"0","xor":"0","fold":"not hex"}`,
	} {
		var d Digest
		if err := json.Unmarshal([]byte(bad), &d); err == nil {
			t.Errorf("Unmarshal(%s) accepted bad hex: %v", bad, d)
		}
	}
}

// TestDigestJSONGolden pins the wire form byte for byte. Dist frames,
// the coordinator's manifest and its progress answer carry it, so a
// change here would make this build unable to read the manifests that
// earlier builds wrote or to talk to their workers.
func TestDigestJSONGolden(t *testing.T) {
	d := Digest{Count: 3, Sum: 0x0123456789abcdef, Xor: 0xfedcba9876543210, Fold: 1}
	const want = `{"count":3,"sum":"0123456789abcdef","xor":"fedcba9876543210","fold":"0000000000000001"}`
	blob, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != want {
		t.Errorf("json.Marshal(%v) = %s, want %s", d, blob, want)
	}
	var got Digest
	if err := json.Unmarshal([]byte(want), &got); err != nil || got != d {
		t.Errorf("json.Unmarshal(%s) = %v, %v; want %v", want, got, err, d)
	}
}

func TestDigestDetectsDropAndDuplicate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fps := make([]uint64, 50)
	for i := range fps {
		fps[i] = rng.Uint64()
	}
	var clean Digest
	for _, f := range fps {
		clean.Add(f)
	}
	// Drop one, double another: the count collides with the clean run but
	// the folds must not.
	var corrupt Digest
	for i, f := range fps {
		if i == 7 {
			continue
		}
		corrupt.Add(f)
		if i == 23 {
			corrupt.Add(f)
		}
	}
	if corrupt.Count != clean.Count {
		t.Fatalf("test setup: counts should collide (%d vs %d)", corrupt.Count, clean.Count)
	}
	if corrupt.Equal(clean) {
		t.Fatal("digest blind to drop+duplicate with colliding counts")
	}
}

// TestDigestMatchesKeySetEquality ties the digest to the repo's
// ground-truth equality currency: on random graphs, two enumerations have
// equal digests iff their canonical key sets are equal.
func TestDigestMatchesKeySetEquality(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := gen.Uniform(seed, 14, 10, 35)
		keys := core.BruteForceKeys(g)
		var viaKeys []string
		d := BruteDigest(g)
		var d2 Digest
		core.BruteForce(g, func(L, R []int32) {
			viaKeys = append(viaKeys, core.BicliqueKey(L, R))
			d2.Observe(L, R)
		})
		sort.Strings(viaKeys)
		if !reflect.DeepEqual(keys, viaKeys) {
			t.Fatalf("seed %d: BruteForce emit disagrees with BruteForceKeys", seed)
		}
		if !d.Equal(d2) {
			t.Fatalf("seed %d: identical enumerations, different digests", seed)
		}
		if int(d.Count) != len(keys) {
			t.Fatalf("seed %d: digest count %d != %d keys", seed, d.Count, len(keys))
		}
	}
}

func randomIDs(rng *rand.Rand, n int) []int32 {
	seen := map[int32]bool{}
	out := make([]int32, 0, n)
	for len(out) < n {
		id := int32(rng.Intn(1 << 20))
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}
