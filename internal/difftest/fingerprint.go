// Package difftest is the correctness-tooling layer for the enumeration
// engines: canonical per-biclique fingerprints folded into an
// order-independent run digest, a differential runner that executes every
// engine × ordering × thread-count combination and asserts digest
// equality, metamorphic graph transformations with known effects on the
// biclique set, and a delta-debugging minimizer that shrinks any
// disagreement to a standalone replayable repro file.
//
// The design premise comes from the paper's own validation gap: Table 4
// compares only total counts, and counts can collide — after the
// work-stealing scheduler a bug that drops one biclique and double-emits
// another is invisible to every count-based check. Digests compare the
// *set* of bicliques (up to astronomically unlikely hash collisions) in
// O(1) memory, so multi-million-biclique runs cross-check for free.
package difftest

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"strconv"
)

// mix64 is SplitMix64's finalizer: a cheap, well-dispersed 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Per-side and digest-level mixing constants. The two sides use distinct
// seeds so a biclique and its mirror image fingerprint differently
// (Fingerprint(L,R) ≠ Fingerprint(R,L) in general), which is what lets
// the side-swap metamorphic check detect a swapped emission.
const (
	seedL    = 0x9e3779b97f4a7c15 // golden-ratio increment
	seedR    = 0xc2b2ae3d27d4eb4f // xxhash prime
	seedFold = 0x165667b19e3779f9 // second-moment remix seed
)

// sideHash combines one side's vertex ids commutatively: each id is mixed
// independently, then the per-vertex hashes are folded by sum, xor and
// cardinality. Commutative folding makes the hash independent of the
// order vertices appear in the slice — engines need not sort, and the
// harness need not copy.
func sideHash(s []int32, seed uint64) uint64 {
	var sum, xor uint64
	for _, v := range s {
		h := mix64(uint64(uint32(v))*0x9e3779b97f4a7c15 + seed)
		sum += h
		xor ^= h
	}
	return mix64(sum ^ bits.RotateLeft64(xor, 32) ^ (uint64(len(s))*seed + seed))
}

// Fingerprint maps a biclique (L, R) to a canonical 64-bit value:
// invariant to the order of vertices within each side, sensitive to which
// side a vertex is on, to every id, and to both cardinalities. Two
// enumeration runs emit the same biclique set iff (modulo hash
// collisions) their Digests are equal.
func Fingerprint(L, R []int32) uint64 {
	hl := sideHash(L, seedL)
	hr := sideHash(R, seedR)
	return mix64(hl + seedFold*hr)
}

// Digest is a commutative, O(1)-memory summary of a run's biclique set:
// the count plus three independent folds of the per-biclique
// fingerprints. Because every fold is commutative and associative, the
// digest is independent of emission order and shards merge losslessly —
// exactly what the parallel engines' unspecified interleaving requires.
//
// The zero value is the digest of the empty run. Digest methods are not
// safe for concurrent use; under ParAdaMBE's default serialized emission
// a single Digest works as the handler, while UnorderedEmit callers keep
// one Digest per goroutine and Merge them.
type Digest struct {
	// Count is the number of bicliques observed.
	Count int64
	// Sum, Xor and Fold are commutative folds of the fingerprints: their
	// modular sum, their xor, and the modular sum of a remixed copy. A
	// drop+duplicate pair that happened to cancel in one fold still
	// perturbs the others.
	Sum  uint64
	Xor  uint64
	Fold uint64
}

// Add folds one biclique fingerprint into the digest.
func (d *Digest) Add(fp uint64) {
	d.Count++
	d.Sum += fp
	d.Xor ^= fp
	d.Fold += mix64(fp ^ seedFold)
}

// Observe fingerprints (L, R) and folds it in. Its signature matches the
// engines' Handler, so a *Digest can be installed directly as OnBiclique.
func (d *Digest) Observe(L, R []int32) { d.Add(Fingerprint(L, R)) }

// Merge folds another digest (e.g. a per-worker shard) into d.
func (d *Digest) Merge(o Digest) {
	d.Count += o.Count
	d.Sum += o.Sum
	d.Xor ^= o.Xor
	d.Fold += o.Fold
}

// Equal reports whether two digests summarize the same biclique multiset.
func (d Digest) Equal(o Digest) bool {
	return d.Count == o.Count && d.Sum == o.Sum && d.Xor == o.Xor && d.Fold == o.Fold
}

// String renders the digest compactly for failure messages.
func (d Digest) String() string {
	return fmt.Sprintf("{n=%d sum=%016x xor=%016x fold=%016x}", d.Count, d.Sum, d.Xor, d.Fold)
}

// digestJSON is a Digest's JSON form, in dist frames, the coordinator's
// manifest and its progress answer. The three uint64 folds are hex
// strings: JSON numbers round-trip through float64 in most decoders and
// silently lose bits above 2^53, which for a digest means false "equal"
// or false "different" — unacceptable either way.
type digestJSON struct {
	Count int64  `json:"count"`
	Sum   string `json:"sum"`
	Xor   string `json:"xor"`
	Fold  string `json:"fold"`
}

// MarshalJSON writes {"count","sum","xor","fold"} with each fold as 16
// hex digits.
func (d Digest) MarshalJSON() ([]byte, error) {
	return json.Marshal(digestJSON{
		Count: d.Count,
		Sum:   fmt.Sprintf("%016x", d.Sum),
		Xor:   fmt.Sprintf("%016x", d.Xor),
		Fold:  fmt.Sprintf("%016x", d.Fold),
	})
}

// UnmarshalJSON reads the form MarshalJSON writes; a fold that is not
// hex fails the decode.
func (d *Digest) UnmarshalJSON(b []byte) error {
	var j digestJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	sum, err := strconv.ParseUint(j.Sum, 16, 64)
	if err != nil {
		return fmt.Errorf("difftest: bad digest sum %q: %w", j.Sum, err)
	}
	xor, err := strconv.ParseUint(j.Xor, 16, 64)
	if err != nil {
		return fmt.Errorf("difftest: bad digest xor %q: %w", j.Xor, err)
	}
	fold, err := strconv.ParseUint(j.Fold, 16, 64)
	if err != nil {
		return fmt.Errorf("difftest: bad digest fold %q: %w", j.Fold, err)
	}
	*d = Digest{Count: j.Count, Sum: sum, Xor: xor, Fold: fold}
	return nil
}
