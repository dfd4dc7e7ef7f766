package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// sameResult describes the first difference between a result of the
// production code and the reference's, or returns "" when they agree:
// the same six arrays, or errors with the same text.
func sameResult(g *Bipartite, err error, ref *Bipartite, refErr error) string {
	switch {
	case err != nil || refErr != nil:
		if err == nil || refErr == nil || err.Error() != refErr.Error() {
			return fmt.Sprintf("error %v, reference error %v", err, refErr)
		}
		return ""
	case g.nu != ref.nu || g.nv != ref.nv:
		return fmt.Sprintf("sides %d×%d, reference %d×%d", g.nu, g.nv, ref.nu, ref.nv)
	case !slices.Equal(g.vOff, ref.vOff):
		return "vOff"
	case !slices.Equal(g.vAdj, ref.vAdj):
		return "vAdj"
	case !slices.Equal(g.uOff, ref.uOff):
		return "uOff"
	case !slices.Equal(g.uAdj, ref.uAdj):
		return "uAdj"
	}
	return ""
}

func checkAgainstReference(t *testing.T, name, input string) {
	t.Helper()
	g, err := ReadKonect(strings.NewReader(input))
	ref, refErr := refReadKonect(strings.NewReader(input))
	if msg := sameResult(g, err, ref, refErr); msg != "" {
		t.Fatalf("%s: differs from the reference loader: %s", name, msg)
	}
}

// Larger inputs than the fuzzer builds: dense and sparse canonical ids,
// which take the value table or the string map and migrate from the map to
// the table, mixed with tokens that only the string map may number.
func TestReadKonectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	token := func(span int64) string {
		x := rng.Int63n(span)
		switch rng.Intn(16) {
		case 0:
			return "0" + strconv.FormatInt(x, 10)
		case 1:
			return "+" + strconv.FormatInt(x, 10)
		case 2:
			return "v" + strconv.FormatInt(x, 10)
		}
		return strconv.FormatInt(x, 10)
	}
	for _, span := range []int64{50, 5_000, 200_000, 1 << 40, 1e18} {
		var b strings.Builder
		b.WriteString("% bip\n")
		for range 30_000 {
			b.WriteString(token(span))
			b.WriteByte(" \t"[rng.Intn(2)])
			b.WriteString(token(span / 3))
			if rng.Intn(4) == 0 {
				b.WriteString(" 1 1234567\r")
			}
			b.WriteByte('\n')
		}
		checkAgainstReference(t, fmt.Sprintf("span %d", span), b.String())
	}

	// Edge lists as WriteEdgeList prints them.
	for seed := int64(1); seed <= 3; seed++ {
		g := randomGraph(seed, 3000, 1000, 20_000)
		var b strings.Builder
		if err := g.WriteEdgeList(&b); err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, fmt.Sprintf("edge list %d", seed), b.String())
	}
}

// The longest line bufio.Scanner's 1 MiB buffer held, newline included,
// is still read; one byte more fails with bufio.ErrTooLong, also when the
// caller's reader is a *bufio.Reader with a larger buffer of its own.
func TestReadKonectLineLimit(t *testing.T) {
	for _, n := range []int{maxLine - 1, maxLine, maxLine + 1} {
		long := "3 4 " + strings.Repeat("9", n-len("3 4 \n")) + "\n"
		input := "1 2\n" + long + "5 6\n"
		checkAgainstReference(t, fmt.Sprintf("%d-byte line", n), input)
		for _, r := range []io.Reader{
			strings.NewReader(input),
			bufio.NewReaderSize(strings.NewReader(input), 4*maxLine),
		} {
			_, err := ReadKonect(r)
			if tooLong := errors.Is(err, bufio.ErrTooLong); tooLong != (n > maxLine) {
				t.Fatalf("%d-byte line through %T: err = %v", n, r, err)
			}
		}
	}
}

// The id table follows the number of distinct ids, not the values a line
// spells: a table sized by the largest value would take gigabytes here.
func TestReadKonectMemoryFollowsInput(t *testing.T) {
	for _, input := range []string{
		"4000000000 1\n",
		"1 4000000000\n",
		"999999999999999999 999999999999999998\n",
		"67108863 67108862\n",
		"1 2\n4000000000 3\n123456789012 2\n70000 80000\n",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := ReadKonect(strings.NewReader(input))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 4<<20 {
			t.Errorf("%q: allocated %d bytes", input, d)
		}
	}
}

// FromEdges against the comparison-sort builder on random edge lists:
// duplicates, isolated vertices, empty sides and out-of-range endpoints,
// which must fail with the same text.
func TestFromEdgesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := range 2000 {
		nu, nv := rng.Intn(12), rng.Intn(12)
		edges := make([]Edge, rng.Intn(60))
		for i := range edges {
			edges[i] = Edge{U: int32(rng.Intn(nu + 1)), V: int32(rng.Intn(nv + 1))}
			if rng.Intn(50) == 0 {
				edges[i].U = -edges[i].U - 1
			}
		}
		if rng.Intn(3) > 0 { // mostly in range
			for i := range edges {
				edges[i].U = min(max(edges[i].U, 0), int32(max(nu-1, 0)))
				edges[i].V = min(max(edges[i].V, 0), int32(max(nv-1, 0)))
			}
		}
		if trial%500 == 0 {
			nu = -nu - 1
		}
		in := slices.Clone(edges)
		g, err := FromEdges(nu, nv, edges)
		ref, refErr := refFromEdges(nu, nv, edges)
		if msg := sameResult(g, err, ref, refErr); msg != "" {
			t.Fatalf("trial %d (nu=%d nv=%d edges=%v): %s", trial, nu, nv, edges, msg)
		}
		if !slices.Equal(in, edges) {
			t.Fatalf("trial %d: FromEdges modified its input", trial)
		}
	}
}

// randomGraph builds a graph of m uniform random edges over nu × nv.
func randomGraph(seed int64, nu, nv, m int) *Bipartite {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{U: int32(rng.Intn(nu)), V: int32(rng.Intn(nv))}
	}
	g, err := FromEdges(nu, nv, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// imSized is an edge list the size of the end-to-end benchmark's IM-like
// graph: about 290k edges over 48,000 × 16,000 vertices, printed by
// WriteEdgeList.
func imSized(b *testing.B) ([]Edge, []byte) {
	g := randomGraph(64, 48_000, 16_000, 293_478)
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		b.Fatal(err)
	}
	return g.Edges(), buf.Bytes()
}

// benchSink keeps the benchmarked calls' results alive.
var benchSink *Bipartite

func BenchmarkReadKonect(b *testing.B) {
	_, text := imSized(b)
	for _, c := range []struct {
		name string
		read func(io.Reader) (*Bipartite, error)
	}{
		{"loader", ReadKonect},
		{"reference", refReadKonect},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := c.read(bytes.NewReader(text))
				if err != nil {
					b.Fatal(err)
				}
				benchSink = g
			}
		})
	}
}

func BenchmarkFromEdges(b *testing.B) {
	edges, _ := imSized(b)
	rand.New(rand.NewSource(1)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for _, c := range []struct {
		name  string
		build func(int, int, []Edge) (*Bipartite, error)
	}{
		{"build", FromEdges},
		{"reference", refFromEdges},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := c.build(48_000, 16_000, edges)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = g
			}
		})
	}
}
