package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadKonect checks that arbitrary input never panics the loader, that
// it gives exactly the reference loader's graph or error text, and that
// every successfully parsed graph satisfies the structural invariants and
// round-trips through both serializers.
func FuzzReadKonect(f *testing.F) {
	f.Add("1 2\n3 4\n")
	f.Add("% comment\n1 2 5 99999\n\n1 2\n")
	f.Add("a b\nb a\n")
	f.Add("x")
	f.Add(strings.Repeat("7 9\n", 100))
	f.Add("1 2\r\n3 4\r\n2 4\r\n")
	f.Add("% bip unweighted\n% 3 2 2\n1 1\n2 1\n")
	f.Add(" \t # note\n1 2\n\t#\n")
	f.Add("1\u00a02\n3\u00a0\u00a04\n")
	f.Add("1\u00852\n\u0085% x\n")
	f.Add("007 7\n7 007\n0 00\n")
	f.Add("+3 1\n3 1\n")
	f.Add("-1 2\n1 -1\n")
	f.Add("12345678901234567890 1\n1234567890123456789 1\n123456789012345678 1\n")
	f.Add("1 2\n3\n")
	f.Add("1 2\n3 4")
	f.Add("4000000000 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadKonect(strings.NewReader(input))
		ref, refErr := refReadKonect(strings.NewReader(input))
		if msg := sameResult(g, err, ref, refErr); msg != "" {
			t.Fatalf("differs from the reference loader: %s", msg)
		}
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph invalid: %v", err)
		}
		if g.NV() > g.NU() {
			t.Fatal("loader did not orient")
		}
		var txt bytes.Buffer
		if err := g.WriteEdgeList(&txt); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadKonect(&txt)
		if err != nil {
			t.Fatalf("re-parse of own output failed: %v", err)
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatalf("edge-list round trip: %d != %d edges", g2.NumEdges(), g.NumEdges())
		}
		var bin bytes.Buffer
		if err := g.WriteBinary(&bin); err != nil {
			t.Fatal(err)
		}
		g3, err := ReadBinary(&bin)
		if err != nil {
			t.Fatalf("binary round trip failed: %v", err)
		}
		if g3.NumEdges() != g.NumEdges() || g3.NU() != g.NU() || g3.NV() != g.NV() {
			t.Fatal("binary round trip changed the graph")
		}
	})
}

// FuzzReadBinary checks the binary loader against corrupt/hostile input.
func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	if err := PaperExample().WriteBinary(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("MBEG0001"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("binary loader accepted invalid graph: %v", err)
		}
	})
}
