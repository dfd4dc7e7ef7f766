package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestTauUsageShowsDefault: the -tau help names the τ a zero -tau runs
// with, core.DefaultTau, not a literal of its own.
func TestTauUsageShowsDefault(t *testing.T) {
	fs := flag.NewFlagSet("mbe", flag.ContinueOnError)
	var help strings.Builder
	fs.SetOutput(&help)
	fs.Int("tau", 0, tauUsage)
	fs.PrintDefaults()
	if want := fmt.Sprintf("(0 = %d)", core.DefaultTau); !strings.Contains(help.String(), want) {
		t.Fatalf("-tau help %q does not state the default %s", help.String(), want)
	}
}

// TestAppendLineMatchesFmt pins the -print and `mbe cat` line format to
// the bytes fmt's "L=%v R=%v\n" writes, which scripts compare lines
// against: empty and one-id sides, ids at every digit boundary up to
// 2^31−1, and random sides.
func TestAppendLineMatchesFmt(t *testing.T) {
	boundary := []int32{0, 9, 10, 99, 100, math.MaxInt32}
	cases := [][2][]int32{{nil, nil}, {{}, {0}}, {boundary, boundary[2:4]}}
	for _, v := range boundary {
		cases = append(cases, [2][]int32{{v}, {v}})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		cases = append(cases, [2][]int32{randomSide(rng), randomSide(rng)})
	}
	var got []byte
	for _, c := range cases {
		want := fmt.Sprintf("L=%v R=%v\n", c[0], c[1])
		got = appendLine(got[:0], c[0], c[1])
		if string(got) != want {
			t.Fatalf("appendLine(%v, %v) = %q, fmt wrote %q", c[0], c[1], got, want)
		}
	}
}

// randomSide returns 1–300 strictly ascending ids in [0, 2^31−1], their
// magnitudes spread over every digit count.
func randomSide(rng *rand.Rand) []int32 {
	side := make([]int32, 1+rng.Intn(300))
	for i := range side {
		side[i] = int32(rng.Int63n(int64(1) << (1 + rng.Intn(31))))
	}
	slices.Sort(side)
	return slices.Compact(side)
}
