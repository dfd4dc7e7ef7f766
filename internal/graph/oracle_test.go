package graph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file keeps the loader and the CSR builder as they were before the
// byte-level tokenizer and the counting-sort build replaced them. They are
// the oracle the tests and FuzzReadKonect hold the production code to:
// same arrays for every input, same error text for every rejected one.

// refReadKonect is the string-map, strings.Fields loader.
func refReadKonect(r io.Reader) (*Bipartite, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	uIDs := map[string]int32{}
	vIDs := map[string]int32{}
	var edges []Edge
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %q", line, text)
		}
		u, ok := uIDs[fields[0]]
		if !ok {
			u = int32(len(uIDs))
			uIDs[fields[0]] = u
		}
		v, ok := vIDs[fields[1]]
		if !ok {
			v = int32(len(vIDs))
			vIDs[fields[1]] = v
		}
		edges = append(edges, Edge{U: u, V: v})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	g, err := refFromEdges(len(uIDs), len(vIDs), edges)
	if err != nil {
		return nil, err
	}
	return g.Orient(), nil
}

// refFromEdges is the comparison-sort CSR builder.
func refFromEdges(nu, nv int, edges []Edge) (*Bipartite, error) {
	if nu < 0 || nv < 0 {
		return nil, fmt.Errorf("graph: negative side size (nu=%d, nv=%d)", nu, nv)
	}
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= nu {
			return nil, fmt.Errorf("graph: edge (%d,%d): u out of range [0,%d)", e.U, e.V, nu)
		}
		if e.V < 0 || int(e.V) >= nv {
			return nil, fmt.Errorf("graph: edge (%d,%d): v out of range [0,%d)", e.U, e.V, nv)
		}
	}

	es := make([]Edge, len(edges))
	copy(es, edges)
	sort.Slice(es, func(i, j int) bool {
		if es[i].V != es[j].V {
			return es[i].V < es[j].V
		}
		return es[i].U < es[j].U
	})
	// Deduplicate in place.
	dedup := es[:0]
	for i, e := range es {
		if i == 0 || e != es[i-1] {
			dedup = append(dedup, e)
		}
	}
	es = dedup

	g := &Bipartite{
		nu:   nu,
		nv:   nv,
		vOff: make([]int64, nv+1),
		vAdj: make([]int32, len(es)),
		uOff: make([]int64, nu+1),
		uAdj: make([]int32, len(es)),
	}
	for _, e := range es {
		g.vOff[e.V+1]++
		g.uOff[e.U+1]++
	}
	for i := 0; i < nv; i++ {
		g.vOff[i+1] += g.vOff[i]
	}
	for i := 0; i < nu; i++ {
		g.uOff[i+1] += g.uOff[i]
	}
	vCur := make([]int64, nv)
	uCur := make([]int64, nu)
	for _, e := range es {
		g.vAdj[g.vOff[e.V]+vCur[e.V]] = e.U
		vCur[e.V]++
		g.uAdj[g.uOff[e.U]+uCur[e.U]] = e.V
		uCur[e.U]++
	}
	// vAdj rows are sorted by construction (edges sorted by (V,U)); uAdj rows
	// are sorted because for a fixed u, edges appear in increasing V order.
	return g, nil
}
