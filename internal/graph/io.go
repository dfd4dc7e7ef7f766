package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unicode/utf8"
)

// maxLine is the longest line ReadKonect accepts, its '\n' included. A
// longer line fails with bufio.ErrTooLong.
const maxLine = 1 << 20

// ReadKonect parses the KONECT / out.* edge-list format used by all the
// paper's datasets: one "u v [weight [timestamp]]" line per edge, '%' or
// '#' comment lines, whitespace-separated vertex ids on each side; fields
// after the second are ignored. Duplicate edges collapse. The result is
// Orient()ed so the smaller side is V, matching §IV-A.
//
// A token's text is its identity: each side numbers its distinct tokens
// densely from 0 in first-seen order, so "007" and "7" are two vertices.
// Memory grows with the number of edges and distinct ids, never with the
// largest id a line spells: "4000000000 1" is as cheap to load as "4 1".
// Lines longer than 1 MiB fail with bufio.ErrTooLong.
func ReadKonect(r io.Reader) (*Bipartite, error) {
	// Hide r's type so that the buffer is always this one: a caller's own
	// larger *bufio.Reader would otherwise let longer lines through.
	br := bufio.NewReaderSize(struct{ io.Reader }{r}, maxLine)
	var p konectParser
	for n := 1; ; n++ {
		b, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			err = bufio.ErrTooLong
		} else if len(b) > 0 {
			if lerr := p.line(b, n); lerr != nil {
				return nil, lerr
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("graph: reading edge list: %w", err)
		}
	}
	g, err := FromEdges(int(p.u.n), int(p.v.n), p.edges)
	if err != nil {
		return nil, err
	}
	return g.Orient(), nil
}

// konectParser accumulates the edges of one KONECT edge list.
type konectParser struct {
	u, v  idTable
	edges []Edge
}

// line adds the edge on line n, whose bytes are b, if it holds one.
// Lines the ASCII tokenizer declines (comments, blank or one-field lines,
// and any line with a byte ≥ 0x80 before its second field ends, so that
// NBSP and NEL still separate fields) take the Unicode-aware path.
func (p *konectParser) line(b []byte, n int) error {
	uTok, vTok, ok := asciiFields(b)
	if !ok {
		text := strings.TrimSpace(string(b))
		if text == "" || text[0] == '%' || text[0] == '#' {
			return nil
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return fmt.Errorf("graph: line %d: want at least 2 fields, got %q", n, text)
		}
		uTok, vTok = []byte(fields[0]), []byte(fields[1])
	}
	p.edges = append(p.edges, Edge{U: p.u.id(uTok), V: p.v.id(vTok)})
	return nil
}

// asciiFields returns the first two fields of line, split on ASCII white
// space as strings.Fields splits it. ok is false when the line has fewer
// than two fields, its first field starts a comment, or a byte ≥ 0x80
// comes before its second field ends.
func asciiFields(line []byte) (u, v []byte, ok bool) {
	var f [2][]byte
	i := 0
	for k := range f {
		for i < len(line) && isSpace(line[i]) {
			i++
		}
		start := i
		for i < len(line) && !isSpace(line[i]) {
			if line[i] >= utf8.RuneSelf {
				return nil, nil, false
			}
			i++
		}
		if i == start {
			return nil, nil, false
		}
		f[k] = line[start:i]
	}
	if c := f[0][0]; c == '%' || c == '#' {
		return nil, nil, false
	}
	return f[0], f[1], true
}

// isSpace reports the ASCII white space strings.Fields splits on:
// '\t', '\n', '\v', '\f', '\r' and ' '.
func isSpace(c byte) bool { return c == ' ' || c-'\t' <= '\r'-'\t' }

// idTable numbers one side's vertex tokens 0, 1, 2, … in first-seen order.
// A canonical decimal token spells one value and no other token spells it,
// so while its value is below len(dense) it is numbered through dense.
// Every other token, and a canonical one past dense, is numbered by its
// text through names; when dense grows, the canonical names it now covers
// move into it. dense grows only while it stays within denseSlack entries
// per distinct id, so the table follows the number of distinct ids and
// never the largest value a line spells.
type idTable struct {
	n     int32            // ids handed out
	dense []int32          // dense[x] = 1 + id of value x; 0 = unseen
	names map[string]int32 // every token dense does not cover
}

const (
	minDense   = 1 << 10
	denseSlack = 8
)

// id returns tok's id, handing out the next one on first sight.
func (t *idTable) id(tok []byte) int32 {
	if x, ok := canonical(tok); ok && (x < uint64(len(t.dense)) || t.grow(x)) {
		if d := t.dense[x]; d != 0 {
			return d - 1
		}
		id := t.fresh()
		t.dense[x] = id + 1
		return id
	}
	id, seen := t.names[string(tok)]
	if !seen {
		if t.names == nil {
			t.names = map[string]int32{}
		}
		id = t.fresh()
		t.names[string(tok)] = id
	}
	return id
}

func (t *idTable) fresh() int32 {
	t.n++
	return t.n - 1
}

// grow doubles dense until it covers x, unless that would take it past
// max(minDense, denseSlack·(distinct ids + 1)) entries, and moves the
// canonical names it now covers into it. It reports whether dense covers x.
func (t *idTable) grow(x uint64) bool {
	limit := max(minDense, denseSlack*(uint64(t.n)+1))
	if x >= limit {
		return false
	}
	size := uint64(max(minDense, 2*len(t.dense)))
	for size <= x {
		size *= 2
	}
	if size > limit {
		return false
	}
	d := make([]int32, size)
	copy(d, t.dense)
	for name, id := range t.names {
		if y, ok := canonical([]byte(name)); ok && y < size {
			d[y] = id + 1
			delete(t.names, name)
		}
	}
	t.dense = d
	return true
}

// canonical returns the value of a canonical decimal token: digits only, no
// leading zero unless the token is "0", at most 18 digits. Canonical tokens
// and their values correspond one to one, and every value fits a uint64.
func canonical(tok []byte) (uint64, bool) {
	if len(tok) == 0 || len(tok) > 18 || (tok[0] == '0' && len(tok) > 1) {
		return 0, false
	}
	var x uint64
	for _, c := range tok {
		if c < '0' || c > '9' {
			return 0, false
		}
		x = x*10 + uint64(c-'0')
	}
	return x, true
}

// ReadKonectFile reads a KONECT edge list from a file.
func ReadKonectFile(path string) (*Bipartite, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := ReadKonect(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// WriteEdgeList writes the graph in KONECT format (0-based ids).
func (g *Bipartite) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%% bip u v  |U|=%d |V|=%d |E|=%d\n", g.nu, g.nv, g.NumEdges())
	for v := int32(0); v < int32(g.nv); v++ {
		for _, u := range g.NeighborsOfV(v) {
			bw.WriteString(strconv.Itoa(int(u)))
			bw.WriteByte(' ')
			bw.WriteString(strconv.Itoa(int(v)))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

const binMagic = "MBEG0001"

// WriteBinary serializes the graph in a compact cache format (little-endian
// CSR dump) so large generated datasets load in O(read) time.
func (g *Bipartite) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binMagic); err != nil {
		return err
	}
	hdr := []int64{int64(g.nu), int64(g.nv), g.NumEdges()}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.vOff); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.vAdj); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary deserializes a graph written by WriteBinary, rebuilding the
// U-side CSR.
func ReadBinary(r io.Reader) (*Bipartite, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("graph: reading binary header: %w", err)
	}
	if string(magic) != binMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	var hdr [3]int64
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, err
	}
	nu, nv, ne := hdr[0], hdr[1], hdr[2]
	if nu < 0 || nv < 0 || ne < 0 || nu > 1<<31 || nv > 1<<31 {
		return nil, fmt.Errorf("graph: implausible binary header %v", hdr)
	}
	// The U side is rebuilt from a size that only the header attests to;
	// cap it relative to the data the file actually carries so a hostile
	// 40-byte header cannot force a gigabyte allocation. Real datasets
	// have |U| well below 64×(|E|+|V|).
	if nu > 1<<20 && nu > 64*(ne+nv+1) {
		return nil, fmt.Errorf("graph: implausible |U|=%d for |V|=%d, |E|=%d", nu, nv, ne)
	}
	// Read the arrays in bounded chunks so a hostile header cannot force a
	// huge up-front allocation: memory stays proportional to the bytes the
	// reader actually delivers.
	vOff, err := readChunkedInt64(br, nv+1)
	if err != nil {
		return nil, err
	}
	if vOff[0] != 0 || vOff[nv] != ne {
		return nil, fmt.Errorf("graph: offset table inconsistent with edge count")
	}
	for i := int64(1); i <= nv; i++ {
		if vOff[i] < vOff[i-1] {
			return nil, fmt.Errorf("graph: offset table not monotone at %d", i)
		}
	}
	vAdj, err := readChunkedInt32(br, ne)
	if err != nil {
		return nil, err
	}

	// Validate rows (ids in range, strictly sorted — the format's
	// invariant, which the enumeration kernels rely on) before the U side
	// is rebuilt from them.
	for v := int64(0); v < nv; v++ {
		row := vAdj[vOff[v]:vOff[v+1]]
		for i, u := range row {
			if u < 0 || int64(u) >= nu {
				return nil, fmt.Errorf("graph: binary adjacency id %d out of range", u)
			}
			if i > 0 && row[i-1] >= u {
				return nil, fmt.Errorf("graph: v=%d adjacency row not strictly sorted", v)
			}
		}
	}
	g := &Bipartite{nu: int(nu), nv: int(nv), vOff: vOff, vAdj: vAdj}
	g.uOff, g.uAdj = transpose(g.nu, vOff, vAdj)
	return g, nil
}

// readChunk is the maximum number of elements a single untrusted-length
// read allocates at once.
const readChunk = 1 << 18

func readChunkedInt64(r io.Reader, n int64) ([]int64, error) {
	out := make([]int64, 0, min(n, readChunk))
	for int64(len(out)) < n {
		c := min(n-int64(len(out)), readChunk)
		buf := make([]int64, c)
		if err := binary.Read(r, binary.LittleEndian, buf); err != nil {
			return nil, fmt.Errorf("graph: reading offset table: %w", err)
		}
		out = append(out, buf...)
	}
	return out, nil
}

func readChunkedInt32(r io.Reader, n int64) ([]int32, error) {
	out := make([]int32, 0, min(n, readChunk))
	for int64(len(out)) < n {
		c := min(n-int64(len(out)), readChunk)
		buf := make([]int32, c)
		if err := binary.Read(r, binary.LittleEndian, buf); err != nil {
			return nil, fmt.Errorf("graph: reading adjacency: %w", err)
		}
		out = append(out, buf...)
	}
	return out, nil
}

// WriteBinaryFile writes the binary cache format to path.
func (g *Bipartite) WriteBinaryFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteBinary(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadBinaryFile reads the binary cache format from path.
func ReadBinaryFile(path string) (*Bipartite, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := ReadBinary(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}
