package main

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"strconv"
	"strings"

	"repro/encodingapi"
	"repro/internal/bitset"
)

// problem is the benchmark's own copy of one constraint set: plain symbol
// indices, converted once from the generated input. The checker below
// works on this copy only, so a defect in the program's constraint types,
// verifier or text format cannot make a wrong answer pass.
type problem struct {
	names    []string
	faces    []face
	doms     [][2]int // big, small
	disjs    []disj
	exts     []ext
	dist2s   [][2]int
	nonFaces [][]int
}

type face struct{ members, dontCare []int }

type disj struct {
	parent   int
	children []int
}

type ext struct {
	parent int
	conj   [][]int
}

func (p *problem) n() int { return len(p.names) }

func members(s bitset.Set) []int {
	var out []int
	s.ForEach(func(e int) bool { out = append(out, e); return true })
	return out
}

// problemOf copies a constraint set into the benchmark's representation.
func problemOf(cs *encodingapi.Set) *problem {
	p := &problem{names: cs.Syms.Names()}
	for _, f := range cs.Faces {
		p.faces = append(p.faces, face{members(f.Members), members(f.DontCare)})
	}
	for _, d := range cs.Dominances {
		p.doms = append(p.doms, [2]int{d.Big, d.Small})
	}
	for _, d := range cs.Disjunctives {
		p.disjs = append(p.disjs, disj{d.Parent, append([]int(nil), d.Children...)})
	}
	for _, e := range cs.ExtDisjunctives {
		x := ext{parent: e.Parent}
		for _, c := range e.Conjunctions {
			x.conj = append(x.conj, append([]int(nil), c...))
		}
		p.exts = append(p.exts, x)
	}
	for _, d := range cs.Distance2s {
		p.dist2s = append(p.dist2s, [2]int{d.A, d.B})
	}
	for _, nf := range cs.NonFaces {
		p.nonFaces = append(p.nonFaces, members(nf.Members))
	}
	return p
}

// text renders the problem in the service's constraint language. The
// symbols line pins the index order; perm, when non-nil, reorders the
// constraint lines (a permuted repeat asks the same question).
func (p *problem) text(perm []int) string {
	var lines []string
	nm := func(xs []int) string {
		s := make([]string, len(xs))
		for i, x := range xs {
			s[i] = p.names[x]
		}
		return strings.Join(s, " ")
	}
	for _, f := range p.faces {
		l := "face " + nm(f.members)
		if len(f.dontCare) > 0 {
			l += " [ " + nm(f.dontCare) + " ]"
		}
		lines = append(lines, l)
	}
	for _, d := range p.doms {
		lines = append(lines, "dom "+p.names[d[0]]+" > "+p.names[d[1]])
	}
	for _, d := range p.disjs {
		lines = append(lines, "disj "+p.names[d.parent]+" = "+strings.ReplaceAll(nm(d.children), " ", " | "))
	}
	for _, e := range p.exts {
		var parts []string
		for _, c := range e.conj {
			parts = append(parts, "("+strings.ReplaceAll(nm(c), " ", " & ")+")")
		}
		lines = append(lines, "extdisj "+strings.Join(parts, " | ")+" >= "+p.names[e.parent])
	}
	for _, d := range p.dist2s {
		lines = append(lines, "dist2 "+p.names[d[0]]+" "+p.names[d[1]])
	}
	for _, nf := range p.nonFaces {
		lines = append(lines, "nonface "+nm(nf))
	}
	if perm != nil {
		out := make([]string, len(lines))
		for i, j := range perm[:len(lines)] {
			out[i] = lines[j]
		}
		lines = out
	}
	return "symbols " + strings.Join(p.names, " ") + "\n" + strings.Join(lines, "\n") + "\n"
}

// lineCount is the number of constraint lines text renders.
func (p *problem) lineCount() int {
	return len(p.faces) + len(p.doms) + len(p.disjs) + len(p.exts) + len(p.dist2s) + len(p.nonFaces)
}

// fingerprint identifies the problem for the reference table: a hash of
// the benchmark's own rendering, so a change to the input generator shows
// up as a reference that no longer applies rather than a wrong minimum.
func (p *problem) fingerprint() string {
	h := fnv.New64a()
	h.Write([]byte(p.text(nil)))
	return strconv.FormatUint(h.Sum64(), 16)
}

// minBits is ⌈log₂ n⌉, the width below which n codes cannot be distinct.
func minBits(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// span returns the smallest face holding every code in cs as the mask of
// positions on which they all agree and the value there.
func span(width int, cs []uint64) (mask, value uint64) {
	mask = uint64(1)<<uint(width) - 1
	for _, c := range cs[1:] {
		mask &^= c ^ cs[0]
	}
	return mask, cs[0] & mask
}

// checkCodes reports the first way codes fail to be distinct width-bit
// codes satisfying every constraint of p, or nil.
func checkCodes(p *problem, codes []uint64, width int) error {
	n := p.n()
	if len(codes) != n {
		return fmt.Errorf("%d codes for %d symbols", len(codes), n)
	}
	if width < 0 || width > 63 {
		return fmt.Errorf("width %d out of range", width)
	}
	seen := make(map[uint64]int, n)
	for i, c := range codes {
		if c>>uint(width) != 0 {
			return fmt.Errorf("code of %s wider than %d bits", p.names[i], width)
		}
		if j, dup := seen[c]; dup {
			return fmt.Errorf("%s and %s share a code", p.names[j], p.names[i])
		}
		seen[c] = i
	}
	pick := func(xs []int) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = codes[x]
		}
		return out
	}
	for fi, f := range p.faces {
		mask, val := span(width, pick(f.members))
		allowed := map[int]bool{}
		for _, s := range f.members {
			allowed[s] = true
		}
		for _, s := range f.dontCare {
			allowed[s] = true
		}
		for s, c := range codes {
			if !allowed[s] && c&mask == val {
				return fmt.Errorf("face %d: %s intrudes", fi, p.names[s])
			}
		}
	}
	for _, d := range p.doms {
		if codes[d[0]]&codes[d[1]] != codes[d[1]] {
			return fmt.Errorf("dominance %s > %s fails", p.names[d[0]], p.names[d[1]])
		}
	}
	for _, d := range p.disjs {
		var or uint64
		for _, c := range d.children {
			or |= codes[c]
		}
		if or != codes[d.parent] {
			return fmt.Errorf("disjunctive on %s fails", p.names[d.parent])
		}
	}
	for _, e := range p.exts {
		var or uint64
		for _, conj := range e.conj {
			and := ^uint64(0)
			for _, c := range conj {
				and &= codes[c]
			}
			or |= and
		}
		if or&codes[e.parent] != codes[e.parent] {
			return fmt.Errorf("extended disjunctive on %s fails", p.names[e.parent])
		}
	}
	for _, d := range p.dist2s {
		if bits.OnesCount64(codes[d[0]]^codes[d[1]]) < 2 {
			return fmt.Errorf("distance-2 %s %s fails", p.names[d[0]], p.names[d[1]])
		}
	}
	for fi, nf := range p.nonFaces {
		mask, val := span(width, pick(nf))
		in := map[int]bool{}
		for _, s := range nf {
			in[s] = true
		}
		ok := false
		for s, c := range codes {
			if !in[s] && c&mask == val {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("non-face %d: no outsider inside the face", fi)
		}
	}
	return nil
}

// faceViolations counts the face constraints codes violate: the figure the
// bounded-length heuristic reports as its cost.
func faceViolations(p *problem, codes []uint64, width int) int {
	q := &problem{names: p.names, faces: p.faces}
	v := 0
	for _, f := range p.faces {
		q.faces = []face{f}
		if checkCodes(q, codes, width) != nil {
			v++
		}
	}
	return v
}

// bounds are what an answer is held to besides validity.
type bounds struct {
	// witness is the width of the encoding the generator built the
	// constraints around; 0 when there is none.
	witness int
	// ref is the committed reference minimum, proven by both covering
	// backends; 0 when none applies to this input.
	ref int
}

// answer is one result as the program claimed it.
type answer struct {
	codes   []uint64
	width   int
	optimal bool
}

// checkAnswer holds a minimum-length answer to its constraints and bounds.
// A result not proven optimal must still be valid and no narrower than
// the proven minimum; it is counted as unproven by the caller, not failed.
func checkAnswer(p *problem, b bounds, a answer) error {
	if err := checkCodes(p, a.codes, a.width); err != nil {
		return err
	}
	if lo := minBits(p.n()); a.width < lo {
		return fmt.Errorf("%d bits below ⌈log₂ %d⌉ = %d", a.width, p.n(), lo)
	}
	if b.ref > 0 && a.width < b.ref {
		return fmt.Errorf("%d bits below the proven minimum %d", a.width, b.ref)
	}
	if !a.optimal {
		return nil
	}
	if b.witness > 0 && a.width > b.witness {
		return fmt.Errorf("claimed optimal at %d bits but the generator's witness has %d", a.width, b.witness)
	}
	if b.ref > 0 && a.width != b.ref {
		return fmt.Errorf("claimed optimal at %d bits but the reference minimum is %d", a.width, b.ref)
	}
	return nil
}

// parseCodes turns a symbol → binary-string map into codes in p's symbol
// order, the bit string read most-significant first.
func parseCodes(p *problem, m map[string]string, width int) ([]uint64, error) {
	codes := make([]uint64, p.n())
	for i, name := range p.names {
		s, ok := m[name]
		if !ok {
			return nil, fmt.Errorf("no code for %s", name)
		}
		if len(s) != width {
			return nil, fmt.Errorf("code %q of %s is not %d bits", s, name, width)
		}
		v, err := strconv.ParseUint(s, 2, 64)
		if width == 0 {
			v, err = 0, nil
		}
		if err != nil {
			return nil, fmt.Errorf("code of %s: %v", name, err)
		}
		codes[i] = v
	}
	if len(m) != p.n() {
		return nil, fmt.Errorf("%d codes for %d symbols", len(m), p.n())
	}
	return codes, nil
}

// codesOf extracts an encoding's codes.
func codesOf(e *encodingapi.Encoding) []uint64 {
	return append([]uint64(nil), e.Codes...)
}
