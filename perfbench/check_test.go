package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/encodingapi"
	"repro/internal/gen"
	"repro/internal/pipeline"
)

// paper is the worked example of the encode tool's documentation: four
// symbols in two bits, so every code point is used.
const paper = `symbols a b c d
face b c
face c d
face b a
face a d
dom b > c
dom a > c
disj a = b | d
`

func solved(t *testing.T, cs *encodingapi.Set) (*problem, answer) {
	t.Helper()
	res, err := encodingapi.ExactEncode(context.Background(), cs, encodingapi.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := answer{codes: codesOf(res.Encoding), width: res.Encoding.Bits, optimal: res.Optimal}
	p := problemOf(cs)
	if err := checkAnswer(p, bounds{}, a); err != nil {
		t.Fatalf("checker rejects the solver's answer: %v", err)
	}
	return p, a
}

func flipped(a answer, sym, bit int) answer {
	b := a
	b.codes = append([]uint64(nil), a.codes...)
	b.codes[sym] ^= 1 << uint(bit)
	return b
}

func TestRejectsOneBitFlip(t *testing.T) {
	p, a := solved(t, encodingapi.MustParse(paper))
	for s := range a.codes {
		for bit := 0; bit < a.width; bit++ {
			if checkAnswer(p, bounds{}, flipped(a, s, bit)) == nil {
				t.Errorf("flipping bit %d of %s's code was accepted", bit, p.names[s])
			}
		}
	}
}

// TestAgreesWithVerifyOnFlips holds the checker to the program's own
// verifier, used here only as a second opinion: on every one-bit flip of
// solved random sets of every constraint class both must give the same
// verdict, and most flips must be rejected.
func TestAgreesWithVerifyOnFlips(t *testing.T) {
	rejected, total := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		cfg := gen.DefaultConfig(6 + int(seed)%4)
		if seed%2 == 0 {
			cfg.Distance2s, cfg.NonFaces = 1, 1
		}
		g := gen.Random(seed, cfg)
		res, err := encodingapi.ExactEncodeExtended(context.Background(), g.Set, encodingapi.ExactOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p := problemOf(g.Set)
		a := answer{codes: codesOf(res.Encoding), width: res.Encoding.Bits}
		if err := checkCodes(p, a.codes, a.width); err != nil {
			t.Fatalf("seed %d: checker rejects the solver's answer: %v", seed, err)
		}
		for s := range a.codes {
			for bit := 0; bit < a.width; bit++ {
				f := flipped(a, s, bit)
				mine := checkCodes(p, f.codes, f.width) == nil
				enc := *res.Encoding
				enc.Codes = f.codes
				theirs := len(encodingapi.Verify(g.Set, &enc)) == 0
				if mine != theirs {
					t.Errorf("seed %d flip %d/%d: checker says valid=%v, Verify says %v", seed, s, bit, mine, theirs)
				}
				total++
				if !mine {
					rejected++
				}
			}
		}
	}
	if rejected*2 < total {
		t.Errorf("only %d of %d flips rejected", rejected, total)
	}
}

func TestRejectsDuplicateCodes(t *testing.T) {
	p, a := solved(t, encodingapi.MustParse(paper))
	a.codes[1] = a.codes[0]
	if err := checkAnswer(p, bounds{}, a); err == nil || !strings.Contains(err.Error(), "share a code") {
		t.Fatalf("duplicate codes: got %v", err)
	}
}

// padded adds a constant-zero high bit: still valid, one bit wider.
func padded(a answer) answer {
	a.width++
	return a
}

func TestWidthAgainstReference(t *testing.T) {
	p, a := solved(t, encodingapi.MustParse(paper))
	// An answer narrower than the proven minimum cannot be right, claimed
	// optimal or not.
	for _, opt := range []bool{true, false} {
		a.optimal = opt
		if checkAnswer(p, bounds{ref: a.width + 1}, a) == nil {
			t.Errorf("width %d below reference %d accepted (optimal=%v)", a.width, a.width+1, opt)
		}
	}
	// Below ⌈log₂ n⌉ is rejected with no reference at all.
	a.width, a.optimal = 1, true
	if checkAnswer(p, bounds{}, a) == nil {
		t.Error("width below ⌈log₂ n⌉ accepted")
	}
}

func TestRejectsUnprovenClaimedOptimal(t *testing.T) {
	p, a := solved(t, encodingapi.MustParse(paper))
	wide := padded(a)
	if err := checkCodes(p, wide.codes, wide.width); err != nil {
		t.Fatalf("padded answer invalid: %v", err)
	}
	wide.optimal = true
	if checkAnswer(p, bounds{ref: a.width}, wide) == nil {
		t.Error("a wider-than-minimum answer claimed optimal was accepted against the reference")
	}
	if checkAnswer(p, bounds{witness: a.width}, wide) == nil {
		t.Error("a wider-than-witness answer claimed optimal was accepted")
	}
	// The same answer without the claim is a valid, unproven result.
	wide.optimal = false
	if err := checkAnswer(p, bounds{ref: a.width, witness: a.width}, wide); err != nil {
		t.Errorf("unproven valid answer rejected: %v", err)
	}
}

func TestRejectsFailedReplay(t *testing.T) {
	cfg := gen.DefaultFSMConfig(6)
	m := gen.RandomFSM(3, cfg)
	r, err := pipeline.Run(context.Background(), m, pipeline.Options{Strategy: pipeline.Exact})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReport(r, m.NumStates(), 0); err != nil {
		t.Fatalf("good report rejected: %v", err)
	}
	bad := *r
	bad.Replay = &pipeline.ReplayResult{Error: "sim: sequence 0 step 3: netlist outputs 01, machine 00"}
	if checkReport(&bad, m.NumStates(), 0) == nil {
		t.Error("report with a failed replay accepted")
	}
	bad.Replay = nil
	if checkReport(&bad, m.NumStates(), 0) == nil {
		t.Error("report with no replay accepted")
	}
	bad = *r
	bad.Violations = 1
	if checkReport(&bad, m.NumStates(), 0) == nil {
		t.Error("exact report with a face violation accepted")
	}
	bad = *r
	bad.Codes = map[string]string{}
	for k := range r.Codes {
		bad.Codes[k] = strings.Repeat("0", r.Bits)
	}
	if checkReport(&bad, m.NumStates(), 0) == nil {
		t.Error("report with duplicate codes accepted")
	}
	if checkReport(r, m.NumStates(), r.Bits+1) == nil {
		t.Error("report narrower than the reference accepted")
	}
}

// TestTextRoundTrip checks the benchmark's own rendering against the
// program's parser, so that the service is asked the question the checker
// holds its answer to, and that server-style code strings decode back.
func TestTextRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		cfg := gen.DefaultConfig(9)
		cfg.Distance2s, cfg.NonFaces = 1, 1
		p := problemOf(gen.Random(seed, cfg).Set)
		cs, err := encodingapi.ParseString(p.text(nil))
		if err != nil {
			t.Fatal(err)
		}
		if q := problemOf(cs); q.fingerprint() != p.fingerprint() {
			t.Fatalf("seed %d: rendering does not round-trip:\n%s\n%s", seed, p.text(nil), q.text(nil))
		}
	}
	cs := encodingapi.MustParse(paper)
	res, err := encodingapi.ExactEncode(context.Background(), cs, encodingapi.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := problemOf(cs)
	m := map[string]string{}
	for i, n := range p.names {
		m[n] = res.Encoding.CodeString(i)
	}
	codes, err := parseCodes(p, m, res.Encoding.Bits)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range codes {
		if c != res.Encoding.Codes[i] {
			t.Fatalf("code of %s decoded as %b, want %b", p.names[i], c, res.Encoding.Codes[i])
		}
	}
}

func TestSelfTimeAttribution(t *testing.T) {
	sp := func(name string, start, dur time.Duration) encodingapi.TraceSpan {
		return encodingapi.TraceSpan{Name: name, Start: start * time.Millisecond, Dur: dur * time.Millisecond}
	}
	p := newProfile()
	// 0–100 ms of wall: a component span 10–90 holding two concurrent
	// cover solves, 20–60 and 40–80; 0–10 and 90–100 are unspanned.
	p.add(encodingapi.Trace{Spans: []encodingapi.TraceSpan{
		sp("cover.solve", 20, 40), sp("cover.solve", 40, 40), sp("decomp.component", 10, 80),
	}}, 100*time.Millisecond, "", "")
	want := map[string]float64{"": 20, "decomp": 20, "cover": 60}
	for k, v := range want {
		if got := p.selfMS[k]; got < v-1e-9 || got > v+1e-9 {
			t.Errorf("self time of %q = %v ms, want %v", k, got, v)
		}
	}
	if s := p.namedShare(); s < 0.8-1e-9 || s > 0.8+1e-9 {
		t.Errorf("named share %v, want 0.8", s)
	}
}

// TestServeSmoke drives the in-process service through both load
// generators and the traced read-back; every reply must pass its check.
func TestServeSmoke(t *testing.T) {
	r := serveRun()
	if err := r.setup(1); err != nil {
		t.Fatal(err)
	}
	defer r.close()
	rep, err := r.measure(2*time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("%d of %d requests failed; first: %v", rep.failed, rep.attempted, rep.firstErr)
	}
	rep, err = r.measure(2*time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("traced: %d of %d requests failed; first: %v", rep.failed, rep.attempted, rep.firstErr)
	}
	if rep.layers["server.solve_ms"] <= 0 || rep.layers["server.cache_hit_share"] <= 0 {
		t.Errorf("traced run read no server traces or stats: %v", rep.layers)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metrics the benchmark prints
// and the ones BENCHMARK.json declares the same, name for name and unit for
// unit.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, declared []struct{ Name, Unit string }, printed []struct{ name, unit string }) {
		if len(declared) != len(printed) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", what, len(declared), len(printed))
		}
		for i, d := range declared {
			if d.Name != printed[i].name || d.Unit != printed[i].unit {
				t.Errorf("%s %d: declared %s (%s), printed %s (%s)", what, i, d.Name, d.Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
