package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"

	"repro/encodingapi"
)

// layerOf maps a span name to the layer its self time is charged to. The
// pipeline's encode stage is charged to the strategy that ran in it (the
// stageLayer of profile.add); names not listed here keep their own name.
var layerOf = map[string]string{
	"core.seeds":           "dichotomy",
	"prime.generate":       "prime",
	"core.matrix":          "core.matrix",
	"core.clauses":         "core.matrix",
	"cover.solve":          "cover",
	"cover.binate":         "cover.binate",
	"decomp.component":     "decomp",
	"heuristic.restarts":   "heuristic",
	"heuristic.polish":     "heuristic",
	"espresso.primes":      "espresso",
	"pipeline.validate":    "pipeline",
	"pipeline.symbolic":    "mv",
	"pipeline.constraints": "mv",
	"pipeline.espresso":    "espresso",
	"pipeline.netlist":     "blif",
	"pipeline.verify":      "sim",
	// The benchmark's own spans around the replay check of traced synth
	// runs.
	"blif.parse": "blif",
	"sim.replay": "sim",
}

// profile accumulates one traced run: wall time, self time per layer and
// the counters the spans carry.
type profile struct {
	ops    int
	wallMS float64
	selfMS map[string]float64
	counts map[string]float64
}

func newProfile() *profile {
	return &profile{selfMS: map[string]float64{}, counts: map[string]float64{}}
}

// add charges one operation's spans. Every instant of the operation's wall
// time goes to the innermost spans open at that instant, split evenly when
// several run concurrently; instants no span covers go to residual, the
// layer known to run there without a span of its own ("" when unknown).
func (p *profile) add(t encodingapi.Trace, wall time.Duration, residual, stageLayer string) {
	p.ops++
	p.wallMS += ms(wall)
	type iv struct {
		layer      string
		start, end time.Duration
	}
	var spans []iv
	for _, s := range t.Spans {
		layer, ok := layerOf[s.Name]
		if !ok {
			layer = s.Name
		}
		if s.Name == "pipeline.encode" {
			layer = stageLayer
		}
		a, b := s.Start, s.Start+s.Dur
		if a < 0 {
			a = 0
		}
		if b > wall {
			b = wall
		}
		if b > a {
			spans = append(spans, iv{layer, a, b})
		}
		p.count(s)
	}
	cuts := []time.Duration{0, wall}
	for _, s := range spans {
		cuts = append(cuts, s.start, s.end)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	// contains reports whether span i encloses span j; of two identical
	// intervals the later-committed one is the outer (spans commit at End).
	contains := func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.start > b.start || a.end < b.end {
			return false
		}
		if a.start == b.start && a.end == b.end {
			return i > j
		}
		return true
	}
	for k := 1; k < len(cuts); k++ {
		lo, hi := cuts[k-1], cuts[k]
		if hi <= lo {
			continue
		}
		var active []int
		for i, s := range spans {
			if s.start <= lo && s.end >= hi {
				active = append(active, i)
			}
		}
		var leaves []int
		for _, i := range active {
			leaf := true
			for _, j := range active {
				if i != j && contains(i, j) {
					leaf = false
					break
				}
			}
			if leaf {
				leaves = append(leaves, i)
			}
		}
		d := ms(hi - lo)
		if len(leaves) == 0 {
			p.selfMS[residual] += d
			continue
		}
		for _, i := range leaves {
			p.selfMS[spans[i].layer] += d / float64(len(leaves))
		}
	}
}

// count folds a span's attributes into the run's counters.
func (p *profile) count(s encodingapi.TraceSpan) {
	attr := func(k string) float64 {
		v, _ := s.Attr(k)
		return float64(v)
	}
	switch s.Name {
	case "core.seeds":
		p.counts["dichotomy.raised"] += attr("raised")
	case "prime.generate":
		p.counts["prime.primes"] += attr("primes")
		p.counts["prime.limit_hits"] += attr("failed")
	case "core.matrix":
		p.counts["core.matrix_cells"] += attr("rows") * attr("candidates")
	case "cover.solve", "cover.binate":
		p.counts["cover.nodes"] += attr("nodes")
		if v, ok := s.Attr("optimal"); ok && v == 0 && attr("failed") == 0 {
			p.counts["cover.budget_hits"]++
		}
	case "decomp.component":
		p.counts["decomp.components"]++
	}
}

// namedShare is the share of wall time charged to a named layer.
func (p *profile) namedShare() float64 {
	if p.wallMS == 0 {
		return 0
	}
	return 1 - p.selfMS[""]/p.wallMS
}

// cpuTime is the CPU time the process has used, user and system.
func cpuTime() time.Duration {
	var r syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &r); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(r.Utime.Nano() + r.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
