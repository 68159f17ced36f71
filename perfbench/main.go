// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time from a single process, checks every output
// with its own checker, and prints one JSON result line last:
//
//	go run . --workload exact --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate traced run reports each layer's self time, its
// counters and the tracing overhead. perfbench/run.sh builds and runs it
// from the repository root. README.md in this directory describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/encodingapi"
	"repro/internal/corpus"
	"repro/internal/pipeline"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one workload run: set-up builds the inputs, measure uses them.
type run struct {
	setup   func(seed int64) error
	measure func(d time.Duration, traced bool) (*report, error)
	close   func()
}

// report is what a measurement hands back for printing.
type report struct {
	attempted, failed int
	firstErr          error
	e2e               map[string]float64
	layers            map[string]float64
}

// setupRuns is how many times set-up runs; setup_s is their median. Each
// starts from a collected heap, so that one set-up does not pay for the
// garbage of the one before.
const setupRuns = 9

// Slices of generated constraint sets. Counts are sized so that a
// 25-second run calls each short one about five times.
var (
	exactSlices = []slice{
		{name: "unate", ns: []int{10, 11}, count: 120},
		{name: "unate", ns: []int{12, 13}, count: 40, fixed: true},
		{name: "extended", ns: []int{7}, count: 40, extended: true, fixed: true},
		{name: "multi", ns: []int{16, 24}, count: 40, decompose: true,
			components: map[int]int{16: 5, 24: 8}},
	}
	// Every sat slice is drawn from the default seed, so the seed sets only
	// the order: SAT solve times are heavy-tailed even at n=8, and a
	// per-seed draw moved CPU time per operation by 11–13 % between seeds.
	satSlices = []slice{
		{name: "unate", ns: []int{8}, count: 160, fixed: true},
		{name: "unate", ns: []int{9, 10}, count: 40, fixed: true},
		{name: "extended", ns: []int{7}, count: 80, extended: true, fixed: true},
		{name: "extended", ns: []int{8, 9}, count: 20, extended: true, fixed: true},
	}
	// satSkip names the corpus machines whose constraint sets the SAT
	// backend needs 10 s or more for: one of them alone would outlast a
	// run.
	satSkip = map[string]bool{"syn10": true, "syn12": true}
	// synthRandom is how many random machines join the corpus in synth.
	synthRandom = 144
)

// libRun is a library workload: build makes its operations from the seed,
// which then run in a seeded order.
func libRun(build func(seed int64, refs map[string]int) ([]libOp, error)) *run {
	var ops []libOp
	r := &run{close: func() {}}
	r.setup = func(seed int64) error {
		var err error
		if ops, err = build(seed, references()); err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		return nil
	}
	r.measure = func(d time.Duration, traced bool) (*report, error) {
		return libReport(closedLoop(ops, d, traced), traced), nil
	}
	return r
}

func exactRun(backend encodingapi.Backend, slices []slice, withCorpus bool) *run {
	return libRun(func(seed int64, refs map[string]int) ([]libOp, error) {
		insts := genInstances(seed, slices, refs)
		if withCorpus {
			cm, err := corpus.Load(corpus.DefaultDir)
			if err != nil {
				return nil, err
			}
			insts = append(insts, corpusSets(cm, satSkip, refs)...)
		}
		var ops []libOp
		for _, in := range insts {
			ops = append(ops, exactOp(in, backend))
		}
		return ops, nil
	})
}

func synthRun() *run {
	return libRun(func(seed int64, refs map[string]int) ([]libOp, error) {
		ms, err := loadMachines(seed, synthRandom, refs)
		if err != nil {
			return nil, err
		}
		var ops []libOp
		for _, m := range ms {
			for _, s := range []pipeline.Strategy{pipeline.Exact, pipeline.Heuristic, pipeline.Nova} {
				ops = append(ops, synthOp(m, s))
			}
		}
		return ops, nil
	})
}

// libReport turns a closed-loop run into metrics.
func libReport(st loopStats, traced bool) *report {
	rep := &report{attempted: st.attempted, failed: st.failed, firstErr: st.firstErr}
	n := float64(len(st.latMS))
	sum := func(xs []float64) float64 {
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t
	}
	rep.e2e = map[string]float64{
		"ops_per_s":       1000 * n / sum(st.latMS),
		"p50_ms":          quantile(st.latMS, 0.5),
		"p90_ms":          quantile(st.latMS, 0.9),
		"cpu_ms_per_op":   sum(st.cpuMS) / n,
		"alloc_mb_per_op": sum(st.allocMB) / n,
	}
	if !traced {
		return rep
	}
	p := st.prof
	perOp := func(x float64) float64 { return x / float64(p.ops) }
	rep.layers = map[string]float64{
		"unproven_share":       float64(st.unproven) / n,
		"synth.literals_total": float64(st.literals),
		"synth.cubes_total":    float64(st.cubes),
		"trace.named_share":    p.namedShare(),
		"trace.overhead_share": st.tracedMS/st.plainMS - 1,
		"cover.ms":             perOp(p.selfMS["cover"] + p.selfMS["cover.binate"]),
		"cover.binate_ms":      perOp(p.selfMS["cover.binate"]),
		"cover.budget_hits":    p.counts["cover.budget_hits"],
		"cover.nodes":          perOp(p.counts["cover.nodes"]),
		"prime.limit_hits":     p.counts["prime.limit_hits"],
		"prime.primes":         perOp(p.counts["prime.primes"]),
		"dichotomy.raised":     perOp(p.counts["dichotomy.raised"]),
		"core.matrix_cells":    perOp(p.counts["core.matrix_cells"]),
		"decomp.components":    perOp(p.counts["decomp.components"]),
	}
	if st.rawCubes > 0 {
		rep.layers["espresso.cube_ratio"] = float64(st.cubes) / float64(st.rawCubes)
	}
	for _, l := range []string{"dichotomy", "prime", "core", "decomp", "sat", "mv", "espresso",
		"blif", "sim", "heuristic", "nova", "pipeline"} {
		rep.layers[l+".ms"] = perOp(p.selfMS[l])
	}
	rep.layers["core.matrix_ms"] = perOp(p.selfMS["core.matrix"])
	rep.layers["unattributed.ms"] = perOp(p.selfMS[""])
	return rep
}

// endToEnd lists the end-to-end metrics and their units; every workload
// reports each of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: exact, sat, synth or serve")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 25, "how long the run measures, in seconds")
		traced   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead")
		mkref    = flag.Bool("mkref", false, "print the reference minima for the default seed and exit")
	)
	flag.Parse()
	if *mkref {
		if err := makeReferences(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := benchmark(*workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newRun(workload string) (*run, error) {
	switch workload {
	case "exact":
		return exactRun(encodingapi.BackendBranchBound, exactSlices, false), nil
	case "sat":
		return exactRun(encodingapi.BackendSAT, satSlices, true), nil
	case "synth":
		return synthRun(), nil
	case "serve":
		return serveRun(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want exact, sat, synth or serve)", workload)
}

func benchmark(workload string, seed int64, d time.Duration, traced bool) error {
	if d <= 0 {
		return errors.New("--seconds must be positive")
	}
	r, err := newRun(workload)
	if err != nil {
		return err
	}
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			r.close()
		}
		runtime.GC()
		t0 := time.Now()
		if err := r.setup(seed); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()
	rep, err := r.measure(d, traced)
	if err != nil {
		return err
	}
	if rep.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n", rep.failed, rep.attempted, rep.firstErr)
	}
	out := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	if traced {
		for _, m := range perLayer {
			out.Metrics[m.name] = metric{rep.layers[m.name], m.unit}
		}
	} else {
		rep.e2e["setup_s"] = median(setups)
		for _, m := range endToEnd {
			out.Metrics[m.name] = metric{rep.e2e[m.name], m.unit}
		}
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.4f %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
