package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime/metrics"
	"strings"
	"time"

	"repro/encodingapi"
	"repro/internal/blif"
	"repro/internal/corpus"
	"repro/internal/fsm"
	"repro/internal/gen"
	"repro/internal/mv"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// outcome is what one library operation produced, as judged by the
// benchmark's own checker.
type outcome struct {
	err      error
	unproven bool
	// residual names the layer known to run, without a span of its own,
	// in time the recorded spans leave uncovered ("" when none is).
	residual string
	// stage is the layer charged with the pipeline's encode stage.
	stage                     string
	literals, cubes, rawCubes int
}

// libOp is one call into a library layer. rec is nil on untraced runs;
// traced runs pass the recorder ctx carries so the benchmark can add
// spans of its own around public calls.
type libOp func(ctx context.Context, rec *encodingapi.TraceRecorder) outcome

// instance is one generated constraint set with everything its answer is
// checked against.
type instance struct {
	label     string
	set       *encodingapi.Set
	prob      *problem
	bnd       bounds
	extended  bool
	decompose bool
}

// slice is one family of generated instances.
type slice struct {
	name      string
	ns        []int
	count     int
	extended  bool
	decompose bool
	// fixed draws the slice from the default seed on every run: its solve
	// times are so heavy-tailed (one instance can take seconds) that a
	// per-seed draw would make every timing a lottery over how many such
	// instances came up.
	fixed bool
	// components, when non-zero, makes multi-component sets: n symbols
	// in that many disjoint groups.
	components map[int]int
}

// genSeed derives a per-instance generator seed from the workload seed.
func genSeed(seed int64, slice, i int) int64 {
	return seed*1_000_003 + int64(slice)*100_003 + int64(i)
}

func genInstances(seed int64, slices []slice, refs map[string]int) []*instance {
	var out []*instance
	for si, sl := range slices {
		for i := 0; i < sl.count; i++ {
			n := sl.ns[i%len(sl.ns)]
			cfg := gen.DefaultConfig(n)
			if sl.extended {
				cfg.Distance2s, cfg.NonFaces = 2, 1
			}
			cfg.Components = sl.components[n]
			s := seed
			if sl.fixed {
				s = defaultSeed
			}
			g := gen.Random(genSeed(s, si, i), cfg)
			p := problemOf(g.Set)
			out = append(out, &instance{
				label:     fmt.Sprintf("%s/n%d/%d", sl.name, n, i),
				set:       g.Set,
				prob:      p,
				bnd:       bounds{witness: g.Witness.Bits, ref: refs[p.fingerprint()]},
				extended:  sl.extended,
				decompose: sl.decompose,
			})
		}
	}
	return out
}

// corpusSets derives the constraint sets the pipeline's exact strategy
// solves for the corpus machines: faces plus output constraints.
func corpusSets(machines []corpus.Machine, skip map[string]bool, refs map[string]int) []*instance {
	var out []*instance
	for _, m := range machines {
		if skip[m.Name] {
			continue
		}
		sc := mv.Cover(m.FSM)
		sc.Minimize()
		cs := encodingapi.NewSet(m.FSM.States)
		sc.FaceConstraints(cs)
		sc.OutputConstraints(cs, mv.OutputOptions{})
		p := problemOf(cs)
		out = append(out, &instance{
			label: "corpus/" + m.Name,
			set:   cs,
			prob:  p,
			bnd:   bounds{ref: refs[p.fingerprint()]},
		})
	}
	return out
}

// exactOp solves one instance with the given covering backend and checks
// the answer.
func exactOp(in *instance, backend encodingapi.Backend) libOp {
	residual := ""
	if backend == encodingapi.BackendSAT {
		// The SAT layer records no span: the time the spans leave
		// uncovered in a SAT solve is its search.
		residual = "sat"
	}
	return func(ctx context.Context, _ *encodingapi.TraceRecorder) outcome {
		opts := encodingapi.ExactOptions{Backend: backend, Decompose: in.decompose}
		var res *encodingapi.ExactResult
		var err error
		if in.extended {
			res, err = encodingapi.ExactEncodeExtended(ctx, in.set, opts)
		} else {
			res, err = encodingapi.ExactEncode(ctx, in.set, opts)
		}
		if err != nil {
			return outcome{err: fmt.Errorf("%s: %w", in.label, err)}
		}
		a := answer{codes: codesOf(res.Encoding), width: res.Encoding.Bits, optimal: res.Optimal}
		if err := checkAnswer(in.prob, in.bnd, a); err != nil {
			return outcome{err: fmt.Errorf("%s: %w", in.label, err)}
		}
		return outcome{unproven: !res.Optimal, residual: residual}
	}
}

// machine is one synthesis input with its reference minimum width.
type machine struct {
	label string
	m     *fsm.FSM
	ref   int
}

// fingerprintFSM hashes the benchmark's own rendering of a machine.
func fingerprintFSM(m *fsm.FSM) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d %s\n", m.NumInputs, m.NumOutputs, m.Reset, strings.Join(m.States.Names(), " "))
	for _, t := range m.Trans {
		fmt.Fprintf(h, "%s %d %d %s\n", t.In, t.From, t.To, t.Out)
	}
	return fmt.Sprintf("fsm-%x", h.Sum64())
}

// checkReport holds one pipeline report to what a correct synthesis must
// show: a netlist whose replay matched the machine, distinct codes of the
// reported width, no violated face under the exact strategy, and the
// reference minimum width for a claimed optimum.
func checkReport(r *pipeline.Report, states, ref int) error {
	if r.Replay == nil || !r.Replay.OK {
		msg := "skipped"
		if r.Replay != nil {
			msg = r.Replay.Error
		}
		return fmt.Errorf("replay did not pass: %s", msg)
	}
	exact := r.Strategy == string(pipeline.Exact) || r.Strategy == string(pipeline.Sat)
	if exact && r.Violations != 0 {
		return fmt.Errorf("exact strategy left %d face violations", r.Violations)
	}
	if len(r.Codes) != states {
		return fmt.Errorf("%d codes for %d states", len(r.Codes), states)
	}
	seen := map[string]bool{}
	for s, c := range r.Codes {
		if len(c) != r.Bits || strings.Trim(c, "01") != "" {
			return fmt.Errorf("code %q of %s is not %d bits", c, s, r.Bits)
		}
		if seen[c] {
			return fmt.Errorf("code %s used twice", c)
		}
		seen[c] = true
	}
	if lo := minBits(states); r.Bits < lo {
		return fmt.Errorf("%d bits below ⌈log₂ %d⌉", r.Bits, states)
	}
	if exact && ref > 0 && (r.Bits < ref || r.Optimal && r.Bits != ref) {
		return fmt.Errorf("%d bits (optimal=%v) against the reference minimum %d", r.Bits, r.Optimal, ref)
	}
	return nil
}

// synthOp runs one machine through the pipeline. On traced runs the
// replay check is made by the benchmark itself, around its own spans, so
// that netlist parsing and simulation are timed apart.
func synthOp(mc *machine, strategy pipeline.Strategy) libOp {
	stage := map[pipeline.Strategy]string{
		pipeline.Exact:     "core",
		pipeline.Heuristic: "heuristic",
		pipeline.Nova:      "nova",
	}[strategy]
	return func(ctx context.Context, rec *encodingapi.TraceRecorder) outcome {
		opts := pipeline.Options{Strategy: strategy, SkipVerify: rec != nil}
		r, err := pipeline.Run(ctx, mc.m, opts)
		if err != nil {
			return outcome{err: fmt.Errorf("%s/%s: %w", mc.label, strategy, err)}
		}
		if rec != nil {
			r.Replay = &pipeline.ReplayResult{OK: true}
			sp := rec.StartSpan("blif.parse")
			nl, err := blif.ParseString(r.BLIF)
			sp.End()
			if err == nil {
				sp = rec.StartSpan("sim.replay")
				err = sim.ReplayNetlist(mc.m, nl, pipeline.DefaultVerifySequences, pipeline.DefaultVerifyLength, 1)
				sp.End()
			}
			if err != nil {
				r.Replay = &pipeline.ReplayResult{Error: err.Error()}
			}
		}
		if err := checkReport(r, mc.m.NumStates(), mc.ref); err != nil {
			return outcome{err: fmt.Errorf("%s/%s: %w", mc.label, strategy, err)}
		}
		return outcome{stage: stage, literals: r.Literals, cubes: r.Cubes, rawCubes: r.RawCubes}
	}
}

// loadMachines reads the corpus and draws count random machines whose
// sizes cycle through 6–11 states, each size as often complete as
// partially specified, so that the seed changes the machines but not the
// mix of sizes. Random 12-state machines are left out: about one in six
// runs the exact cover into its node budget for 4–6 s, which would make
// synth a second exact workload; exact measures that case.
func loadMachines(seed int64, count int, refs map[string]int) ([]*machine, error) {
	cm, err := corpus.Load(corpus.DefaultDir)
	if err != nil {
		return nil, err
	}
	var out []*machine
	for _, m := range cm {
		out = append(out, &machine{label: "corpus/" + m.Name, m: m.FSM, ref: refs[fingerprintFSM(m.FSM)]})
	}
	for i := 0; i < count; i++ {
		cfg := gen.DefaultFSMConfig(6 + i%6)
		cfg.Partial = i/6%2 == 1
		m := gen.RandomFSM(genSeed(seed, 99, i), cfg)
		out = append(out, &machine{label: m.Name, m: m, ref: refs[fingerprintFSM(m)]})
	}
	return out, nil
}

// loopStats is what one closed-loop run measured. Per-operation figures
// are each operation's median over its calls, so that a stall that hits
// one call does not move them.
type loopStats struct {
	latMS, cpuMS, allocMB       []float64
	attempted, failed, unproven int
	// literals and cubes total the first pass over the inputs.
	literals, cubes, rawCubes int
	firstErr                  error
	prof                      *profile
	// tracedMS and plainMS pair each traced call with an untraced call of
	// the same operation, for the tracing overhead.
	tracedMS, plainMS float64
}

// longShare sets which operations are called only once: those whose
// first call took more than 1/longShare of the run. They are long enough
// for one call to be a steady figure, and repeating them would leave the
// short ones too few calls.
const longShare = 20

// closedLoop calls ops in turn, one caller waiting for each reply: first
// every operation once, then, in passes until d has passed, every
// operation shorter than d/longShare again. Only the calls are timed;
// checking is not. Failures count on every call; unproven results,
// quality totals and, on traced runs, the per-layer profile come from the
// first pass, which holds each operation once. A traced run calls each
// operation of the first pass twice, untraced and then traced.
func closedLoop(ops []libOp, d time.Duration, traced bool) loopStats {
	st := loopStats{prof: newProfile()}
	lat := make([][]float64, len(ops))
	cpu := make([][]float64, len(ops))
	alloc := make([][]float64, len(ops))
	call := func(i int, first bool) time.Duration {
		ctx := context.Background()
		a0, c0, t0 := allocated(), cpuTime(), time.Now()
		out := ops[i](ctx, nil)
		l := time.Since(t0)
		cpu[i] = append(cpu[i], ms(cpuTime()-c0))
		alloc[i] = append(alloc[i], float64(allocated()-a0)/1e6)
		lat[i] = append(lat[i], ms(l))
		if traced && first {
			tctx, rec := encodingapi.StartTrace(ctx)
			t1 := time.Now()
			tout := ops[i](tctx, rec)
			tl := time.Since(t1)
			st.plainMS += ms(l)
			st.tracedMS += ms(tl)
			st.prof.add(rec.Snapshot(), tl, tout.residual, tout.stage)
			if out.err == nil {
				out = tout
			}
		}
		st.attempted++
		if out.err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = out.err
			}
		}
		if first {
			if out.unproven {
				st.unproven++
			}
			st.literals += out.literals
			st.cubes += out.cubes
			st.rawCubes += out.rawCubes
		}
		return l
	}
	end := time.Now().Add(d)
	var again []int
	for i := range ops {
		if call(i, true) <= d/longShare {
			again = append(again, i)
		}
	}
	for len(again) > 0 && time.Now().Before(end) {
		for _, i := range again {
			if !time.Now().Before(end) {
				break
			}
			call(i, false)
		}
	}
	for i := range ops {
		st.latMS = append(st.latMS, median(lat[i]))
		st.cpuMS = append(st.cpuMS, median(cpu[i]))
		st.allocMB = append(st.allocMB, median(alloc[i]))
	}
	return st
}

// allocated is the number of bytes the process has allocated so far.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
