package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/encodingapi"
	"repro/internal/corpus"
	"repro/internal/pipeline"
)

// refTimeLimit bounds each reference solve; a width not proven within it
// gets no reference.
const refTimeLimit = 60 * time.Second

// defaultSeed is the seed the reference minima were computed for.
const defaultSeed = 1

//go:embed reference.json
var referenceJSON []byte

// referenceFile maps an input's fingerprint to its minimum code width.
// Only widths both covering backends proved optimal are listed, so a
// claimed optimum that disagrees is wrong whichever backend made it.
type referenceFile struct {
	Note    string         `json:"note"`
	Seed    int64          `json:"seed"`
	Minimum map[string]int `json:"minimum"`
}

func references() map[string]int {
	var f referenceFile
	if err := json.Unmarshal(referenceJSON, &f); err != nil {
		panic(fmt.Sprintf("perfbench: reference.json: %v", err))
	}
	return f.Minimum
}

// makeReferences solves every default-seed input of the exact, sat and
// synth workloads that has no reference yet with both covering backends,
// and writes the references with the widths both proved optimal added. A
// disagreement between the backends is an error.
func makeReferences(w io.Writer) error {
	ctx := context.Background()
	f := referenceFile{
		Note:    "minimum code widths proven optimal by both covering backends; regenerate with: go run . -mkref > new.json && mv new.json reference.json",
		Seed:    defaultSeed,
		Minimum: references(),
	}
	cm, err := corpus.Load(corpus.DefaultDir)
	if err != nil {
		return err
	}
	var insts []*instance
	insts = append(insts, genInstances(defaultSeed, exactSlices, nil)...)
	insts = append(insts, genInstances(defaultSeed, satSlices, nil)...)
	insts = append(insts, corpusSets(cm, nil, nil)...)
	for _, in := range insts {
		if _, ok := f.Minimum[in.prob.fingerprint()]; ok {
			continue
		}
		var widths []int
		for _, b := range []encodingapi.Backend{encodingapi.BackendBranchBound, encodingapi.BackendSAT} {
			opts := encodingapi.ExactOptions{Backend: b, Decompose: in.decompose}
			opts.TimeLimit = refTimeLimit
			solve := encodingapi.ExactEncode
			if in.extended {
				solve = encodingapi.ExactEncodeExtended
			}
			res, err := solve(ctx, in.set, opts)
			if err != nil {
				return fmt.Errorf("%s: %w", in.label, err)
			}
			if err := checkCodes(in.prob, codesOf(res.Encoding), res.Encoding.Bits); err != nil {
				return fmt.Errorf("%s: %w", in.label, err)
			}
			if res.Optimal {
				widths = append(widths, res.Encoding.Bits)
			}
		}
		fmt.Fprintf(os.Stderr, "%s: %v\n", in.label, widths)
		if w := in.bnd.witness; w > 0 && len(widths) > 0 && widths[0] > w {
			// Both backends share the prime pool; the generator's witness
			// is independent of it.
			fmt.Fprintf(os.Stderr, "%s: proven width %d exceeds the witness's %d; no reference\n", in.label, widths[0], w)
			continue
		}
		if err := agree(f.Minimum, in.prob.fingerprint(), in.label, widths); err != nil {
			return err
		}
	}
	ms, err := loadMachines(defaultSeed, synthRandom, nil)
	if err != nil {
		return err
	}
	for _, mc := range ms {
		if _, ok := f.Minimum[fingerprintFSM(mc.m)]; ok {
			continue
		}
		var widths []int
		for _, s := range []pipeline.Strategy{pipeline.Exact, pipeline.Sat} {
			opts := pipeline.Options{Strategy: s, SkipVerify: true}
			opts.Parallelism.TimeLimit = refTimeLimit
			r, err := pipeline.Run(ctx, mc.m, opts)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", mc.label, s, err)
			}
			if r.Optimal {
				widths = append(widths, r.Bits)
			}
		}
		if err := agree(f.Minimum, fingerprintFSM(mc.m), mc.label, widths); err != nil {
			return err
		}
	}
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// agree records a width both backends proved, and fails when they proved
// different ones.
func agree(into map[string]int, key, label string, widths []int) error {
	if len(widths) < 2 {
		fmt.Fprintf(os.Stderr, "%s: not proven by both backends; no reference\n", label)
		return nil
	}
	sort.Ints(widths)
	if widths[0] != widths[len(widths)-1] {
		return fmt.Errorf("%s: backends proved different minima %v", label, widths)
	}
	into[key] = widths[0]
	return nil
}
