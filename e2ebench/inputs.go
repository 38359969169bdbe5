package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"focus"
	"focus/internal/assembly"
	"focus/internal/eval"
	"focus/internal/simulate"
)

// simulatedAdapter is the adapter length simulate.PaperReadConfig puts on
// every read; preprocessing trims it.
const simulatedAdapter = 8

// benchConfig is the only pipeline configuration the benchmark runs: the
// defaults plus the 5' trim of the simulated adapter. Workloads differ in
// data set, scale, seed, k, worker count and transport, never in a knob;
// knobs_test.go enforces that.
func benchConfig() focus.Config {
	cfg := focus.DefaultConfig()
	cfg.Preprocess.Trim5 = simulatedAdapter
	return cfg
}

// dataSet simulates one paper data set analogue. The benchmark seed
// replaces the read sampler's seed, so each seed is another sequencing run
// of the data set's community; the community keeps the seed
// simulate.PaperDataSet gives it. Reseeding the community too spreads the
// D2 overlap work over seeds by 14% at scale 2.0, against 3.0% for
// reseeding the reads alone (README.md).
func dataSet(id int, scale, coverage float64, seed int64) (*simulate.Community, *simulate.ReadSet, error) {
	spec, err := simulate.PaperDataSet(id, scale)
	if err != nil {
		return nil, nil, err
	}
	com, err := simulate.BuildCommunity(spec)
	if err != nil {
		return nil, nil, err
	}
	rc := simulate.PaperReadConfig(id, coverage)
	rc.Seed = seed*100 + int64(id)
	rs, err := simulate.SimulateReads(com, rc)
	if err != nil {
		return nil, nil, err
	}
	return com, rs, nil
}

func references(com *simulate.Community) []eval.Reference {
	refs := make([]eval.Reference, len(com.Genomes))
	for i, g := range com.Genomes {
		refs[i] = eval.Reference{Name: g.ID, Seq: g.Seq}
	}
	return refs
}

// digest is an order-sensitive hash of a contig set.
func digest(contigs [][]byte) string {
	h := sha256.New()
	for _, c := range contigs {
		fmt.Fprintf(h, "%d:", len(c))
		h.Write(c)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// quality is the assembly quality against the simulated references.
type quality struct {
	n50            float64
	genomeFraction float64
	misassemblies  float64
}

// floors are the quality gate, set from measured values with a margin
// (README.md).
type floors struct {
	minGenomeFraction float64
	maxMisassemblies  float64
}

// quality checks q against the floors and reports it: genome_fraction is
// an end-to-end metric, N50 and misassemblies move too much between seeds
// to carry a bound and are reported by the traced run.
func (r *runner) quality(q quality, f floors, n int) {
	if q.genomeFraction < f.minGenomeFraction {
		r.fail("genome_fraction %.4f below floor %.4f", q.genomeFraction, f.minGenomeFraction)
	}
	if q.misassemblies > f.maxMisassemblies {
		r.fail("misassemblies %.0f above ceiling %.0f", q.misassemblies, f.maxMisassemblies)
	}
	fmt.Printf("# quality: n50_bp %.0f genome_fraction %.4f misassemblies %.0f\n", q.n50, q.genomeFraction, q.misassemblies)
	if r.trace {
		r.set("eval.n50_bp", q.n50, "bp", n)
		r.set("eval.misassemblies", q.misassemblies, "count", n)
	} else {
		r.set("genome_fraction", q.genomeFraction, "ratio", n)
	}
}

func evaluate(contigs [][]byte, refs []eval.Reference) (quality, error) {
	rep, err := eval.Evaluate(contigs, refs, eval.DefaultConfig())
	if err != nil {
		return quality{}, err
	}
	return quality{
		n50:            float64(assembly.ComputeStats(contigs).N50),
		genomeFraction: rep.GenomeFraction,
		misassemblies:  float64(rep.Misassemblies),
	}, nil
}
