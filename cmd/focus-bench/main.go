// Command focus-bench regenerates every table and figure of the paper's
// evaluation (§VI) against the synthetic data-set analogues D1-D3:
//
//	table1 — data set characteristics            (Table I)
//	fig4   — graph partitioning speedup curve    (Fig. 4)
//	fig5   — hybrid vs multilevel partitioning   (Fig. 5)
//	table2 — edge cut, hybrid vs overlap         (Table II)
//	fig6   — distributed trimming & traversal    (Fig. 6)
//	table3 — assembly statistics across k        (Table III)
//	fig7   — genus distribution across parts     (Fig. 7)
//
// Absolute times differ from the paper's cluster, but the shapes it
// reports (speedup knee, the ~2x hybrid advantage, cut ratios, stat
// stability, genus clustering) are reproduced; see EXPERIMENTS.md.
package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"testing"
	"time"

	"focus"
	"focus/internal/align"
	"focus/internal/assembly"
	"focus/internal/coarsen"
	"focus/internal/debruijn"
	"focus/internal/dist"
	"focus/internal/dna"
	"focus/internal/eval"
	"focus/internal/graph"
	"focus/internal/greedyasm"
	"focus/internal/hybrid"
	"focus/internal/metrics"
	"focus/internal/overlap"
	"focus/internal/partition"
	"focus/internal/simulate"
	"focus/internal/taxonomy"
)

type harness struct {
	scale    float64
	coverage float64
	runs     int
	maxProcs int
	// cached per data set
	coms   map[int]*simulate.Community
	reads  map[int]*simulate.ReadSet
	stages map[int]*focus.Stages
}

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: table1|fig4|fig5|table2|fig6|table3|fig7|baselines|graphbench|alignbench|overlapbench|phasebench|wirebench|all")
		scale      = flag.Float64("scale", 0.35, "data set scale factor (1.0 = ~140kb communities)")
		coverage   = flag.Float64("coverage", 8, "read coverage")
		runs       = flag.Int("runs", 3, "repetitions for timed runs (Fig. 4)")
		maxProcs   = flag.Int("maxprocs", 12, "max processors in the Fig. 4 sweep")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to `file`")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile (taken at exit) to `file`")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "focus-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "focus-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "focus-bench: -memprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "focus-bench: -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	h := &harness{
		scale: *scale, coverage: *coverage, runs: *runs, maxProcs: *maxProcs,
		coms:   map[int]*simulate.Community{},
		reads:  map[int]*simulate.ReadSet{},
		stages: map[int]*focus.Stages{},
	}
	fmt.Printf("focus-bench: scale=%.2f coverage=%.1f GOMAXPROCS=%d\n\n", *scale, *coverage, runtime.GOMAXPROCS(0))

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		t0 := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "focus-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %s]\n\n", name, time.Since(t0).Round(time.Millisecond))
	}
	run("table1", h.table1)
	run("fig4", h.fig4)
	run("fig5", h.fig5)
	run("table2", h.table2)
	run("fig6", h.fig6)
	run("table3", h.table3)
	run("fig7", h.fig7)
	run("baselines", h.baselines)
	run("graphbench", h.graphbench)
	run("alignbench", h.alignbench)
	run("overlapbench", h.overlapbench)
	run("phasebench", h.phasebench)
	run("wirebench", h.wirebench)
}

// bestOf3 runs f three times and returns the result with the lowest
// ns/op (minimum-of-runs, the usual estimator on a noisy shared host).
func bestOf3(f func(*testing.B)) testing.BenchmarkResult {
	best := testing.Benchmark(f)
	for i := 0; i < 2; i++ {
		if r := testing.Benchmark(f); r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

// countConn counts the bytes actually crossing a worker connection (both
// directions), attached server-side via Options.WrapConn.
type countConn struct {
	net.Conn
	n *int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	atomic.AddInt64(c.n, int64(n))
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	atomic.AddInt64(c.n, int64(n))
	return n, err
}

// wirebench quantifies the PR-4 binary wire protocol against net/rpc's
// gob on D1-D3: steady-state body bytes per phase (all k partition
// subgraphs + an alignment job), encode+decode time, and end-to-end
// distributed-assembly bytes and wall time counted on the actual worker
// connections. Results land in BENCH_wire.json. Gob is measured in steady
// state (persistent encoder/decoder pair, type descriptors already sent),
// which is exactly what a long-lived net/rpc connection pays.
func (h *harness) wirebench() error {
	type row struct {
		Name    string  `json:"name"`
		DataSet string  `json:"data_set"`
		Unit    string  `json:"unit"`
		Gob     int64   `json:"gob"`
		Wire    int64   `json:"wire"`
		Ratio   float64 `json:"gob_over_wire"`
	}
	var rows []row
	add := func(name, ds, unit string, gobV, wireV int64) {
		r := row{name, ds, unit, gobV, wireV, float64(gobV) / float64(wireV)}
		rows = append(rows, r)
		fmt.Printf("  %-22s %-4s %14d gob %14d wire  %6.2fx  (%s)\n", name, ds, gobV, wireV, r.Ratio, unit)
	}

	const k = 16
	fmt.Println("Wire protocol — binary codec vs gob (steady state)")
	for id := 1; id <= 3; id++ {
		s, err := h.prepare(id)
		if err != nil {
			return err
		}
		ds := fmt.Sprintf("D%d", id)
		dg, err := assembly.BuildDiGraph(s.Hyb, s.Records)
		if err != nil {
			return err
		}
		pres, _, err := s.PartitionHybrid(k, 8, 1)
		if err != nil {
			return err
		}
		labels := pres.Labels()
		subs := assembly.Subgraphs(dg, labels, k, 0)
		phaseArgs := make([]*assembly.PhaseArgs, k)
		for t := range subs {
			phaseArgs[t] = &assembly.PhaseArgs{Sub: subs[t], Cfg: s.Cfg.Assembly}
		}
		nAlign := len(s.Reads)
		if nAlign > 128 {
			nAlign = 128
		}
		alignArgs := &overlap.AlignPairArgs{Cfg: s.Cfg.Overlap}
		for i := 0; i < nAlign; i++ {
			alignArgs.RefIDs = append(alignArgs.RefIDs, int32(i))
			alignArgs.RefSeqs = append(alignArgs.RefSeqs, s.Reads[i].Seq)
			alignArgs.QueryIDs = append(alignArgs.QueryIDs, int32(i))
			alignArgs.QuerySeqs = append(alignArgs.QuerySeqs, s.Reads[i].Seq)
		}

		// Steady-state bytes and encode+decode time. The gob pair shares
		// one buffer pipe: descriptors cross once, then each op is encode
		// + decode of the same payloads the RPC layer ships.
		measure := func(name string, values []interface{}, fresh func() interface{}) error {
			var pipe bytes.Buffer
			enc := gob.NewEncoder(&pipe)
			dec := gob.NewDecoder(&pipe)
			for _, v := range values { // warm: ship type descriptors
				if err := enc.Encode(v); err != nil {
					return err
				}
				if err := dec.Decode(fresh()); err != nil {
					return err
				}
			}
			pipe.Reset()
			for _, v := range values {
				if err := enc.Encode(v); err != nil {
					return err
				}
			}
			gobBytes := int64(pipe.Len())
			var wireBytes int64
			for _, v := range values {
				wireBytes += int64(len(v.(dist.Wire).AppendTo(nil)))
			}
			add(name+"_bytes", ds, "bytes/phase", gobBytes, wireBytes)

			// Best of three runs per side: the benchmark host is a busy
			// shared single CPU, and the minimum is the least-noisy
			// estimate of the true cost.
			gobR := bestOf3(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, v := range values {
						if err := enc.Encode(v); err != nil {
							b.Fatal(err)
						}
						if err := dec.Decode(fresh()); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
			var staging []byte
			wireR := bestOf3(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, v := range values {
						staging = v.(dist.Wire).AppendTo(staging[:0])
						if err := fresh().(dist.Wire).DecodeFrom(staging); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
			add(name+"_encdec", ds, "ns/phase", gobR.NsPerOp(), wireR.NsPerOp())
			add(name+"_allocs", ds, "allocs/phase", gobR.AllocsPerOp(), wireR.AllocsPerOp())
			return nil
		}

		phaseVals := make([]interface{}, k)
		for t := range phaseArgs {
			phaseVals[t] = phaseArgs[t]
		}
		if err := measure("phase", phaseVals, func() interface{} { return &assembly.PhaseArgs{} }); err != nil {
			return err
		}
		if err := measure("align", []interface{}{alignArgs}, func() interface{} { return &overlap.AlignPairArgs{} }); err != nil {
			return err
		}

		// End to end: a full distributed assembly, bytes counted on the
		// worker connections themselves (server side, under the codec).
		e2e := func(codec dist.Codec) (int64, time.Duration, error) {
			var total int64
			opt := dist.DefaultOptions()
			opt.Codec = codec
			opt.WrapConn = func(worker int, conn net.Conn) net.Conn { return countConn{conn, &total} }
			pool, err := dist.NewLocalPoolOpts(4, assembly.NewService, opt)
			if err != nil {
				return 0, 0, err
			}
			defer pool.Close()
			t0 := time.Now()
			if _, err := s.Assemble(pool, k, 4, 1); err != nil {
				return 0, 0, err
			}
			return atomic.LoadInt64(&total), time.Since(t0), nil
		}
		gobBytes, gobTime, err := e2e(dist.CodecGob)
		if err != nil {
			return err
		}
		wireBytes, wireTime, err := e2e(dist.CodecBinary)
		if err != nil {
			return err
		}
		add("e2e_bytes", ds, "bytes/run", gobBytes, wireBytes)
		add("e2e_time", ds, "ns/run", gobTime.Nanoseconds(), wireTime.Nanoseconds())
	}

	f, err := os.Create("BENCH_wire.json")
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// graphbench micro-benchmarks the graph-core stages (overlap-graph build,
// coarsening, hybrid layout, partitioning) serial vs parallel and writes
// the results as machine-readable BENCH_graph.json next to the text
// output. "serial" pins every worker knob to 1; "parallel" uses the
// defaults (GOMAXPROCS-sized pools, Procs=8 for partitioning).
func (h *harness) graphbench() error {
	s, err := h.prepare(2)
	if err != nil {
		return err
	}
	type row struct {
		Name        string `json:"name"`
		NsPerOp     int64  `json:"ns_per_op"`
		BytesPerOp  int64  `json:"b_per_op"`
		AllocsPerOp int64  `json:"allocs_per_op"`
	}
	var rows []row
	bench := func(name string, f func(b *testing.B)) {
		r := bestOf3(f)
		rows = append(rows, row{name, r.NsPerOp(), r.AllocedBytesPerOp(), r.AllocsPerOp()})
		fmt.Printf("  %-26s %12d ns/op %12d B/op %9d allocs/op\n",
			name, r.NsPerOp(), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}

	fmt.Println("Graph core — serial vs parallel (D2)")
	newBuilder := func() *graph.Builder {
		b := graph.NewBuilder(len(s.Reads))
		for _, r := range s.Records {
			_ = b.AddEdge(int(r.A), int(r.B), int64(r.Len))
		}
		return b
	}
	bld := newBuilder()
	bench("graph_build_map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = bld.BuildMapMerge()
		}
	})
	bench("graph_build_serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = bld.BuildPar(1)
		}
	})
	bench("graph_build_parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = bld.BuildPar(0)
		}
	})

	coarsenWith := func(workers int) *graph.Set {
		copt := s.Cfg.Coarsen
		copt.Workers = workers
		return coarsen.Multilevel(s.G0, copt)
	}
	bench("coarsen_serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = coarsenWith(1)
		}
	})
	bench("coarsen_parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = coarsenWith(0)
		}
	})

	hybridWith := func(workers int) *hybrid.Hybrid {
		hcfg := s.Cfg.Hybrid
		hcfg.Workers = workers
		hb, err := hybrid.Build(s.MSet, s.Reads, s.Records, hcfg)
		if err != nil {
			panic(err)
		}
		return hb
	}
	bench("hybrid_serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = hybridWith(1)
		}
	})
	bench("hybrid_parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = hybridWith(0)
		}
	})

	partitionWith := func(procs int) {
		opt := partition.DefaultOptions(16)
		opt.Procs = procs
		if _, err := partition.PartitionSet(s.Hyb.Set, opt); err != nil {
			panic(err)
		}
	}
	bench("partition_serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			partitionWith(1)
		}
	})
	bench("partition_parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			partitionWith(8)
		}
	})

	combined := func(workers, procs int) {
		mset := coarsenWith(workers)
		hcfg := s.Cfg.Hybrid
		hcfg.Workers = workers
		hb, err := hybrid.Build(mset, s.Reads, s.Records, hcfg)
		if err != nil {
			panic(err)
		}
		opt := partition.DefaultOptions(16)
		opt.Procs = procs
		if _, err := partition.PartitionSet(hb.Set, opt); err != nil {
			panic(err)
		}
	}
	bench("combined_serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			combined(1, 1)
		}
	})
	bench("combined_parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			combined(0, 8)
		}
	})

	f, err := os.Create("BENCH_graph.json")
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// alignbench times the banded-NW kernels head to head on the overlap
// stage's hot-path geometry (100bp window, ~5 substitutions, band 6, and
// a 90bp suffix-prefix overlap through the full classification path) and
// writes BENCH_align.json. Samples alternate between the kernels
// round-robin before taking the per-kernel minimum, so drift in host
// load biases the comparison as little as possible.
func (h *harness) alignbench() error {
	rng := rand.New(rand.NewSource(42))
	bases := []byte("ACGT")
	seq := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = bases[rng.Intn(4)]
		}
		return s
	}
	pa := seq(100)
	pb := append([]byte(nil), pa...)
	for i := 0; i < 5; i++ {
		pb[rng.Intn(len(pb))] = bases[rng.Intn(4)]
	}
	oa := seq(150)
	ob := append(append([]byte(nil), oa[60:]...), seq(60)...)
	for i := 0; i < 4; i++ {
		ob[rng.Intn(90)] = bases[rng.Intn(4)]
	}

	type row struct {
		Name        string `json:"name"`
		NsPerOp     int64  `json:"ns_per_op"`
		BytesPerOp  int64  `json:"b_per_op"`
		AllocsPerOp int64  `json:"allocs_per_op"`
	}
	kernelProbe := func(k align.Kernel) func(b *testing.B) {
		return func(b *testing.B) {
			var scr align.Scratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = scr.BandedNWKernel(pa, pb, 6, align.DefaultScoring, k)
			}
		}
	}
	overlapProbe := func(k align.Kernel) func(b *testing.B) {
		cfg := align.DefaultConfig()
		cfg.Kernel = k
		return func(b *testing.B) {
			var scr align.Scratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = scr.OverlapOnDiagonal(oa, ob, 60, cfg)
			}
		}
	}
	probes := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"nw_scalar", kernelProbe(align.KernelScalar)},
		{"nw_bitparallel", kernelProbe(align.KernelBitParallel)},
		{"overlap_scalar", overlapProbe(align.KernelScalar)},
		{"overlap_bitparallel", overlapProbe(align.KernelBitParallel)},
	}
	fmt.Println("Alignment kernels — scalar vs bit-parallel (100bp, band 6)")
	best := make([]testing.BenchmarkResult, len(probes))
	for round := 0; round < 5; round++ {
		for i, p := range probes {
			r := testing.Benchmark(p.fn)
			if round == 0 || r.NsPerOp() < best[i].NsPerOp() {
				best[i] = r
			}
		}
	}
	var rows []row
	for i, p := range probes {
		r := best[i]
		rows = append(rows, row{p.name, r.NsPerOp(), r.AllocedBytesPerOp(), r.AllocsPerOp()})
		fmt.Printf("  %-26s %12d ns/op %12d B/op %9d allocs/op\n",
			p.name, r.NsPerOp(), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}
	fmt.Printf("  nw speedup:      %.2fx\n", float64(rows[0].NsPerOp)/float64(rows[1].NsPerOp))
	fmt.Printf("  overlap speedup: %.2fx\n", float64(rows[2].NsPerOp)/float64(rows[3].NsPerOp))

	f, err := os.Create("BENCH_align.json")
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// overlapbench times the overlap stage on a repeat-heavy read set (a
// high-copy interspersed repeat whose seeds all cross the MaxOccur
// threshold): candidate generation alone, and the whole stage with one
// worker and with the governor's default fan-out. The serial-vs-parallel
// pair feeds the governor regression gate in scripts/bench.sh. Samples
// alternate between the probes round-robin before taking the per-probe
// minimum (same discipline as alignbench). Results land in
// BENCH_overlap.json.
func (h *harness) overlapbench() error {
	// Repeat-heavy data set: 96 copies of a 600 bp repeat interspersed
	// with 600 bp of unique sequence, tiled into error-free 100 bp reads
	// at 2.5x coverage, probed with dense seeding (Step=1). Every repeat
	// k-mer occurs far above MaxOccur=64 even when the reads are split
	// across 3 subsets. (Kept identical to repeatHeavyReads in the overlap
	// package's benchmarks.)
	rng := rand.New(rand.NewSource(11))
	bases := []byte("ACGT")
	seq := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = bases[rng.Intn(4)]
		}
		return s
	}
	repeat := seq(600)
	var genome []byte
	for i := 0; i < 96; i++ {
		genome = append(genome, seq(600)...)
		genome = append(genome, repeat...)
	}
	var reads []dna.Read
	for pos := 0; pos+100 <= len(genome); pos += 40 {
		reads = append(reads, dna.Read{ID: "r", Seq: append([]byte(nil), genome[pos:pos+100]...)})
	}
	const subsets = 3

	cfg := overlap.DefaultConfig()
	cfg.Step = 1
	serial := cfg
	serial.Workers = 1

	nCand, err := overlap.CountCandidates(reads, subsets, cfg)
	if err != nil {
		return err
	}
	recs, err := overlap.FindOverlaps(reads, subsets, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("Overlap stage — k-mer table (%d reads, %d subsets, %d candidates, %d records)\n",
		len(reads), subsets, nCand, len(recs))

	candgen := func(cfg overlap.Config) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := overlap.CountCandidates(reads, subsets, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	e2e := func(cfg overlap.Config) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := overlap.FindOverlaps(reads, subsets, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	probes := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"overlap_candgen_kmertable", candgen(cfg)},
		{"overlap_kmertable_serial", e2e(serial)},
		{"overlap_kmertable_parallel", e2e(cfg)},
	}
	best := make([]testing.BenchmarkResult, len(probes))
	for round := 0; round < 5; round++ {
		for i, p := range probes {
			r := testing.Benchmark(p.fn)
			if round == 0 || r.NsPerOp() < best[i].NsPerOp() {
				best[i] = r
			}
		}
	}
	type row struct {
		Name        string `json:"name"`
		NsPerOp     int64  `json:"ns_per_op"`
		BytesPerOp  int64  `json:"b_per_op"`
		AllocsPerOp int64  `json:"allocs_per_op"`
	}
	var rows []row
	for i, p := range probes {
		r := best[i]
		rows = append(rows, row{p.name, r.NsPerOp(), r.AllocedBytesPerOp(), r.AllocsPerOp()})
		fmt.Printf("  %-26s %12d ns/op %12d B/op %9d allocs/op\n",
			p.name, r.NsPerOp(), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}
	fmt.Printf("  candgen share:   %.2f of the parallel stage\n", float64(rows[0].NsPerOp)/float64(rows[2].NsPerOp))

	f, err := os.Create("BENCH_overlap.json")
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// phasebench contrasts the graph-cleaning scan engines — the reference
// map walker vs the CSR kernels with the masked-product transitive
// reduction — on a dense synthetic subgraph, gated on byte-identical
// removals before any timing. Writes BENCH_phase.json.
func (h *harness) phasebench() error {
	// Dense transitive-heavy subgraph: 3000 nodes tiled 10 bp apart along
	// one genome, each overlapping its next 20 successors with exact
	// composing diagonals (Diag(v,v+i) + Diag(v+i,v+j) == Diag(v,v+j)), so
	// nearly every edge is transitively implied and the masked product
	// does real accumulator work on every row. Containment and error
	// scans run on the same graph to time their CSR paths on dense
	// adjacency.
	const (
		nNodes = 3000
		deg    = 20
		step   = 10
		ctgLen = 300
	)
	rng := rand.New(rand.NewSource(17))
	bases := []byte("ACGT")
	genome := make([]byte, nNodes*step+ctgLen)
	for i := range genome {
		genome[i] = bases[rng.Intn(4)]
	}
	sub := &assembly.Subgraph{}
	for v := 0; v < nNodes; v++ {
		sub.Nodes = append(sub.Nodes, assembly.WireNode{
			ID:     int32(v),
			Weight: int64(1 + rng.Intn(30)),
			Contig: genome[v*step : v*step+ctgLen],
		})
		sub.Local = append(sub.Local, int32(v))
	}
	for v := 0; v < nNodes; v++ {
		for j := 1; j <= deg && v+j < nNodes; j++ {
			sub.Edges = append(sub.Edges, assembly.Edge{
				From: int32(v), To: int32(v + j),
				Diag: int32(j * step), Len: int32(ctgLen - j*step), Ident: 1,
			})
		}
	}

	mapCfg := assembly.DefaultConfig()
	mapCfg.Engine = assembly.PhaseEngineMap
	csrCfg := assembly.DefaultConfig()
	csrCfg.Engine = assembly.PhaseEngineCSR

	// Equivalence gate before timing: every scan must return deeply equal
	// removals from both engines at several worker counts, or the numbers
	// below are meaningless.
	wantT := assembly.TransitiveEdges(sub, mapCfg)
	wantC := assembly.ContainmentScan(sub, mapCfg)
	wantE := assembly.ErrorScan(sub, mapCfg)
	for _, w := range []int{0, 1, 2, 8} {
		wCfg := csrCfg
		wCfg.Workers = w
		if got := assembly.TransitiveEdges(sub, wCfg); !reflect.DeepEqual(got, wantT) {
			return fmt.Errorf("phasebench: TransitiveEdges diverges at workers=%d", w)
		}
		if got := assembly.ContainmentScan(sub, wCfg); !reflect.DeepEqual(got, wantC) {
			return fmt.Errorf("phasebench: ContainmentScan diverges at workers=%d", w)
		}
		if got := assembly.ErrorScan(sub, wCfg); !reflect.DeepEqual(got, wantE) {
			return fmt.Errorf("phasebench: ErrorScan diverges at workers=%d", w)
		}
	}
	fmt.Printf("Phase engines — map walker vs CSR kernels (%d nodes, %d edges, %d transitive)\n",
		len(sub.Nodes), len(sub.Edges), len(wantT))

	bench := func(f func() int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f()
			}
		}
	}
	trans := func(cfg assembly.Config) func(b *testing.B) {
		return bench(func() int { return len(assembly.TransitiveEdges(sub, cfg)) })
	}
	contain := func(cfg assembly.Config) func(b *testing.B) {
		return bench(func() int { return len(assembly.ContainmentScan(sub, cfg).Edges) })
	}
	errs := func(cfg assembly.Config) func(b *testing.B) {
		return bench(func() int { return len(assembly.ErrorScan(sub, cfg).Nodes) })
	}
	allThree := func(cfg assembly.Config) func(b *testing.B) {
		return bench(func() int {
			n := len(assembly.TransitiveEdges(sub, cfg))
			n += len(assembly.ContainmentScan(sub, cfg).Edges)
			return n + len(assembly.ErrorScan(sub, cfg).Nodes)
		})
	}
	serialCfg := csrCfg
	serialCfg.Workers = 1
	probes := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"phase_transitive_map", trans(mapCfg)},
		{"phase_transitive_csr", trans(csrCfg)},
		{"phase_containment_map", contain(mapCfg)},
		{"phase_containment_csr", contain(csrCfg)},
		{"phase_errors_map", errs(mapCfg)},
		{"phase_errors_csr", errs(csrCfg)},
		{"phase_serial", allThree(serialCfg)},
		{"phase_parallel", allThree(csrCfg)},
	}
	best := make([]testing.BenchmarkResult, len(probes))
	for round := 0; round < 5; round++ {
		for i, p := range probes {
			r := testing.Benchmark(p.fn)
			if round == 0 || r.NsPerOp() < best[i].NsPerOp() {
				best[i] = r
			}
		}
	}
	type row struct {
		Name        string `json:"name"`
		NsPerOp     int64  `json:"ns_per_op"`
		BytesPerOp  int64  `json:"b_per_op"`
		AllocsPerOp int64  `json:"allocs_per_op"`
	}
	var rows []row
	for i, p := range probes {
		r := best[i]
		rows = append(rows, row{p.name, r.NsPerOp(), r.AllocedBytesPerOp(), r.AllocsPerOp()})
		fmt.Printf("  %-26s %12d ns/op %12d B/op %9d allocs/op\n",
			p.name, r.NsPerOp(), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}
	fmt.Printf("  transitive speedup:  %.2fx\n", float64(rows[0].NsPerOp)/float64(rows[1].NsPerOp))
	fmt.Printf("  containment speedup: %.2fx\n", float64(rows[2].NsPerOp)/float64(rows[3].NsPerOp))
	fmt.Printf("  errors speedup:      %.2fx\n", float64(rows[4].NsPerOp)/float64(rows[5].NsPerOp))

	f, err := os.Create("BENCH_phase.json")
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// baselines contrasts Focus with the de Bruijn baseline on the same read
// sets, graded by the reference-based evaluator. Not a paper artifact —
// it quantifies the overlap-vs-de-Bruijn positioning of the paper's
// introduction. Runs only with -exp baselines or -exp all.
func (h *harness) baselines() error {
	t := &metrics.Table{
		Title:   "Baselines — Focus (overlap graph) vs de Bruijn on identical reads",
		Headers: []string{"Data set", "Assembler", "Time", "N50 (bp)", "Genome frac.", "Misasm."},
	}
	for id := 1; id <= 3; id++ {
		s, err := h.prepare(id)
		if err != nil {
			return err
		}
		var refs []eval.Reference
		for _, g := range h.coms[id].Genomes {
			refs = append(refs, eval.Reference{Name: g.ID, Seq: g.Seq})
		}
		grade := func(name string, contigs [][]byte, dt time.Duration) error {
			rep, err := eval.Evaluate(contigs, refs, eval.DefaultConfig())
			if err != nil {
				return err
			}
			st := assembly.ComputeStats(contigs)
			t.AddRow(fmt.Sprintf("D%d", id), name, dt, st.N50,
				fmt.Sprintf("%.1f%%", 100*rep.GenomeFraction), rep.Misassemblies)
			return nil
		}
		pool, err := dist.NewLocalPool(4, assembly.NewService)
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := s.Assemble(pool, 8, 4, 1)
		focusTime := time.Since(t0)
		pool.Close()
		if err != nil {
			return err
		}
		if err := grade("focus", res.Contigs, focusTime); err != nil {
			return err
		}
		t0 = time.Now()
		dbContigs, err := debruijn.Assemble(s.Reads, debruijn.DefaultConfig())
		dbTime := time.Since(t0)
		if err != nil {
			return err
		}
		if err := grade("debruijn", dbContigs, dbTime); err != nil {
			return err
		}
		// Greedy reuses the already computed overlap records, so its time
		// reflects only the merge stage (alignment cost is shared).
		t0 = time.Now()
		grContigs := greedyasm.AssembleFromRecords(s.Reads, s.Records, greedyasm.DefaultConfig())
		grTime := time.Since(t0)
		if err := grade("greedy", grContigs, grTime); err != nil {
			return err
		}
	}
	t.Render(os.Stdout)
	return nil
}

// prepare builds (and caches) community, reads and pipeline stages for a
// data set.
func (h *harness) prepare(id int) (*focus.Stages, error) {
	if s, ok := h.stages[id]; ok {
		return s, nil
	}
	spec, err := simulate.PaperDataSet(id, h.scale)
	if err != nil {
		return nil, err
	}
	com, err := simulate.BuildCommunity(spec)
	if err != nil {
		return nil, err
	}
	rs, err := simulate.SimulateReads(com, simulate.PaperReadConfig(id, h.coverage))
	if err != nil {
		return nil, err
	}
	cfg := focus.DefaultConfig()
	cfg.Preprocess.Trim5 = 8 // the simulated adapter
	s, err := focus.BuildStages(rs.Reads, cfg)
	if err != nil {
		return nil, err
	}
	h.coms[id] = com
	h.reads[id] = rs
	h.stages[id] = s
	return s, nil
}

// table1 prints the data set characteristics (Table I analogue).
func (h *harness) table1() error {
	t := &metrics.Table{
		Title:   "Table I — data set characteristics (synthetic analogues of the paper's SRA runs)",
		Headers: []string{"Data set", "Stands in for", "Size (Mbases)", "Read length (bp)", "Reads", "Genomes"},
	}
	sra := []string{"SRR513170", "SRR513441", "SRR061581"}
	for id := 1; id <= 3; id++ {
		if _, err := h.prepare(id); err != nil {
			return err
		}
		rs := h.reads[id]
		t.AddRow(fmt.Sprintf("D%d", id), sra[id-1],
			fmt.Sprintf("%.3f", float64(rs.TotalBases())/1e6),
			100, len(rs.Reads), len(h.coms[id].Genomes))
	}
	t.Render(os.Stdout)
	return nil
}

// fig4 sweeps processor counts for hybrid-set partitioning with k=16.
// Per-region task times are measured once per run and projected onto 1..
// maxprocs processors with LPT scheduling (the algorithm's task graph is
// explicit: bisection steps are barriers with 2^i independent regions,
// then per-level k-way refinements). On a many-core host the projection
// tracks wall-clock; on this harness it reproduces the paper's cluster.
func (h *harness) fig4() error {
	fmt.Println("Fig. 4 — graph partitioning speedup (hybrid graph sets, k=16)")
	for id := 1; id <= 3; id++ {
		s, err := h.prepare(id)
		if err != nil {
			return err
		}
		// Average the task-time projections over h.runs random seeds
		// (the paper averages three runs for the same reason: greedy
		// growing's random seed nodes add variance).
		avg := make([]time.Duration, h.maxProcs)
		for r := 0; r < h.runs; r++ {
			res, _, err := s.PartitionHybrid(16, 1, int64(r+1))
			if err != nil {
				return err
			}
			for p := 1; p <= h.maxProcs; p++ {
				avg[p-1] += res.SimulatedMakespan(p)
			}
		}
		var times []time.Duration
		var xs []string
		for p := 1; p <= h.maxProcs; p++ {
			times = append(times, avg[p-1]/time.Duration(h.runs))
			xs = append(xs, fmt.Sprintf("%d procs", p))
		}
		sp := metrics.Speedup(times)
		fmt.Printf("\n  D%d (avg of %d runs; knee expected near 8 procs = 2^(log2 16 - 1)):\n", id, h.runs)
		metrics.Series(os.Stdout, "", "processors", "x speedup", xs, sp, 0)
	}
	return nil
}

// fig5 compares hybrid-set vs multilevel-set partitioning runtime.
func (h *harness) fig5() error {
	fmt.Println("Fig. 5 — hybrid graph set vs multilevel graph set partitioning runtime")
	t := &metrics.Table{Headers: []string{"Data set", "k", "procs", "Hybrid time", "Multilevel time", "Multilevel/Hybrid"}}
	for id := 1; id <= 3; id++ {
		s, err := h.prepare(id)
		if err != nil {
			return err
		}
		for _, k := range []int{8, 16, 32, 64} {
			procs := k / 2
			if procs > h.maxProcs {
				procs = h.maxProcs
			}
			_, ht, err := s.PartitionHybrid(k, procs, 1)
			if err != nil {
				return err
			}
			_, mt, err := s.PartitionMultilevel(k, procs, 1)
			if err != nil {
				return err
			}
			ratio := float64(mt) / float64(ht)
			t.AddRow(fmt.Sprintf("D%d", id), k, procs, ht, mt, ratio)
		}
	}
	t.Render(os.Stdout)
	return nil
}

// table2 compares the overlap-graph edge cut of partitionings produced
// via the hybrid set vs the multilevel set. Besides the paper's two
// columns it reports the multilevel solution rounded to cluster
// granularity (majority label per cluster): at the paper's data sizes a
// partition holds ~10^5 clusters and granularity never binds, but at
// laptop scale the multilevel baseline wins raw cut only by routing
// boundaries *through* read clusters — the rounded column shows the
// hybrid scheme is the better partitioner at matched granularity.
func (h *harness) table2() error {
	t := &metrics.Table{
		Title:   "Table II — edge cut on the overlap graph G0: hybrid-set vs multilevel-set partitioning",
		Headers: []string{"Part. Num", "Data set", "Edge Cut (Hyb.)", "Edge Cut (Ovl.)", "Ovl @cluster gran.", "Hyb better @gran.", "Cut % of total"},
	}
	for _, k := range []int{8, 16, 32, 64} {
		for id := 1; id <= 3; id++ {
			s, err := h.prepare(id)
			if err != nil {
				return err
			}
			procs := k / 2
			if procs > h.maxProcs {
				procs = h.maxProcs
			}
			hres, _, err := s.PartitionHybrid(k, procs, 1)
			if err != nil {
				return err
			}
			mres, _, err := s.PartitionMultilevel(k, procs, 1)
			if err != nil {
				return err
			}
			_, hybOnG0 := s.HybridCuts(hres)
			ml := mres.Labels()
			mCut := partition.EdgeCut(s.G0, ml)
			rounded := roundToClusters(s, ml)
			rCut := partition.EdgeCut(s.G0, partition.MapLabels(rounded, s.Hyb.RepOf))
			better := "no"
			if hybOnG0 <= rCut {
				better = "yes"
			}
			pct := 100 * float64(hybOnG0) / float64(s.G0.TotalEdgeWeight())
			t.AddRow(k, id, hybOnG0, mCut, rCut, better, fmt.Sprintf("%.3f%%", pct))
		}
	}
	t.Render(os.Stdout)
	return nil
}

// roundToClusters assigns each hybrid cluster the majority read label of
// a read-granularity partitioning.
func roundToClusters(s *focus.Stages, readLabels []int32) []int32 {
	votes := make([]map[int32]int, s.Hyb.G.NumNodes())
	for i := range votes {
		votes[i] = map[int32]int{}
	}
	for r, rep := range s.Hyb.RepOf {
		votes[rep][readLabels[r]]++
	}
	out := make([]int32, len(votes))
	for c, vs := range votes {
		best, bn := int32(0), -1
		for l, n := range vs {
			if n > bn || (n == bn && l < best) {
				best, bn = l, n
			}
		}
		out[c] = best
	}
	return out
}

// fig6 measures distributed trimming and traversal runtimes across
// partition counts.
func (h *harness) fig6() error {
	fmt.Println("Fig. 6 — distributed graph trimming and traversal runtimes")
	fmt.Println("(per-partition task times measured over RPC, projected onto k workers — one per partition, as on the paper's cluster)")
	t := &metrics.Table{Headers: []string{"Data set", "Partitions", "Trimming", "Traversal", "Trim (wall)", "Trav (wall)"}}
	for id := 1; id <= 3; id++ {
		s, err := h.prepare(id)
		if err != nil {
			return err
		}
		for _, k := range []int{8, 16, 32, 64} {
			workers := k
			if workers > 2*runtime.GOMAXPROCS(0) {
				workers = 2 * runtime.GOMAXPROCS(0)
			}
			pool, err := dist.NewLocalPool(workers, assembly.NewService)
			if err != nil {
				return err
			}
			res, err := s.Assemble(pool, k, workers, 1)
			pool.Close()
			if err != nil {
				return err
			}
			t.AddRow(fmt.Sprintf("D%d", id), k, res.SimTrimTime(k), res.SimTraverseTime(k), res.TrimTime, res.TraverseTime)
		}
	}
	t.Render(os.Stdout)
	return nil
}

// table3 reports assembly statistics across partitionings, extended with
// reference-based accuracy (genome fraction and misassemblies via
// internal/eval — the paper reports only contiguity).
func (h *harness) table3() error {
	t := &metrics.Table{
		Title:   "Table III — assembly statistics across partition counts",
		Headers: []string{"Data set", "Part. Num.", "N50 (bp)", "Max Contig (bp)", "Num. of Contigs", "Genome frac.", "Misasm."},
	}
	for id := 1; id <= 3; id++ {
		s, err := h.prepare(id)
		if err != nil {
			return err
		}
		var refs []eval.Reference
		for _, g := range h.coms[id].Genomes {
			refs = append(refs, eval.Reference{Name: g.ID, Seq: g.Seq})
		}
		for _, k := range []int{4, 16, 32, 64} {
			workers := 4
			pool, err := dist.NewLocalPool(workers, assembly.NewService)
			if err != nil {
				return err
			}
			res, err := s.Assemble(pool, k, workers, 1)
			pool.Close()
			if err != nil {
				return err
			}
			rep, err := eval.Evaluate(res.Contigs, refs, eval.DefaultConfig())
			if err != nil {
				return err
			}
			t.AddRow(id, k, res.Stats.N50, res.Stats.MaxContig, res.Stats.NumContigs,
				fmt.Sprintf("%.1f%%", 100*rep.GenomeFraction), rep.Misassemblies)
		}
	}
	t.Render(os.Stdout)
	return nil
}

// fig7 renders the genus-by-partition heat maps.
func (h *harness) fig7() error {
	fmt.Println("Fig. 7 — distribution of major genera across a 16-partitioning")
	for id := 1; id <= 3; id++ {
		s, err := h.prepare(id)
		if err != nil {
			return err
		}
		com := h.coms[id]
		var refs []taxonomy.Reference
		for _, g := range com.Genomes {
			refs = append(refs, taxonomy.Reference{Name: g.ID, Genus: g.Genus, Phylum: g.Phylum, Seq: g.Seq})
		}
		cls, err := taxonomy.NewClassifier(refs, 21)
		if err != nil {
			return err
		}
		res, _, err := s.PartitionHybrid(16, 8, 1)
		if err != nil {
			return err
		}
		labels := s.ReadLabels(res)
		d, err := taxonomy.GenusDistribution(cls, s.Reads, labels, 16)
		if err != nil {
			return err
		}
		top := d.TopGenera(10)
		var names []string
		frac := d.Fraction()
		var rows [][]float64
		for _, g := range top {
			names = append(names, fmt.Sprintf("%s (%s)", d.Genera[g], d.Phyla[g]))
			rows = append(rows, frac[g])
		}
		fmt.Printf("\n  D%d:\n", id)
		metrics.Heatmap(os.Stdout, "", names, rows)
		same, diff := d.PhylumCohesion()
		fmt.Printf("  phylum cohesion: same-phylum cosine %.3f vs cross-phylum %.3f\n", same, diff)
	}
	return nil
}
