package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"focus"
	"focus/internal/assembly"
	"focus/internal/coarsen"
	"focus/internal/dna"
	"focus/internal/eval"
	"focus/internal/graph"
	"focus/internal/hybrid"
	"focus/internal/overlap"
	"focus/internal/partition"
	"focus/internal/preprocess"
)

// batchSpec defines a batch workload: one assembly is one facade call
// from raw reads in memory to contigs.
type batchSpec struct {
	dataSet         int
	scale, coverage float64
	k, workers      int
	// tcp runs the workers behind loopback TCP listeners instead of the
	// in-process pool.
	tcp bool
	// fromRecords computes the overlap records once in set-up and runs
	// focus.BuildStagesFromRecords, so the overlap layer does no work.
	fromRecords bool
	// scaling adds the GOMAXPROCS=1 point to the traced run.
	scaling bool
	floors  floors
}

// Both batch workloads assemble the same reads for a given seed:
// records-d2-tcp is assemble-d2 with the overlap layer bypassed, more
// partitions, and TCP workers.
var (
	d2Floors     = floors{minGenomeFraction: 0.77, maxMisassemblies: 70}
	assembleD2   = batchSpec{dataSet: 2, scale: 2.0, coverage: 10, k: 16, workers: 2, scaling: true, floors: d2Floors}
	recordsD2TCP = batchSpec{dataSet: 2, scale: 2.0, coverage: 10, k: 64, workers: 2, tcp: true, fromRecords: true,
		floors: d2Floors}
)

// batchInput is what set-up generates: raw reads in memory, the
// references they were sampled from and, for fromRecords, the overlap
// records.
type batchInput struct {
	raw      []dna.Read
	refs     []eval.Reference
	mbases   float64
	records  []overlap.Record
	numReads int
}

func (b batchSpec) setup(cfg focus.Config, seed int64) (*batchInput, error) {
	com, rs, err := dataSet(b.dataSet, b.scale, b.coverage, seed)
	if err != nil {
		return nil, err
	}
	in := &batchInput{raw: rs.Reads, refs: references(com), mbases: float64(rs.TotalBases()) / 1e6}
	if b.fromRecords {
		reads, _, err := preprocess.Run(rs.Reads, cfg.Preprocess)
		if err != nil {
			return nil, err
		}
		in.records, err = overlap.FindOverlaps(reads, cfg.Subsets, cfg.Overlap)
		if err != nil {
			return nil, err
		}
		in.numReads = len(reads)
	}
	return in, nil
}

type batch struct {
	spec batchSpec
	cfg  focus.Config
	in   *batchInput
	fl   *fleet
}

// facade is one assembly through the public facade.
func (b *batch) facade() ([][]byte, error) {
	var s *focus.Stages
	var err error
	if b.spec.fromRecords {
		s, err = focus.BuildStagesFromRecords(b.in.raw, b.in.records, b.in.numReads, b.cfg)
	} else {
		s, err = focus.BuildStages(b.in.raw, b.cfg)
	}
	if err != nil {
		return nil, err
	}
	res, err := s.Assemble(b.fl.pool, b.spec.k, b.spec.workers, 1)
	if err != nil {
		return nil, err
	}
	return res.Contigs, nil
}

func runBatch(r *runner, cfg focus.Config, spec batchSpec) error {
	var in *batchInput
	setup, err := repeatSetup(func() error {
		var err error
		in, err = spec.setup(cfg, r.seed)
		return err
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	t0 := time.Now()
	var fl *fleet
	if spec.tcp {
		fl, err = newTCPFleet(spec.workers)
	} else {
		fl, err = newLocalFleet(spec.workers)
	}
	if err != nil {
		return fmt.Errorf("set-up: workers: %w", err)
	}
	defer fl.close()
	fleetStart := time.Since(t0).Seconds()
	b := &batch{spec: spec, cfg: cfg, in: in, fl: fl}

	// Warm-up assembly: fixes the reference digest every later run must
	// reproduce and the quality, evaluated outside any timed region.
	r.attempted++
	contigs, err := b.facade()
	if err != nil {
		return fmt.Errorf("warm-up assembly: %w", err)
	}
	want := digest(contigs)
	q, err := evaluate(contigs, in.refs)
	if err != nil {
		return fmt.Errorf("evaluate: %w", err)
	}
	r.quality(q, spec.floors, 1)
	if r.trace {
		return b.traced(r, want)
	}

	resetPeakRSS()
	a0 := heapAllocBytes()
	var lat []float64
	start := time.Now()
	for time.Since(start) < r.seconds {
		t0 := time.Now()
		contigs, err := b.facade()
		d := time.Since(t0).Seconds()
		r.attempted++
		if err != nil {
			r.fail("assembly: %v", err)
			continue
		}
		lat = append(lat, d)
		if got := digest(contigs); got != want {
			r.fail("contig digest %s differs from the warm-up run's %s", got, want)
		}
	}
	wall := time.Since(start).Seconds()
	n := len(lat)
	r.set("run_s.p50", median(lat), "s", n)
	r.set("run_s.p90", quantile(lat, 0.9), "s", n)
	r.set("mbases_per_s", in.mbases*float64(n)/wall, "Mbases/s", n)
	r.set("setup_s", setup.median+fleetStart, "s", setup.n)
	r.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	r.set("alloc_mb_per_run", float64(heapAllocBytes()-a0)/1e6/float64(max(n, 1)), "MB", n)
	return nil
}

// layerSample is one staged assembly's per-layer numbers.
type layerSample map[string]float64

// busyLayers are the layers whose busy time the traced run reports and
// the scaling point compares.
var busyLayers = []string{"preprocess", "overlap", "graph", "coarsen", "hybrid", "partition", "assembly"}

// staged runs the facade's call sequence stage by stage, each call inside
// a span under one root span per assembly: the same public functions that
// focus.BuildStages (or BuildStagesFromRecords) and Stages.Assemble call,
// with the same arguments, plus overlap.CountCandidates to time candidate
// generation on its own.
func (b *batch) staged(t *tracer, track int) (layerSample, [][]byte, error) {
	cfg := b.cfg
	ctx := cfg.Context // nil, as in the facade
	m := layerSample{}
	calls0, wire0, faults0 := b.fl.pool.Completions(), b.fl.wire.Load(), b.fl.faults()
	root := t.begin(track, 0, "run", "assembly")
	// covered is the time inside the root's child spans; extra is the time
	// of the calls the facade does not make.
	var covered, extra float64
	var err error
	// call times one public function in a span under root; key names the
	// metric its time adds to ("" = no layer's busy time: a call the facade
	// does not make). After the first error the remaining calls are skipped.
	call := func(layer, key, name string, f func() error) {
		if err != nil {
			return
		}
		s, ferr := t.do(track, root, layer, name, f)
		covered += s.seconds()
		if key != "" {
			m[key] += s.seconds()
			m[layer+".alloc_mb"] += s.AllocMB
			m["busy."+layer] += s.seconds()
		} else {
			extra += s.seconds()
		}
		if ferr != nil {
			err = fmt.Errorf("%s: %w", name, ferr)
		}
	}
	var (
		reads   []dna.Read
		recs    = b.in.records
		g0      *graph.Graph
		mset    *graph.Set
		hyb     *hybrid.Hybrid
		dg      *assembly.DiGraph
		labels  []int32
		drv     *assembly.Driver
		st      assembly.TrimStats
		paths   [][]int32
		trav    []time.Duration
		contigs [][]byte
	)
	call("preprocess", "preprocess.busy_s", "preprocess.Run", func() error {
		var err error
		reads, _, err = preprocess.Run(b.in.raw, cfg.Preprocess)
		if err == nil && b.spec.fromRecords && len(reads) != b.in.numReads {
			err = fmt.Errorf("%d reads, records built for %d", len(reads), b.in.numReads)
		}
		return err
	})
	if !b.spec.fromRecords {
		// Candidate generation alone. It is not part of the facade's
		// sequence, so it adds to no layer's busy time; FindOverlaps
		// repeats it before verifying.
		call("overlap", "", "overlap.CountCandidates", func() error {
			t0 := time.Now()
			n, err := overlap.CountCandidates(reads, cfg.Subsets, cfg.Overlap)
			m["overlap.candgen_s"] = time.Since(t0).Seconds()
			m["overlap.candidates"] = float64(n)
			return err
		})
		call("overlap", "overlap.busy_s", "overlap.FindOverlaps", func() error {
			var err error
			recs, err = overlap.FindOverlapsCtx(ctx, reads, cfg.Subsets, cfg.Overlap)
			m["overlap.records"] = float64(len(recs))
			return err
		})
	}
	call("graph", "graph.busy_s", "overlap.BuildGraphPar", func() error {
		var err error
		g0, err = overlap.BuildGraphParCtx(ctx, len(reads), recs, cfg.GraphWorkers)
		return err
	})
	call("coarsen", "coarsen.busy_s", "coarsen.Multilevel", func() error {
		var err error
		mset, err = coarsen.MultilevelCtx(ctx, g0, cfg.Coarsen)
		if err == nil {
			m["coarsen.levels"] = float64(len(mset.Levels))
		}
		return err
	})
	call("hybrid", "hybrid.busy_s", "hybrid.Build", func() error {
		var err error
		hyb, err = hybrid.BuildCtx(ctx, mset, reads, recs, cfg.Hybrid)
		if err == nil {
			m["hybrid.nodes"] = float64(hyb.G.NumNodes())
		}
		return err
	})
	call("assembly", "assembly.digraph_s", "assembly.BuildDiGraph", func() error {
		var err error
		dg, err = assembly.BuildDiGraph(hyb, recs)
		return err
	})
	call("partition", "partition.busy_s", "partition.PartitionSet", func() error {
		opt := partition.DefaultOptions(b.spec.k)
		opt.Procs = b.spec.workers
		opt.Seed = 1
		res, err := partition.PartitionSetCtx(ctx, hyb.Set, opt)
		if err == nil {
			labels = res.Labels()
			m["partition.edge_cut"] = float64(partition.EdgeCut(hyb.G, labels))
		}
		return err
	})
	call("assembly", "assembly.driver_s", "assembly.NewDriver", func() error {
		var err error
		drv, err = assembly.NewDriver(b.fl.pool, dg, labels, b.spec.k, cfg.Assembly)
		return err
	})
	call("assembly", "assembly.transitive_s", "Driver.TrimTransitive", func() error { return drv.TrimTransitive(&st) })
	call("assembly", "assembly.containment_s", "Driver.TrimContainment", func() error { return drv.TrimContainment(&st) })
	call("assembly", "assembly.errors_s", "Driver.TrimErrors", func() error { return drv.TrimErrors(&st) })
	call("assembly", "assembly.traverse_s", "Driver.TraverseTimed", func() error {
		var err error
		paths, trav, err = drv.TraverseTimed()
		return err
	})
	call("assembly", "assembly.contigs_s", "Driver.BuildContigs", func() error {
		contigs = drv.BuildContigs(paths)
		return nil
	})
	if drv != nil {
		s, cerr := t.do(track, root, "assembly", "Driver.Close", drv.Close)
		covered += s.seconds()
		m["assembly.alloc_mb"] += s.AllocMB
		m["busy.assembly"] += s.seconds()
		if err == nil && cerr != nil {
			err = fmt.Errorf("Driver.Close: %w", cerr)
		}
	}
	rs := t.end(root, nil)
	// facade_s is the traced time of the facade's own call sequence.
	m["facade_s"] = rs.seconds() - extra
	m["trace.unattributed_share"] = (rs.seconds() - covered) / rs.seconds()
	m["assembly.task_skew"] = taskSkew(append(st.PhaseTaskTimes[:], trav))
	m["dist.wire_mb"] = float64(b.fl.wire.Load()-wire0) / 1e6
	m["dist.calls"] = float64(b.fl.pool.Completions() - calls0)
	m["dist.faults"] = float64(b.fl.faults() - faults0)
	return m, contigs, err
}

// taskSkew is the largest max-over-mean task duration across phases: the
// slowest partition sets each phase's barrier.
func taskSkew(phases [][]time.Duration) float64 {
	worst := 0.0
	for _, p := range phases {
		if len(p) == 0 {
			continue
		}
		var sum, mx time.Duration
		for _, d := range p {
			sum += d
			mx = max(mx, d)
		}
		if sum > 0 {
			worst = max(worst, float64(mx)*float64(len(p))/float64(sum))
		}
	}
	return worst
}

// traced reports the per-layer metrics: first the facade untraced for
// half the run (the overhead baseline), then the staged sequence under
// spans for the other half (trace.overhead_ratio leaves out the
// CountCandidates call the facade does not make), then, on the scaling workload, one staged
// assembly at GOMAXPROCS=1. Every staged assembly must reproduce the
// facade's contig digest.
func (b *batch) traced(r *runner, want string) error {
	t := newTracer()
	var plain []float64
	start := time.Now()
	for len(plain) == 0 || time.Since(start) < r.seconds/2 {
		t0 := time.Now()
		contigs, err := b.facade()
		r.attempted++
		if err != nil {
			return fmt.Errorf("assembly: %w", err)
		}
		plain = append(plain, time.Since(t0).Seconds())
		if got := digest(contigs); got != want {
			r.fail("contig digest %s differs from the warm-up run's %s", got, want)
		}
	}
	var samples []layerSample
	start = time.Now()
	for len(samples) == 0 || time.Since(start) < r.seconds/2 {
		m, contigs, err := b.staged(t, len(samples)+1)
		r.attempted++
		if err != nil {
			return fmt.Errorf("staged assembly: %w", err)
		}
		samples = append(samples, m)
		if got := digest(contigs); got != want {
			r.fail("stage-by-stage contig digest %s differs from the facade's %s", got, want)
		}
	}
	med := medians(samples)
	setLayerMetrics(r, med, len(samples))
	r.set("trace.overhead_ratio", med["facade_s"]/median(plain), "ratio", len(samples))
	for _, l := range busyLayers {
		r.set(l+".speedup", 0, "ratio", 0)
	}
	if b.spec.scaling {
		procs := runtime.GOMAXPROCS(1)
		m, contigs, err := b.staged(t, len(samples)+1)
		runtime.GOMAXPROCS(procs)
		r.attempted++
		if err != nil {
			return fmt.Errorf("staged assembly at GOMAXPROCS=1: %w", err)
		}
		if got := digest(contigs); got != want {
			r.fail("GOMAXPROCS=1 contig digest %s differs from the facade's %s", got, want)
		}
		for _, l := range busyLayers {
			if med["busy."+l] > 0 {
				r.set(l+".speedup", m["busy."+l]/med["busy."+l], "ratio", 1)
			}
		}
	}
	return writeTrace(r, t)
}

// medians takes each key's median across samples.
func medians(samples []layerSample) layerSample {
	vals := map[string][]float64{}
	for _, s := range samples {
		for k, v := range s {
			vals[k] = append(vals[k], v)
		}
	}
	out := layerSample{}
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

// layerMetrics lists every per-layer metric with its unit. Metrics a
// workload's layers do not produce are reported as 0.
var layerMetrics = []struct{ name, unit string }{
	{"preprocess.busy_s", "s"}, {"preprocess.alloc_mb", "MB"},
	{"overlap.busy_s", "s"}, {"overlap.candgen_s", "s"}, {"overlap.verify_s", "s"},
	{"overlap.candidates", "count"}, {"overlap.records", "count"}, {"overlap.accept_ratio", "ratio"},
	{"overlap.alloc_mb", "MB"},
	{"graph.busy_s", "s"}, {"graph.alloc_mb", "MB"},
	{"coarsen.busy_s", "s"}, {"coarsen.levels", "count"}, {"coarsen.alloc_mb", "MB"},
	{"hybrid.busy_s", "s"}, {"hybrid.nodes", "count"}, {"hybrid.alloc_mb", "MB"},
	{"partition.busy_s", "s"}, {"partition.edge_cut", "count"}, {"partition.alloc_mb", "MB"},
	{"assembly.digraph_s", "s"}, {"assembly.driver_s", "s"}, {"assembly.transitive_s", "s"},
	{"assembly.containment_s", "s"}, {"assembly.errors_s", "s"}, {"assembly.traverse_s", "s"},
	{"assembly.contigs_s", "s"}, {"assembly.task_skew", "ratio"}, {"assembly.alloc_mb", "MB"},
	{"dist.wire_mb", "MB"}, {"dist.calls", "count"}, {"dist.faults", "count"},
	{"dna.parse_s", "s"}, {"jobs.queue_wait_s.p50", "s"}, {"jobs.exec_s.p50", "s"},
	{"jobs.overhead_s.p50", "s"}, {"checkpoint.mb_written", "MB"},
	{"trace.unattributed_share", "ratio"},
}

// setLayerMetrics reports every per-layer metric from med (0 where absent)
// and derives overlap.verify_s and overlap.accept_ratio.
func setLayerMetrics(r *runner, med layerSample, n int) {
	if med["overlap.busy_s"] > 0 {
		med["overlap.verify_s"] = med["overlap.busy_s"] - med["overlap.candgen_s"]
	}
	if med["overlap.candidates"] > 0 {
		med["overlap.accept_ratio"] = med["overlap.records"] / med["overlap.candidates"]
	}
	for _, lm := range layerMetrics {
		r.set(lm.name, med[lm.name], lm.unit, n)
	}
}

// writeTrace writes the Chrome trace next to the other outputs.
func writeTrace(r *runner, t *tracer) error {
	path := filepath.Join(r.out, fmt.Sprintf("trace-%s-seed%d.json", r.workload, r.seed))
	if err := t.write(path, r.prov); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("# trace written to %s\n", path)
	return nil
}
