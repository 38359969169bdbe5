// Package overlap implements the Focus parallel read alignment stage
// (paper §II.B): read subsets are paired, each reference subset is indexed
// for seed lookup (a sorted packed k-mer table standing in for the paper's
// suffix array), query reads are decomposed into k-mers, reference reads
// collecting enough k-mer hits are aligned with banded Needleman–Wunsch,
// and accepted overlaps are recorded as the edge list of the overlap
// graph G0.
//
// The hot path is allocation-free steady-state: each worker owns a scratch
// (candidate table, diagonal votes, alignment DP buffers) reused across
// every query of every subset-pair job it processes. See DESIGN.md
// ("Seed index & scratch reuse") for the layout and the ownership rules.
package overlap

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"focus/internal/align"
	"focus/internal/dna"
	"focus/internal/graph"
	"focus/internal/par"
)

// Record is one accepted overlap between reads A and B (indices into the
// preprocessed read set). For Kind == SuffixPrefix, A precedes B; for
// PrefixSuffix, B precedes A; containment kinds mark redundant reads.
type Record struct {
	A, B     int32
	Kind     align.Kind
	Len      int32
	Identity float32
	Diag     int32 // offset of B's start in A coordinates
}

// Config controls overlap detection.
type Config struct {
	K           int // seed k-mer length
	Step        int // distance between sampled query k-mers (1 = every k-mer)
	MinKmerHits int // hits a reference read needs before alignment is tried
	MaxOccur    int // ignore k-mers occurring more often in a subset (repeat masking); <=0 = unlimited
	Align       align.Config
	Workers     int // concurrent subset-pair jobs; <=0 = GOMAXPROCS
	// Seeding selects the query sampling strategy; SeedMinimizer uses
	// (MinimizerW, K)-minimizers instead of every Step-th k-mer.
	Seeding    Seeding
	MinimizerW int // minimizer window in k-mers (default 8)
	// RPCRetries is the per-job failover budget of the distributed mode:
	// a job failed by a worker at the application level is retried on up
	// to this many other workers before the error counts. Ignored by the
	// local mode.
	RPCRetries int
}

// DefaultConfig returns a configuration tuned for 100 bp reads, with the
// paper's acceptance thresholds (50 bp, 90% identity).
func DefaultConfig() Config {
	return Config{
		K:           16,
		Step:        4,
		MinKmerHits: 2,
		MaxOccur:    64,
		Align:       align.DefaultConfig(),
		Workers:     0,
	}
}

// scratch is the reusable per-worker state of the alignment inner loop.
// One scratch is owned by exactly one goroutine at a time; reusing it
// across jobs keeps the steady-state loop free of heap allocations.
type scratch struct {
	align align.Scratch // DP score/trace buffers for banded NW

	// Candidate accumulation, keyed by subset-local read index. gen is a
	// generation counter bumped per query so the table is "cleared" in
	// O(1): entries whose gen lags are stale.
	gen     uint32
	cands   []candState
	touched []int32 // local reads first-hit this query, in hit order

	minimKms []minimKm // minimizer seeding: per-read k-mer hash buffer
	seedOffs []int     // minimizer seeding: selected offsets buffer

	records []Record // per-job output staging (caller copies)

	// countOnly short-circuits the alignment: surviving candidates are
	// tallied into candTotal instead of verified (CountCandidates).
	countOnly bool
	candTotal int64
}

// candState accumulates seed evidence for one reference read against the
// current query: hit count plus diagonal votes for modal-diagonal
// estimation. diags is reused across generations by truncation, so after
// warm-up no per-query allocation happens.
type candState struct {
	gen   uint32
	hits  int32
	diags []diagVote
}

type diagVote struct{ d, n int32 }

// reset prepares the scratch for a reference subset of n reads.
func (sc *scratch) reset(n int) {
	if len(sc.cands) < n {
		sc.cands = make([]candState, n)
		sc.gen = 0
	}
}

// nextQuery starts a new query generation, handling uint32 wraparound.
func (sc *scratch) nextQuery() {
	sc.gen++
	if sc.gen == 0 { // wrapped: stale entries could alias, hard-clear
		for i := range sc.cands {
			sc.cands[i].gen = 0
		}
		sc.gen = 1
	}
	sc.touched = sc.touched[:0]
}

// FindOverlaps detects all pairwise overlaps in reads, processing
// subset pairs in parallel. Records are canonicalized (A < B) and
// deduplicated, and returned sorted by (A, B).
func FindOverlaps(reads []dna.Read, subsets int, cfg Config) ([]Record, error) {
	return FindOverlapsCtx(nil, reads, subsets, cfg)
}

// FindOverlapsCtx is FindOverlaps bounded by ctx: a cancel abandons the
// sweep at the next query boundary in every worker (the workers keep
// draining the job channel so the feeder never blocks) and returns the
// context's cause. A nil ctx never cancels.
func FindOverlapsCtx(ctx context.Context, reads []dna.Read, subsets int, cfg Config) ([]Record, error) {
	if err := validate(cfg, subsets); err != nil {
		return nil, err
	}
	recs, _, err := findOverlaps(ctx, reads, subsets, cfg, buildRefIndex, false)
	return recs, err
}

// CountCandidates runs only the candidate-generation half of the overlap
// stage — seed sampling, index build, repeat masking, hit accumulation
// with modal-diagonal consensus, and the MinKmerHits filter; everything
// up to but excluding alignment verification — and returns the number of
// candidate pairs that would be verified. The benchmarks time this to
// split overlap time into candidate generation and verification.
func CountCandidates(reads []dna.Read, subsets int, cfg Config) (int64, error) {
	if err := validate(cfg, subsets); err != nil {
		return 0, err
	}
	_, n, err := findOverlaps(nil, reads, subsets, cfg, buildRefIndex, true)
	return n, err
}

// splitSubsets assigns reads to contiguous subsets, returning per-subset
// global-id and sequence slices (shared by the local and distributed
// drivers).
func splitSubsets(reads []dna.Read, subsets int) (subIDs [][]int32, subSeqs [][][]byte) {
	bounds := make([]int, subsets+1)
	for i := 0; i <= subsets; i++ {
		bounds[i] = i * len(reads) / subsets
	}
	subIDs = make([][]int32, subsets)
	subSeqs = make([][][]byte, subsets)
	for s := 0; s < subsets; s++ {
		n := bounds[s+1] - bounds[s]
		ids := make([]int32, n)
		seqs := make([][]byte, n)
		for i := 0; i < n; i++ {
			ids[i] = int32(bounds[s] + i)
			seqs[i] = reads[bounds[s]+i].Seq
		}
		subIDs[s], subSeqs[s] = ids, seqs
	}
	return subIDs, subSeqs
}

// findOverlaps is the subset-pair driver: one index per reference subset
// (built by build), queries probe it per sampled k-mer. countOnly skips
// alignment verification and returns only the surviving-candidate total.
func findOverlaps(ctx context.Context, reads []dna.Read, subsets int, cfg Config, build indexBuilder, countOnly bool) ([]Record, int64, error) {
	gate := par.GateFor(ctx)
	// Each subset-pair job indexes/scans a whole subset — heavy enough
	// that any second job justifies a second worker (grain 1). The
	// governor also caps explicit counts at GOMAXPROCS.
	workers := par.Workers(cfg.Workers, subsets*(subsets+1)/2, 1)

	subIDs, subSeqs := splitSubsets(reads, subsets)

	// Build one index per subset (reused across pair jobs).
	indexes := make([]refIndex, subsets)
	var iwg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for s := 0; s < subsets; s++ {
		iwg.Add(1)
		go func(s int) {
			defer iwg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if gate.Stopped() {
				return
			}
			indexes[s] = build(subSeqs[s], subIDs[s], cfg.K)
		}(s)
	}
	iwg.Wait()
	// A skipped index build leaves a nil index the pair jobs would probe.
	if gate.Stopped() {
		return nil, 0, gate.Err()
	}

	type pair struct{ q, r int }
	jobs := make([]pair, 0, subsets*(subsets+1)/2)
	for i := 0; i < subsets; i++ {
		for j := i; j < subsets; j++ {
			jobs = append(jobs, pair{i, j})
		}
	}

	var candTotal int64
	results := make([][]Record, len(jobs))
	var wg sync.WaitGroup
	jobCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := new(scratch) // worker-owned; never shared
			sc.countOnly = countOnly
			for jid := range jobCh {
				if gate.Stopped() {
					continue // keep draining so the feeder never blocks
				}
				j := jobs[jid]
				recs := alignQueriesGate(subIDs[j.q], subSeqs[j.q], indexes[j.r], cfg, sc, gate)
				out := make([]Record, len(recs))
				copy(out, recs)
				results[jid] = out
			}
			atomic.AddInt64(&candTotal, sc.candTotal)
		}()
	}
	for jid := range jobs {
		jobCh <- jid
	}
	close(jobCh)
	wg.Wait()
	if gate.Stopped() {
		return nil, 0, gate.Err()
	}

	return mergeRecords(results), candTotal, nil
}

// validate checks the configuration shared by the local and distributed
// drivers.
func validate(cfg Config, subsets int) error {
	if cfg.K <= 0 || cfg.K > dna.MaxK {
		return fmt.Errorf("overlap: k=%d out of range", cfg.K)
	}
	if subsets <= 0 {
		return fmt.Errorf("overlap: %d subsets", subsets)
	}
	return nil
}

// alignQueries aligns the given query reads against the reference index,
// returning canonicalized records. The returned slice is staged in the
// scratch and is only valid until the scratch's next job: callers that
// retain it must copy.
func alignQueries(queryIDs []int32, querySeqs [][]byte, ref refIndex, cfg Config, sc *scratch) []Record {
	return alignQueriesGate(queryIDs, querySeqs, ref, cfg, sc, nil)
}

// alignQueriesGate is the gate-aware core: the gate is polled once per
// query (a query's seed scan + alignments is the natural grain). A stopped
// gate returns the partial staging, which the ctx-taking caller discards.
func alignQueriesGate(queryIDs []int32, querySeqs [][]byte, ref refIndex, cfg Config, sc *scratch, gate *par.Gate) []Record {
	if cfg.Step <= 0 {
		cfg.Step = 1
	}
	sc.reset(ref.numReads())
	sc.records = sc.records[:0]
	for qi2, qi := range queryIDs {
		if gate.Stopped() {
			return sc.records
		}
		qseq := querySeqs[qi2]
		sc.nextQuery()
		forEachSeed(sc, qseq, cfg, func(km dna.Kmer, off int) {
			hits, masked := ref.seedHits(km, cfg.MaxOccur)
			if masked {
				return // repeat-masked seed
			}
			for _, h := range hits {
				if ref.readID(h.read) == qi {
					continue
				}
				c := &sc.cands[h.read]
				if c.gen != sc.gen {
					c.gen = sc.gen
					c.hits = 0
					c.diags = c.diags[:0]
					sc.touched = append(sc.touched, h.read)
				}
				c.hits++
				// diag: offset of reference read start in query coords.
				d := int32(off) - h.off
				voted := false
				for i := range c.diags {
					if c.diags[i].d == d {
						c.diags[i].n++
						voted = true
						break
					}
				}
				if !voted {
					c.diags = append(c.diags, diagVote{d: d, n: 1})
				}
			}
		})
		for _, local := range sc.touched {
			c := &sc.cands[local]
			if c.hits < int32(cfg.MinKmerHits) {
				continue
			}
			// Only emit canonical direction to halve the work; the pair
			// (g, q) will not be separately attempted because dedup is on
			// canonical (A,B) anyway, and alignment is symmetric.
			// Modal diagonal, ties broken toward the smaller diagonal.
			var diag int32
			best := int32(-1)
			for _, v := range c.diags {
				if v.n > best || (v.n == best && v.d < diag) {
					best, diag = v.n, v.d
				}
			}
			if sc.countOnly {
				sc.candTotal++
				continue
			}
			g := ref.readID(local)
			ov, ok := sc.align.OverlapOnDiagonal(qseq, ref.readSeq(local), int(diag), cfg.Align)
			if !ok {
				continue
			}
			rec := Record{A: qi, B: g, Kind: ov.Kind, Len: int32(ov.Length), Identity: float32(ov.Identity), Diag: int32(ov.Diag)}
			if rec.A > rec.B {
				rec = rec.Flip()
			}
			sc.records = append(sc.records, rec)
		}
	}
	return sc.records
}

// Flip returns the record with A and B exchanged and the geometry
// re-expressed from the new A's point of view.
func (r Record) Flip() Record {
	f := Record{A: r.B, B: r.A, Len: r.Len, Identity: r.Identity, Diag: -r.Diag}
	switch r.Kind {
	case align.KindSuffixPrefix:
		f.Kind = align.KindPrefixSuffix
	case align.KindPrefixSuffix:
		f.Kind = align.KindSuffixPrefix
	case align.KindAContainsB:
		f.Kind = align.KindBContainsA
	case align.KindBContainsA:
		f.Kind = align.KindAContainsB
	default:
		f.Kind = r.Kind
	}
	return f
}

// BuildGraph constructs the overlap graph G0 from the records: one node
// per read, one edge per overlap, weighted by alignment length
// (paper §II.C).
func BuildGraph(numReads int, records []Record) (*graph.Graph, error) {
	return BuildGraphPar(numReads, records, 0)
}

// BuildGraphPar is BuildGraph with an explicit worker count for the CSR
// edge merge (<= 0 means GOMAXPROCS). Output is identical at any count.
func BuildGraphPar(numReads int, records []Record, workers int) (*graph.Graph, error) {
	b := graph.NewBuilder(numReads)
	for _, r := range records {
		if err := b.AddEdge(int(r.A), int(r.B), int64(r.Len)); err != nil {
			return nil, err
		}
	}
	return b.BuildPar(workers), nil
}

// BuildGraphParCtx is BuildGraphPar bounded by ctx: the CSR edge merge
// bails at its next pipeline-stage or chunk boundary on cancel and the
// context's cause is returned. A nil ctx never cancels.
func BuildGraphParCtx(ctx context.Context, numReads int, records []Record, workers int) (*graph.Graph, error) {
	b := graph.NewBuilder(numReads)
	for _, r := range records {
		if err := b.AddEdge(int(r.A), int(r.B), int64(r.Len)); err != nil {
			return nil, err
		}
	}
	return b.BuildParCtx(ctx, workers)
}
