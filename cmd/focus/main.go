// Command focus is the end-to-end assembler CLI: it reads FASTA/FASTQ,
// runs the full Focus pipeline (preprocess, overlap alignment, multilevel
// + hybrid graph construction, partitioning, distributed trimming and
// traversal) and writes contigs as FASTA.
//
// On SIGINT/SIGTERM the run is canceled gracefully: every stage unwinds
// at its next grain boundary, in-flight RPCs are severed, and — with
// -checkpoint-dir set — a best-effort checkpoint of the last completed
// assembly phase is written so -resume can continue the run. The process
// then exits with code 3 (interrupted but resumable). A second signal, or
// a cancel that fails to unwind within -grace, forces an immediate exit
// with code 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"focus"
	"focus/internal/assembly"
	"focus/internal/dist"
	"focus/internal/dna"
	"focus/internal/graphio"
	"focus/internal/polish"
	"focus/internal/scaffold"
)

// exitResumable is the exit code of a run interrupted by signal, deadline
// or watchdog: incomplete, but resumable via -resume when checkpointing
// is enabled. Distinct from 1 (failure) and 130 (forced kill).
const exitResumable = 3

var errSignal = fmt.Errorf("focus: interrupted by signal: %w", context.Canceled)

// watchSignals cancels ctx on the first SIGINT/SIGTERM and force-exits on
// the second (or when the cancel has not unwound within grace). The
// returned stop func detaches the handler once the run completes.
func watchSignals(ctx context.Context, grace time.Duration) (context.Context, func()) {
	ctx, cancel := context.WithCancelCause(ctx)
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case sig := <-sigs:
			fmt.Fprintf(os.Stderr, "focus: %s: canceling run (up to %v); signal again to force exit\n", sig, grace)
			cancel(errSignal)
			var timeC <-chan time.Time
			if grace > 0 {
				t := time.NewTimer(grace)
				defer t.Stop()
				timeC = t.C
			}
			select {
			case <-sigs:
			case <-timeC:
				fmt.Fprintln(os.Stderr, "focus: cancel did not unwind in time; forcing exit")
			case <-done:
				return
			}
			os.Exit(130)
		case <-done:
		}
	}()
	return ctx, func() {
		signal.Stop(sigs)
		close(done)
		cancel(nil)
	}
}

func main() {
	var (
		in        = flag.String("in", "", "input reads (.fastq or .fasta)")
		out       = flag.String("out", "contigs.fasta", "output contig FASTA")
		parts     = flag.Int("partitions", 4, "number of graph partitions (power of two)")
		workers   = flag.Int("workers", 4, "number of in-process workers")
		addrs     = flag.String("worker-addrs", "", "comma-separated TCP worker addresses (overrides -workers)")
		trim5     = flag.Int("trim5", 0, "fixed 5' trim length")
		trim3     = flag.Int("trim3", 0, "fixed 3' trim length")
		minQ      = flag.Float64("minq", 12, "sliding-window minimum mean quality")
		subsets   = flag.Int("subsets", 4, "read subsets for parallel alignment")
		seedK     = flag.Int("k", 16, "seed k-mer length for overlap detection")
		minOvl    = flag.Int("min-overlap", 50, "minimum overlap length (bp)")
		minIdent  = flag.Float64("min-identity", 0.90, "minimum overlap identity")
		quietFlag = flag.Bool("quiet", false, "suppress progress output")
		variants  = flag.Bool("variants", false, "call variants from hybrid-graph bubbles (before bubble popping)")
		saveOvl   = flag.String("save-overlaps", "", "write overlap records to this file after alignment")
		loadOvl   = flag.String("load-overlaps", "", "skip alignment and load overlap records from this file")
		doScaf    = flag.Bool("scaffold", false, "input is mate-ordered paired reads: deduplicate strands and scaffold the contigs")
		insMean   = flag.Int("insert-mean", 400, "paired-end insert size mean (with -scaffold)")
		insSD     = flag.Int("insert-sd", 40, "paired-end insert size standard deviation (with -scaffold)")
		doPolish  = flag.Bool("polish", false, "deduplicate strands and polish contigs by read realignment before output")
		stateful  = flag.Bool("stateful", false, "use the stateful worker protocol (ship partitions once, then removal deltas)")
		distAlign = flag.Bool("distributed-align", false, "run read alignment on the worker pool instead of local goroutines")
		retries   = flag.Int("rpc-retries", 0, "failover retries per task after application-level worker errors (stateless protocols only)")
		callTO    = flag.Duration("call-timeout", 0, "per-RPC deadline; a worker exceeding it is disconnected and its task rescheduled (0 = no deadline)")
		maxFails  = flag.Int("max-worker-failures", 0, "consecutive transport failures before a worker is permanently evicted (0 = default 3)")
		phsEngine = flag.String("phase-engine", "csr", "graph-cleaning scan engine: csr (flat adjacency, masked-product transitive reduction) or map (reference walker); both produce identical removals")
		codec     = flag.String("codec", "auto", "RPC wire codec: auto (binary, falling back to gob per worker), binary (required), or gob")
		ckptDir   = flag.String("checkpoint-dir", "", "write crash-recovery checkpoints of the assembly phases to this directory")
		ckptEvery = flag.Int("checkpoint-every", 1, "checkpoint every Nth phase boundary (with -checkpoint-dir)")
		resume    = flag.Bool("resume", false, "resume the assembly phases from the newest valid checkpoint in -checkpoint-dir")
		jobID     = flag.String("job", "", "job id owning -checkpoint-dir; a mismatched owner fails the run instead of mixing two jobs' checkpoints (empty = no ownership check)")
		deadline  = flag.Duration("deadline", 0, "wall-clock budget for the whole run; on expiry the run is canceled like SIGINT (0 = unbounded)")
		watchdog  = flag.Duration("watchdog", 0, "cancel-or-kick window of the assembly progress watchdog: with no task completions for this long, stuck workers are kicked, then the run is canceled (0 = disarmed)")
		grace     = flag.Duration("grace", 10*time.Second, "unwind budget after SIGINT/SIGTERM before the exit is forced")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "focus: -in is required")
		flag.Usage()
		os.Exit(2)
	}

	reads, err := dna.ReadsFromFile(*in)
	if err != nil {
		fatal(err)
	}

	cfg := focus.DefaultConfig()
	cfg.Preprocess.Trim5 = *trim5
	cfg.Preprocess.Trim3 = *trim3
	cfg.Preprocess.MinQuality = *minQ
	cfg.Subsets = *subsets
	cfg.Overlap.K = *seedK
	cfg.Overlap.Align.MinLength = *minOvl
	cfg.Overlap.Align.MinIdentity = *minIdent
	cfg.Assembly.MinEdgeOverlap = *minOvl
	cfg.Assembly.MinEdgeIdentity = *minIdent
	cfg.Assembly.Stateful = *stateful
	cfg.Assembly.RPCRetries = *retries
	cfg.Overlap.RPCRetries = *retries
	cfg.CallVariants = *variants
	cfg.Dist.CallTimeout = *callTO
	cfg.Dist.MaxFailures = *maxFails
	cfg.Checkpoint = focus.Checkpoint{Dir: *ckptDir, Every: *ckptEvery, Resume: *resume, Job: *jobID}
	if *resume && *ckptDir == "" {
		fatal(fmt.Errorf("focus: -resume requires -checkpoint-dir"))
	}
	if *jobID != "" && *ckptDir == "" {
		fatal(fmt.Errorf("focus: -job requires -checkpoint-dir"))
	}
	sigCtx, stopSignals := watchSignals(context.Background(), *grace)
	defer stopSignals()
	cfg.Context = sigCtx
	cfg.Deadline = *deadline
	ctx, stopDeadline := cfg.RunContext()
	defer stopDeadline()
	cfg.Context = ctx
	cfg.Watchdog = assembly.WatchdogConfig{Window: *watchdog}
	if *ckptDir != "" {
		resumeHint = fmt.Sprintf("focus: resume with -resume -checkpoint-dir %s", *ckptDir)
	}
	switch *phsEngine {
	case "csr":
		cfg.Assembly.Engine = focus.PhaseEngineCSR
	case "map":
		cfg.Assembly.Engine = focus.PhaseEngineMap
	default:
		fatal(fmt.Errorf("focus: unknown -phase-engine %q (csr|map)", *phsEngine))
	}
	switch *codec {
	case "auto":
		cfg.Dist.Codec = dist.CodecAuto
	case "binary":
		cfg.Dist.Codec = dist.CodecBinary
	case "gob":
		cfg.Dist.Codec = dist.CodecGob
	default:
		fatal(fmt.Errorf("focus: unknown -codec %q (auto|binary|gob)", *codec))
	}

	var pool *dist.Pool
	if *addrs != "" {
		pool, err = dist.DialPoolOpts(strings.Split(*addrs, ","), cfg.Dist)
	} else {
		if *workers <= 0 {
			*workers = 1
		}
		pool, err = dist.NewLocalPoolOpts(*workers, assembly.NewService, cfg.Dist)
	}
	if err != nil {
		fatal(err)
	}
	defer pool.Close()

	var stages *focus.Stages
	if *loadOvl != "" {
		rf, err := os.Open(*loadOvl)
		if err != nil {
			fatal(err)
		}
		numReads, records, err := graphio.ReadRecords(rf)
		rf.Close()
		if err != nil {
			fatal(err)
		}
		stages, err = focus.BuildStagesFromRecords(reads, records, numReads, cfg)
		if err != nil {
			fatal(err)
		}
	} else if *distAlign {
		stages, err = focus.BuildStagesOnPool(reads, cfg, pool)
		if err != nil {
			fatal(err)
		}
	} else {
		stages, err = focus.BuildStages(reads, cfg)
		if err != nil {
			fatal(err)
		}
	}
	if *saveOvl != "" {
		wf, err := os.Create(*saveOvl)
		if err != nil {
			fatal(err)
		}
		if err := graphio.WriteRecords(wf, len(stages.Reads), stages.Records); err != nil {
			fatal(err)
		}
		if err := wf.Close(); err != nil {
			fatal(err)
		}
	}

	res, err := stages.Assemble(pool, *parts, pool.Size(), 1)
	if err != nil {
		fatal(err)
	}

	var polishStats polish.Stats
	if *doPolish {
		// Polishing needs unique anchors, so strand twins are removed
		// first (each region is assembled on both strands).
		kept := scaffold.Dedupe(res.Contigs, scaffold.DefaultConfig())
		sub := make([][]byte, len(kept))
		for i, ci := range kept {
			sub[i] = res.Contigs[ci]
		}
		res.Contigs, polishStats, err = polish.Polish(sub, stages.Reads, polish.DefaultConfig())
		if err != nil {
			fatal(err)
		}
		res.Stats = assembly.ComputeStats(res.Contigs)
	}

	outSeqs := res.Contigs
	outName := "contig"
	var scafRes *scaffold.Result
	if *doScaf {
		scfg := scaffold.DefaultConfig()
		scfg.InsertMean = *insMean
		scfg.InsertSD = *insSD
		scafRes, err = scaffold.Build(res.Contigs, reads, scfg)
		if err != nil {
			fatal(err)
		}
		outSeqs = scafRes.Sequences
		outName = "scaffold"
	}

	var contigs []dna.Read
	for i, c := range outSeqs {
		contigs = append(contigs, dna.Read{ID: fmt.Sprintf("%s_%05d len=%d", outName, i, len(c)), Seq: c})
	}
	of, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer of.Close()
	if err := dna.WriteFASTA(of, contigs, 80); err != nil {
		fatal(err)
	}

	if !*quietFlag {
		fmt.Printf("reads in:         %d\n", len(reads))
		fmt.Printf("reads kept (+rc): %d\n", len(stages.Reads))
		fmt.Printf("overlaps:         %d\n", len(stages.Records))
		fmt.Printf("overlap graph:    %d nodes, %d edges\n", stages.G0.NumNodes(), stages.G0.NumEdges())
		fmt.Printf("graph levels:     %d\n", len(stages.MSet.Levels))
		fmt.Printf("hybrid graph:     %d nodes, %d edges\n", stages.Hyb.G.NumNodes(), stages.Hyb.G.NumEdges())
		fmt.Printf("trim removed:     %d transitive, %d contained, %d false edges, %d tips/bubbles\n",
			res.Trim.TransitiveEdges, res.Trim.ContainedNodes, res.Trim.FalseEdges, res.Trim.DeadEndNodes)
		fmt.Printf("contigs:          %d (N50 %d bp, max %d bp, %d bases)\n",
			res.Stats.NumContigs, res.Stats.N50, res.Stats.MaxContig, res.Stats.TotalBases)
		if *doPolish {
			fmt.Printf("polish:           %d corrections from %d placed reads\n",
				polishStats.Corrections, polishStats.PlacedReads)
		}
		if scafRes != nil {
			st := assembly.ComputeStats(scafRes.Sequences)
			fmt.Printf("scaffolds:        %d from %d deduplicated contigs, %d link bundles (N50 %d bp, max %d bp)\n",
				st.NumContigs, len(scafRes.Kept), scafRes.Links, st.N50, st.MaxContig)
		}
		if *variants {
			fmt.Printf("variants:         %d called\n", len(res.Variants))
			for _, va := range res.Variants {
				fmt.Printf("  %s between nodes %d/%d (cov %d/%d, identity %.3f, %d mismatches)\n",
					va.Kind, va.AlleleA, va.AlleleB, va.CovA, va.CovB, va.Identity, va.Mismatches)
			}
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

// resumeHint, set once checkpointing is configured, is printed when an
// interrupted run leaves a resumable checkpoint behind.
var resumeHint string

// fatal prints err to stderr with exactly one "focus: " prefix (facade
// errors already carry it) and exits.
func fatal(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "focus: ") {
		msg = "focus: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	if focus.IsInterrupted(err) {
		if resumeHint != "" {
			fmt.Fprintln(os.Stderr, resumeHint)
		}
		os.Exit(exitResumable)
	}
	os.Exit(1)
}
