package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"focus"
	"focus/internal/assembly"
	"focus/internal/dist"
	"focus/internal/dna"
	"focus/internal/jobs"
)

// serve-small-jobs: small FASTQ files written in set-up, submitted by a
// closed-loop HTTP client to a resident jobs.Server with checkpointing on.
const (
	serveScale    = 0.1
	serveCoverage = 12
	serveK        = 4
	// serveClients is one: with two concurrent jobs on the 2-CPU reference
	// host, throughput swung by ±17% over six 20-second runs, against ±5%
	// with one (README.md).
	serveClients = 1
	serveWorkers = 2
	// rssJobsPerClient is the fixed load peak_rss_mb is read over: each
	// client runs every file twice.
	rssJobsPerClient = 6
)

// serveFloors bound the quality over the three files.
var serveFloors = floors{minGenomeFraction: 0.90, maxMisassemblies: 25}

// jobFile is one FASTQ input with its expected result: the contigs of a
// direct focus.AssembleOnPool run on the same file on a one-worker pool
// (each job's view has max_workers=1).
type jobFile struct {
	path    string
	mbases  float64
	digest  string
	quality quality
}

func serveSetup(cfg focus.Config, seed int64, dir string) ([]jobFile, error) {
	ref, err := dist.NewLocalPool(1, assembly.NewService)
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	var files []jobFile
	for id := 1; id <= 3; id++ {
		com, rs, err := dataSet(id, serveScale, serveCoverage, seed)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("D%d.fastq", id))
		if err := writeFASTQ(path, rs.Reads); err != nil {
			return nil, err
		}
		reads, err := dna.ReadsFromFile(path)
		if err != nil {
			return nil, err
		}
		res, _, err := focus.AssembleOnPool(reads, cfg, serveK, ref)
		if err != nil {
			return nil, fmt.Errorf("reference assembly of D%d: %w", id, err)
		}
		q, err := evaluate(res.Contigs, references(com))
		if err != nil {
			return nil, err
		}
		files = append(files, jobFile{path: path, mbases: float64(rs.TotalBases()) / 1e6, digest: digest(res.Contigs), quality: q})
	}
	return files, nil
}

func writeFASTQ(path string, reads []dna.Read) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := dna.WriteFASTQ(w, reads); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// jobSample is one completed job as a client saw it.
type jobSample struct {
	latency float64 // POST sent to terminal event received
	mbases  float64
	status  jobs.Status
}

// service is the resident master under test and its HTTP front.
type service struct {
	url  string
	srv  *jobs.Server
	hs   *http.Server
	fl   *fleet
	done chan struct{}
	cl   *http.Client
}

func startService(cfg focus.Config, root string) (*service, error) {
	fl, err := newLocalFleet(serveWorkers)
	if err != nil {
		return nil, err
	}
	srv, err := jobs.NewServer(fl.pool, jobs.Options{Root: root, Template: cfg})
	if err != nil {
		fl.close()
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		fl.close()
		return nil, err
	}
	s := &service{url: "http://" + lis.Addr().String(), srv: srv, hs: &http.Server{Handler: srv.Handler()},
		fl: fl, done: make(chan struct{}), cl: &http.Client{}}
	go func() {
		defer close(s.done)
		if err := s.hs.Serve(lis); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "e2ebench: http:", err)
		}
	}()
	return s, nil
}

func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
	s.cl.CloseIdleConnections()
	s.srv.Close()
	s.fl.close()
}

// job submits one file, follows its event stream to the terminal state
// and checks the contigs against the file's reference digest.
func (s *service) job(t *tracer, track int, f jobFile) (jobSample, error) {
	var root int
	if t != nil {
		root = t.begin(track, 0, "run", "job")
	}
	step := func(name string, fn func() error) error {
		if t == nil {
			return fn()
		}
		_, err := t.do(track, root, "jobs", name, fn)
		return err
	}
	start := time.Now()
	var id string
	err := step("POST /jobs", func() error {
		body, _ := json.Marshal(jobs.Spec{Name: filepath.Base(f.path), InputPath: f.path, K: serveK, MaxWorkers: 1})
		resp, err := s.cl.Post(s.url+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			msg, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(msg))
		}
		var created map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
			return err
		}
		id = created["id"]
		return nil
	})
	var last jobs.Status
	if err == nil {
		err = step("GET /jobs/{id}/events", func() error {
			resp, err := s.cl.Get(s.url + "/jobs/" + id + "/events")
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("GET events: %s", resp.Status)
			}
			dec := json.NewDecoder(resp.Body)
			for {
				var st jobs.Status
				if err := dec.Decode(&st); err == io.EOF {
					break
				} else if err != nil {
					return err
				}
				last = st
			}
			if !last.State.Terminal() {
				return fmt.Errorf("event stream of %s ended in state %s", id, last.State)
			}
			return nil
		})
	}
	lat := time.Since(start).Seconds()
	if t != nil {
		t.end(root, map[string]any{"job": id, "file": filepath.Base(f.path), "state": last.State.String()})
	}
	if err != nil {
		return jobSample{}, err
	}
	if last.State != jobs.Done {
		return jobSample{}, fmt.Errorf("job %s on %s ended %s: %s", id, filepath.Base(f.path), last.State, last.Error)
	}
	contigs, err := s.srv.Result(id)
	if err != nil {
		return jobSample{}, err
	}
	if got := digest(contigs); got != f.digest {
		return jobSample{}, fmt.Errorf("job %s on %s: contig digest %s, direct AssembleOnPool gave %s", id, filepath.Base(f.path), got, f.digest)
	}
	return jobSample{latency: lat, mbases: f.mbases, status: last}, nil
}

// loadResult is one closed-loop phase: every client submits, waits for the
// terminal event, and submits again until the phase's time is up.
type loadResult struct {
	samples []jobSample
	wall    float64
	// unattributed is the clients' mean share of wall time outside job
	// spans (POST to terminal event): result checks and loop glue.
	unattributed float64
}

func (s *service) load(r *runner, t *tracer, files []jobFile, d time.Duration, perClient int) loadResult {
	var mu sync.Mutex
	var res loadResult
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cstart := time.Now()
			var inJobs float64
			for n := 0; (d > 0 && time.Since(start) < d) || n < perClient; n++ {
				smp, err := s.job(t, c+1, files[(c+n)%len(files)])
				inJobs += smp.latency
				mu.Lock()
				r.attempted++
				if err != nil {
					r.fail("%v", err)
				} else {
					res.samples = append(res.samples, smp)
				}
				mu.Unlock()
			}
			mu.Lock()
			res.unattributed += (time.Since(cstart).Seconds() - inJobs) / time.Since(cstart).Seconds() / serveClients
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.wall = time.Since(start).Seconds()
	return res
}

func runServeSmallJobs(r *runner, cfg focus.Config) error {
	dir := filepath.Join(r.out, fmt.Sprintf("serve-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	var files []jobFile
	setup, err := repeatSetup(func() error {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		var err error
		files, err = serveSetup(cfg, r.seed, dir)
		return err
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	var q quality
	for _, f := range files {
		q.n50 += f.quality.n50 / float64(len(files))
		q.genomeFraction += f.quality.genomeFraction / float64(len(files))
		q.misassemblies += f.quality.misassemblies
	}
	r.quality(q, serveFloors, len(files))

	root := filepath.Join(dir, "root")
	svc, err := startService(cfg, root)
	if err != nil {
		return fmt.Errorf("start service: %w", err)
	}
	defer svc.stop()
	// Warm-up: each client runs every file once.
	svc.load(r, nil, files, 0, len(files))
	if r.trace {
		return svc.traced(r, files, root)
	}

	// The server keeps every Done job's result while it lives, so over a
	// fixed time its heap grows with the jobs completed. peak_rss_mb is
	// therefore read over a fixed number of jobs, before the timed window.
	resetPeakRSS()
	svc.load(r, nil, files, 0, rssJobsPerClient)
	rss := peakRSSMB()

	live0 := liveHeapBytes()
	a0 := heapAllocBytes()
	res := svc.load(r, nil, files, r.seconds, 0)
	a1 := heapAllocBytes()
	n := len(res.samples)
	kept := float64(liveHeapBytes()) - float64(live0)
	fmt.Printf("# retained heap: %.2f MB over %d jobs, %.1f KB per job\n", kept/1e6, n, kept/1e3/float64(max(n, 1)))
	var lat []float64
	var mb float64
	for _, s := range res.samples {
		lat = append(lat, s.latency)
		mb += s.mbases
	}
	r.set("run_s.p50", median(lat), "s", n)
	r.set("run_s.p90", quantile(lat, 0.9), "s", n)
	r.set("mbases_per_s", mb/res.wall, "Mbases/s", n)
	r.set("setup_s", setup.median, "s", setup.n)
	r.set("peak_rss_mb", rss, "MB", serveClients*rssJobsPerClient)
	r.set("alloc_mb_per_run", float64(a1-a0)/1e6/float64(max(n, 1)), "MB", n)
	return nil
}

// traced runs the closed loop untraced for half the run (the overhead
// baseline), then with a span per job and per HTTP call for the other
// half, and reports the serving layers: job queue wait and execution from
// the server's Status timestamps, client overhead around them, FASTQ
// parsing, checkpoint bytes and pool traffic.
func (s *service) traced(r *runner, files []jobFile, root string) error {
	plain := s.load(r, nil, files, r.seconds/2, 0)
	t := newTracer()
	calls0, wire0, faults0 := s.fl.pool.Completions(), s.fl.wire.Load(), s.fl.faults()
	ck0, err := dirBytes(root)
	if err != nil {
		return err
	}
	res := s.load(r, t, files, r.seconds/2, 0)
	ck1, err := dirBytes(root)
	if err != nil {
		return err
	}
	n := len(res.samples)
	var lat, plainLat, wait, exec, overhead []float64
	for _, smp := range res.samples {
		st := smp.status
		lat = append(lat, smp.latency)
		wait = append(wait, float64(st.StartedAt-st.SubmittedAt)/1e9)
		exec = append(exec, float64(st.FinishedAt-st.StartedAt)/1e9)
		overhead = append(overhead, smp.latency-float64(st.FinishedAt-st.SubmittedAt)/1e9)
	}
	for _, smp := range plain.samples {
		plainLat = append(plainLat, smp.latency)
	}
	// FASTQ parsing as each job does it, timed on the benchmark's own
	// calls after the load (three per file).
	var parse []float64
	for _, f := range files {
		var per []float64
		for i := 0; i < 3; i++ {
			if _, err := t.do(0, 0, "dna", "dna.ReadsFromFile", func() error {
				t0 := time.Now()
				_, err := dna.ReadsFromFile(f.path)
				per = append(per, time.Since(t0).Seconds())
				return err
			}); err != nil {
				return err
			}
		}
		parse = append(parse, median(per))
	}
	med := layerSample{
		"dna.parse_s":              mean(parse),
		"jobs.queue_wait_s.p50":    median(wait),
		"jobs.exec_s.p50":          median(exec),
		"jobs.overhead_s.p50":      median(overhead),
		"checkpoint.mb_written":    float64(ck1-ck0) / 1e6 / float64(max(n, 1)),
		"dist.wire_mb":             float64(s.fl.wire.Load()-wire0) / 1e6 / float64(max(n, 1)),
		"dist.calls":               float64(s.fl.pool.Completions()-calls0) / float64(max(n, 1)),
		"dist.faults":              float64(s.fl.faults() - faults0),
		"trace.unattributed_share": res.unattributed,
	}
	setLayerMetrics(r, med, n)
	r.set("trace.overhead_ratio", median(lat)/median(plainLat), "ratio", n)
	for _, l := range busyLayers {
		r.set(l+".speedup", 0, "ratio", 0)
	}
	return writeTrace(r, t)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
