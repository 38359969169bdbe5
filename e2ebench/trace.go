package main

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// assembly (or one job) share a track; Parent links the span that caused
// it (0 = top level).
type span struct {
	Name    string
	Layer   string
	Track   int
	ID      int
	Parent  int
	Start   time.Time
	End     time.Time
	AllocMB float64
	Args    map[string]any
}

func (s span) seconds() float64 { return s.End.Sub(s.Start).Seconds() }

// tracer records spans in memory; write dumps them as Chrome trace-event
// JSON when the benchmark ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// heapAllocBytes reads the process's cumulative heap allocation counter
// without stopping the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeapBytes collects garbage and returns the heap still reachable.
func liveHeapBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(track, parent int, layer, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	// AllocMB holds the allocation counter at the start until end.
	t.spans = append(t.spans, span{Name: name, Layer: layer, Track: track, ID: id, Parent: parent,
		Start: time.Now(), AllocMB: float64(heapAllocBytes())})
	return id
}

// end closes span id, attaches args, and returns the finished span.
// Allocation is the process-wide counter's delta, so it includes
// in-process workers serving the call.
func (t *tracer) end(id int, args map[string]any) span {
	now := time.Now()
	alloc := float64(heapAllocBytes())
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	s.AllocMB = (alloc - s.AllocMB) / 1e6
	s.Args = args
	return *s
}

// do runs f inside a span.
func (t *tracer) do(track, parent int, layer, name string, f func() error) (span, error) {
	id := t.begin(track, parent, layer, name)
	err := f()
	return t.end(id, nil), err
}

// write dumps the spans as a Chrome trace-event file ("X" complete
// events, microsecond timestamps, one thread row per track), loadable in
// Perfetto or about:tracing.
func (t *tracer) write(path string, meta map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "alloc_mb": s.AllocMB}
		for k, v := range s.Args {
			args[k] = v
		}
		evs = append(evs, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start.Sub(t.epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Track, Args: args,
		})
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms", "otherData": meta})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
