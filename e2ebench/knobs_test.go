package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"sort"
	"testing"

	"focus"
)

// allowedKnobs are the only focus.Config fields a workload may set away
// from focus.DefaultConfig(): the trim of the simulated adapter. Data set,
// scale, seed, k, worker count and transport are workload inputs, not
// Config fields.
var allowedKnobs = []string{"Preprocess.Trim5"}

// configDiff lists the paths of the fields where a and b differ.
func configDiff(prefix string, a, b reflect.Value) []string {
	if a.Kind() != reflect.Struct {
		if reflect.DeepEqual(a.Interface(), b.Interface()) {
			return nil
		}
		return []string{prefix}
	}
	var out []string
	for i := 0; i < a.NumField(); i++ {
		name := a.Type().Field(i).Name
		if prefix != "" {
			name = prefix + "." + name
		}
		if !a.Type().Field(i).IsExported() {
			// Not comparable through reflection: flag it so a new
			// unexported field gets a deliberate look.
			out = append(out, name+" (unexported)")
			continue
		}
		out = append(out, configDiff(name, a.Field(i), b.Field(i))...)
	}
	return out
}

func TestWorkloadsUseDefaultConfig(t *testing.T) {
	def := focus.DefaultConfig()
	for _, w := range workloads {
		diff := configDiff("", reflect.ValueOf(w.config), reflect.ValueOf(def))
		for _, f := range diff {
			if !slices.Contains(allowedKnobs, f) {
				t.Errorf("%s sets focus.Config.%s away from DefaultConfig()", w.name, f)
			}
		}
		if w.config.Preprocess.Trim5 != simulatedAdapter {
			t.Errorf("%s: Preprocess.Trim5 = %d, want the simulated adapter length %d", w.name, w.config.Preprocess.Trim5, simulatedAdapter)
		}
	}
}

func TestConfigDiffFindsNestedField(t *testing.T) {
	cfg := focus.DefaultConfig()
	cfg.Overlap.MinKmerHits++
	cfg.Subsets++
	got := configDiff("", reflect.ValueOf(cfg), reflect.ValueOf(focus.DefaultConfig()))
	sort.Strings(got)
	if want := []string{"Overlap.MinKmerHits", "Subsets"}; !slices.Equal(got, want) {
		t.Fatalf("configDiff = %v, want %v", got, want)
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// workloads this program runs, less the by-hand ones, and the per-layer
// metrics it reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, benchmarkWorkloads()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, benchmarkWorkloads())
	}
	want := map[string]string{"trace.overhead_ratio": "ratio", "eval.n50_bp": "bp", "eval.misassemblies": "count"}
	for _, m := range layerMetrics {
		want[m.name] = m.unit
	}
	for _, l := range busyLayers {
		want[l+".speedup"] = "ratio"
	}
	got := map[string]string{}
	for _, m := range spec.PerLayer {
		got[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", got, want)
	}
}
