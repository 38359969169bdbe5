package overlap

import (
	"math/rand"
	"testing"

	"focus/internal/dna"
)

// benchReads builds a deterministic read set with genuine overlap
// structure: tiling reads over a random genome, so every consecutive
// pair overlaps and the index sees realistic seed multiplicity.
func benchReads(b *testing.B, n int) []dna.Read {
	b.Helper()
	genome := randGenome(1234, 40*n+100)
	reads := tilingReads(genome, 100, 40)
	if len(reads) < n {
		b.Fatalf("only %d reads generated, want %d", len(reads), n)
	}
	return reads[:n]
}

func benchmarkFindOverlaps(b *testing.B, cfg Config, build indexBuilder) {
	reads := benchReads(b, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, _, err := findOverlaps(nil, reads, 4, cfg, build, false)
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) == 0 {
			b.Fatal("no overlaps found")
		}
	}
}

// benchIndexes are the seed indexes the benchmarks contrast: the
// production k-mer table and the suffix-array oracle it replaced.
var benchIndexes = []struct {
	name  string
	build indexBuilder
}{
	{"kmer-table", buildRefIndex},
	{"suffix-array", buildSAIndex},
}

// BenchmarkFindOverlaps contrasts the k-mer table with the suffix-array
// oracle on identical inputs (the acceptance gate for the packed k-mer
// table: >=2x throughput and >=10x lower allocs/op).
func BenchmarkFindOverlaps(b *testing.B) {
	for _, ix := range benchIndexes {
		b.Run(ix.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Workers = 4
			benchmarkFindOverlaps(b, cfg, ix.build)
		})
	}
}

// BenchmarkSeedLookup measures one seed probe (index hit resolution only,
// steady-state) for each index mode over the same subset.
func BenchmarkSeedLookup(b *testing.B) {
	reads := benchReads(b, 256)
	cfg := DefaultConfig()
	ids := make([]int32, len(reads))
	seqs := make([][]byte, len(reads))
	for i, r := range reads {
		ids[i] = int32(i)
		seqs[i] = r.Seq
	}
	// Probe k-mers drawn from the reads themselves so most probes hit.
	var probes []dna.Kmer
	for _, r := range reads[:32] {
		it := dna.NewKmerIter(r.Seq, cfg.K)
		for {
			km, _, ok := it.Next()
			if !ok {
				break
			}
			probes = append(probes, km)
		}
	}
	for _, bi := range benchIndexes {
		b.Run(bi.name, func(b *testing.B) {
			ix := bi.build(seqs, ids, cfg.K)
			total := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hits, _ := ix.seedHits(probes[i%len(probes)], cfg.MaxOccur)
				total += len(hits)
			}
			if total == 0 {
				b.Fatal("no hits resolved")
			}
		})
	}
}

// BenchmarkIndexBuild measures per-subset index construction.
func BenchmarkIndexBuild(b *testing.B) {
	reads := benchReads(b, 256)
	cfg := DefaultConfig()
	ids := make([]int32, len(reads))
	seqs := make([][]byte, len(reads))
	for i, r := range reads {
		ids[i] = int32(i)
		seqs[i] = r.Seq
	}
	for _, bi := range benchIndexes {
		b.Run(bi.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ix := bi.build(seqs, ids, cfg.K); ix.numReads() != len(reads) {
					b.Fatal("bad index")
				}
			}
		})
	}
}

// repeatHeavyReads builds the overlapbench geometry: a high-copy
// interspersed repeat whose seeds all cross MaxOccur, tiled into
// error-free 100 bp reads.
func repeatHeavyReads(copies int) []dna.Read {
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
	for i := 0; i < copies; i++ {
		genome = append(genome, seq(600)...)
		genome = append(genome, repeat...)
	}
	return tilingReads(genome, 100, 40)
}

// BenchmarkCandGen times candidate generation alone on the
// repeat-heavy overlapbench geometry with dense seeding.
func BenchmarkCandGen(b *testing.B) {
	reads := repeatHeavyReads(96)
	cfg := DefaultConfig()
	cfg.Step = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CountCandidates(reads, 3, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
