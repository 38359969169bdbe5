package overlap

import (
	"math/rand"
	"sort"
	"testing"

	"focus/internal/dna"
)

// rcReadSet builds a randomized read set with the geometries the overlap
// stage must classify: tiling overlaps, reverse-complement pairs and
// contained reads.
func rcReadSet(seed int64, genomeLen int) []dna.Read {
	rng := rand.New(rand.NewSource(seed))
	genome := randGenome(seed, genomeLen)
	reads := tilingReads(genome, 100, 40)
	// Reverse-complement half of the tiling reads (preprocessing adds RC
	// mates in the real pipeline, so both orientations co-occur).
	for i := range reads {
		if rng.Intn(2) == 0 {
			reads[i].Seq = dna.ReverseComplement(reads[i].Seq)
		}
	}
	// Contained reads: short fragments cut from random positions.
	for i := 0; i < len(reads)/4; i++ {
		pos := rng.Intn(genomeLen - 70)
		frag := append([]byte(nil), genome[pos:pos+60+rng.Intn(10)]...)
		if rng.Intn(2) == 0 {
			dna.ReverseComplementInPlace(frag)
		}
		reads = append(reads, dna.Read{ID: "frag", Seq: frag})
	}
	return reads
}

// TestIndexingEquivalence asserts that FindOverlaps (the packed k-mer
// table, at workers 1/2/8) returns byte-identical, sorted records to the
// same driver run over the suffix-array oracle, on randomized read sets
// (including reverse-complement pairs and containments), across subset
// counts and seeding modes.
func TestIndexingEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"default", func(*Config) {}},
		{"minimizer", func(c *Config) { c.Seeding = SeedMinimizer }},
		{"maxoccur8", func(c *Config) { c.MaxOccur = 8 }},
		{"step1", func(c *Config) { c.Step = 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(60); seed < 64; seed++ {
				reads := rcReadSet(seed, 1800)
				for _, subsets := range []int{1, 3} {
					cfg := testConfig()
					tc.mut(&cfg)
					want, _, err := findOverlaps(nil, reads, subsets, cfg, buildSAIndex, false)
					if err != nil {
						t.Fatal(err)
					}
					if len(want) == 0 {
						t.Fatalf("seed=%d: no overlaps found at all", seed)
					}
					for _, workers := range []int{1, 2, 8} {
						cfg.Workers = workers
						got, err := FindOverlaps(reads, subsets, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != len(want) {
							t.Fatalf("seed=%d subsets=%d workers=%d: %d records vs %d (suffix array)", seed, subsets, workers, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("seed=%d subsets=%d workers=%d record %d: %+v vs %+v (suffix array)", seed, subsets, workers, i, got[i], want[i])
							}
						}
						if !sort.SliceIsSorted(got, func(i, j int) bool {
							if got[i].A != got[j].A {
								return got[i].A < got[j].A
							}
							return got[i].B < got[j].B
						}) {
							t.Fatalf("seed=%d workers=%d: records not sorted", seed, workers)
						}
					}
				}
			}
		})
	}
}

// TestCountCandidatesEngineAgreement: the k-mer table and the suffix-array
// oracle implement the same candidate-generation semantics, so the
// surviving-candidate totals must match exactly.
func TestCountCandidatesEngineAgreement(t *testing.T) {
	for seed := int64(5); seed < 8; seed++ {
		reads := rcReadSet(seed, 1600)
		for _, subsets := range []int{1, 3} {
			for _, mut := range []func(*Config){
				func(*Config) {},
				func(c *Config) { c.MaxOccur = 8 },
				func(c *Config) { c.Seeding = SeedMinimizer },
			} {
				cfg := testConfig()
				mut(&cfg)
				got, err := CountCandidates(reads, subsets, cfg)
				if err != nil {
					t.Fatal(err)
				}
				_, want, err := findOverlaps(nil, reads, subsets, cfg, buildSAIndex, true)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("seed=%d subsets=%d: %d candidates (kmer table) vs %d (suffix array)", seed, subsets, got, want)
				}
				if got == 0 {
					t.Fatalf("seed=%d subsets=%d: no candidates at all", seed, subsets)
				}
			}
		}
	}
}

// TestSeedHitsEquivalence compares the k-mer table against the
// suffix-array oracle at the probe level: identical occurrence sets and
// identical repeat-mask decisions for every k-mer of the indexed reads,
// including reads containing Ns.
func TestSeedHitsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		k := 4 + rng.Intn(12)
		numReads := 1 + rng.Intn(12)
		seqs := make([][]byte, numReads)
		ids := make([]int32, numReads)
		for i := range seqs {
			n := k/2 + rng.Intn(60) // some reads shorter than k
			s := make([]byte, n)
			for j := range s {
				if rng.Intn(20) == 0 {
					s[j] = 'N' // exercise invalid-window skipping
				} else {
					s[j] = "ACGT"[rng.Intn(4)]
				}
			}
			seqs[i] = s
			ids[i] = int32(100 + i)
		}
		kix := buildRefIndex(seqs, ids, k)
		six := buildSAIndex(seqs, ids, k)
		maxOccur := rng.Intn(4) // 0 = unlimited
		probe := func(km dna.Kmer) {
			h1, m1 := kix.seedHits(km, maxOccur)
			h2, m2 := six.seedHits(km, maxOccur)
			if m1 != m2 {
				t.Fatalf("trial=%d k=%d km=%s: masked %v (kmer) vs %v (sa)", trial, k, km.String(k), m1, m2)
			}
			s1 := append([]seedHit(nil), h1...)
			s2 := append([]seedHit(nil), h2...)
			less := func(s []seedHit) func(i, j int) bool {
				return func(i, j int) bool {
					if s[i].read != s[j].read {
						return s[i].read < s[j].read
					}
					return s[i].off < s[j].off
				}
			}
			sort.Slice(s1, less(s1))
			sort.Slice(s2, less(s2))
			if len(s1) != len(s2) {
				t.Fatalf("trial=%d k=%d km=%s: %d hits (kmer) vs %d (sa)", trial, k, km.String(k), len(s1), len(s2))
			}
			for i := range s1 {
				if s1[i] != s2[i] {
					t.Fatalf("trial=%d km=%s hit %d: %+v vs %+v", trial, km.String(k), i, s1[i], s2[i])
				}
			}
		}
		for _, s := range seqs {
			it := dna.NewKmerIter(s, k)
			for {
				km, _, ok := it.Next()
				if !ok {
					break
				}
				probe(km)
			}
		}
		// Random probes too (mostly absent k-mers).
		for i := 0; i < 50; i++ {
			probe(dna.Kmer(rng.Uint64() & (1<<(2*uint(k)) - 1)))
		}
	}
}

// TestRepeatThresholdBoundary pins the shared occurrence-cap semantics
// (dna.RepeatMasked) at the boundary for the k-mer table and the
// suffix-array oracle: a k-mer occurring exactly MaxOccur times is kept,
// one more occurrence masks it, and cap <= 0 never masks.
func TestRepeatThresholdBoundary(t *testing.T) {
	const cap = 3
	k := 4
	// "AAAA" occurs exactly cap times, "CCCC" cap+1 times, spread over
	// unique-tail reads so each occurrence is a distinct posting.
	seqs := [][]byte{
		[]byte("AAAAGGTT"), []byte("AAAATTGG"), []byte("AAAAGTGT"),
		[]byte("CCCCGGTT"), []byte("CCCCTTGG"), []byte("CCCCGTGT"), []byte("CCCCTGTG"),
	}
	ids := make([]int32, len(seqs))
	for i := range ids {
		ids[i] = int32(i)
	}
	aaaa, _ := dna.PackKmer([]byte("AAAA"), k)
	cccc, _ := dna.PackKmer([]byte("CCCC"), k)

	if dna.RepeatMasked(cap, cap) || !dna.RepeatMasked(cap+1, cap) || dna.RepeatMasked(1<<20, 0) || dna.RepeatMasked(1<<20, -1) {
		t.Fatal("dna.RepeatMasked boundary semantics changed")
	}

	for _, ix := range []struct {
		name  string
		build indexBuilder
	}{
		{"kmer-table", buildRefIndex},
		{"suffix-array", buildSAIndex},
	} {
		ref := ix.build(seqs, ids, k)
		if h, m := ref.seedHits(aaaa, cap); m || len(h) != cap {
			t.Errorf("%s: exactly-at-threshold k-mer dropped (hits=%d masked=%v)", ix.name, len(h), m)
		}
		if _, m := ref.seedHits(cccc, cap); !m {
			t.Errorf("%s: over-threshold k-mer kept", ix.name)
		}
		if h, m := ref.seedHits(cccc, 0); m || len(h) != cap+1 {
			t.Errorf("%s: cap=0 masked (hits=%d masked=%v)", ix.name, len(h), m)
		}
	}
}
