package overlap

import (
	"reflect"
	"testing"
	"time"

	"focus/internal/align"
	"focus/internal/dist"
	"focus/internal/dna"
)

// alignService exposes AlignPair for the distributed tests without
// importing the assembly package (which would cycle).
type alignService struct{}

func (s *alignService) AlignPair(args *AlignPairArgs, reply *AlignPairReply) error {
	reply.Records = AlignPair(args)
	return nil
}

func newAlignService() interface{} { return &alignService{} }

// TestFindOverlapsDistributedMatchesLocal: records from subset-pair jobs
// run by RPC workers are byte-identical to the local driver's on plain
// tiling reads.
func TestFindOverlapsDistributedMatchesLocal(t *testing.T) {
	checkDistributedMatchesLocal(t, tilingReads(randGenome(150, 2500), 100, 35))
}

// TestSpGEMMDistributedMatchesLocal runs the same check on a read set with
// reverse-complement pairs and containments. The name dates from the
// removed SpGEMM engine, whose worker branch it first covered; the read set
// now goes through the k-mer table driver, the only one left.
func TestSpGEMMDistributedMatchesLocal(t *testing.T) {
	checkDistributedMatchesLocal(t, rcReadSet(42, 2200))
}

func checkDistributedMatchesLocal(t *testing.T, reads []dna.Read) {
	t.Helper()
	cfg := testConfig()
	for _, subsets := range []int{1, 3} {
		local, err := FindOverlaps(reads, subsets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(local) == 0 {
			t.Fatal("degenerate test: no overlaps")
		}
		pool, err := dist.NewLocalPool(2, newAlignService)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := FindOverlapsDistributed(pool, reads, subsets, cfg)
		pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(remote) != len(local) {
			t.Fatalf("subsets=%d: %d distributed records vs %d local", subsets, len(remote), len(local))
		}
		for i := range local {
			if remote[i] != local[i] {
				t.Fatalf("subsets=%d record %d: %+v vs %+v", subsets, i, remote[i], local[i])
			}
		}
	}
}

func TestFindOverlapsDistributedValidation(t *testing.T) {
	pool, err := dist.NewLocalPool(1, newAlignService)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	cfg := testConfig()
	cfg.K = 0
	if _, err := FindOverlapsDistributed(pool, nil, 2, cfg); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := FindOverlapsDistributed(pool, nil, 0, testConfig()); err == nil {
		t.Error("0 subsets accepted")
	}
}

// TestMergeRecordsKeepsDistinctKinds is the regression test for the old
// (A, B)-only dedup key, which dropped every record after the first for a
// read pair — a pair reported with both a suffix-prefix overlap and a
// containment lost one of them, and which one depended on job order.
func TestMergeRecordsKeepsDistinctKinds(t *testing.T) {
	sp := Record{A: 1, B: 2, Kind: align.KindSuffixPrefix, Len: 60, Identity: 0.95, Diag: 40}
	ct := Record{A: 1, B: 2, Kind: align.KindAContainsB, Len: 80, Identity: 0.92, Diag: 10}
	got := mergeRecords([][]Record{{sp}, {ct}})
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2 (distinct Kinds must both survive): %+v", len(got), got)
	}
	// And the result is independent of job order.
	swapped := mergeRecords([][]Record{{ct}, {sp}})
	if !reflect.DeepEqual(got, swapped) {
		t.Fatalf("merge depends on job order:\n%+v\nvs\n%+v", got, swapped)
	}
}

// TestMergeRecordsPicksMostCredibleDuplicate checks that true duplicates —
// same (A, B, Kind) seen by two jobs — collapse to the higher-identity
// record regardless of which job reported first.
func TestMergeRecordsPicksMostCredibleDuplicate(t *testing.T) {
	weak := Record{A: 3, B: 7, Kind: align.KindSuffixPrefix, Len: 55, Identity: 0.91, Diag: 45}
	strong := Record{A: 3, B: 7, Kind: align.KindSuffixPrefix, Len: 60, Identity: 0.97, Diag: 40}
	for _, lists := range [][][]Record{{{weak}, {strong}}, {{strong}, {weak}}} {
		got := mergeRecords(lists)
		if len(got) != 1 {
			t.Fatalf("got %d records, want 1: %+v", len(got), got)
		}
		if got[0] != strong {
			t.Fatalf("kept %+v, want the higher-identity %+v", got[0], strong)
		}
	}
}

// TestFindOverlapsDistributedFallsBackWhenPoolDead checks graceful
// degradation: with every worker hung and evicted, the distributed mode
// completes locally and matches the local result.
func TestFindOverlapsDistributedFallsBackWhenPoolDead(t *testing.T) {
	genome := randGenome(152, 1200)
	reads := tilingReads(genome, 100, 40)
	cfg := testConfig()

	local, err := FindOverlaps(reads, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hang := dist.ChaosConfig{Seed: 9, HangProb: 1, HangFor: 2 * time.Second}
	pool, err := dist.NewLocalChaosPool(2, newAlignService, dist.Options{
		CallTimeout: 150 * time.Millisecond,
		MaxFailures: 1,
		Logf:        t.Logf,
	}, func(w int) *dist.ChaosConfig { c := hang; c.Seed += int64(w); return &c })
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	remote, err := FindOverlapsDistributed(pool, reads, 2, cfg)
	if err != nil {
		t.Fatalf("distributed mode did not fall back: %v", err)
	}
	if !reflect.DeepEqual(remote, local) {
		t.Fatalf("fallback records diverge from local: %d vs %d records", len(remote), len(local))
	}
}

func TestAlignPairDirect(t *testing.T) {
	genome := randGenome(151, 600)
	reads := tilingReads(genome, 100, 50)
	var ids []int32
	var seqs [][]byte
	for i, r := range reads {
		ids = append(ids, int32(i))
		seqs = append(seqs, r.Seq)
	}
	recs := AlignPair(&AlignPairArgs{
		RefIDs: ids, RefSeqs: seqs,
		QueryIDs: ids, QuerySeqs: seqs,
		Cfg: testConfig(),
	})
	// Consecutive reads overlap by 50 bp: all must be found.
	found := map[[2]int32]bool{}
	for _, r := range recs {
		found[[2]int32{r.A, r.B}] = true
	}
	for i := 0; i+1 < len(reads); i++ {
		if !found[[2]int32{int32(i), int32(i + 1)}] {
			t.Fatalf("missing overlap %d-%d", i, i+1)
		}
	}
}
