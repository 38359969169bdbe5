package overlap

import (
	"testing"

	"focus/internal/align"
	"focus/internal/dist"
)

// FuzzWireDecoders throws arbitrary bytes at the distributed-alignment
// Wire decoders (AlignPairArgs carries 2-bit packed sequences, the reply
// delta-coded records): no input may panic or allocate unbounded, and any
// accepted value must survive a re-encode/re-decode cycle.
func FuzzWireDecoders(f *testing.F) {
	args := &AlignPairArgs{
		RefIDs:    []int32{0, 2},
		RefSeqs:   [][]byte{[]byte("ACGTACGT"), []byte("GGGNACGT")},
		QueryIDs:  []int32{1},
		QuerySeqs: [][]byte{[]byte("TTTTACGT")},
		Cfg:       DefaultConfig(),
	}
	reply := &AlignPairReply{Records: []Record{
		{A: 0, B: 1, Kind: align.KindSuffixPrefix, Len: 50, Identity: 0.95, Diag: 3},
		{A: 1, B: 2, Kind: align.KindPrefixSuffix, Len: 80, Identity: 0.99, Diag: -7},
	}}
	f.Add(true, args.AppendTo(nil))
	// Non-default settings in every field of the wire Config layout, so
	// the seed exercises each byte the layout carries.
	full := *args
	full.Cfg.Seeding, full.Cfg.MinimizerW, full.Cfg.MaxOccur, full.Cfg.RPCRetries = SeedMinimizer, 5, 8, 2
	f.Add(true, full.AppendTo(nil))
	f.Add(false, reply.AppendTo(nil))
	f.Add(true, []byte{})
	f.Add(false, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, wantArgs bool, data []byte) {
		var w dist.Wire
		if wantArgs {
			w = &AlignPairArgs{}
		} else {
			w = &AlignPairReply{}
		}
		if err := w.DecodeFrom(data); err != nil {
			return
		}
		var again dist.Wire
		if wantArgs {
			again = &AlignPairArgs{}
		} else {
			again = &AlignPairReply{}
		}
		if err := again.DecodeFrom(w.AppendTo(nil)); err != nil {
			t.Fatalf("re-decode of accepted %T failed: %v", w, err)
		}
	})
}
