package overlap

import (
	"sort"

	"focus/internal/dna"
	"focus/internal/suffixarray"
)

// saIndex is the paper's seed index: a Larsson–Sadakane suffix array
// over the concatenation of one read subset, with '#' separators so
// matches cannot span reads. Production uses the packed k-mer table; this
// implementation is the reference oracle the equivalence tests compare it
// against, through the same refIndex seam and the same driver.
type saIndex struct {
	sa *suffixarray.Array
	k  int
	// starts[i] is the offset of read i (subset-local) in the text.
	starts []int
	reads  []int32
	seqs   [][]byte
}

// buildSAIndex is an indexBuilder for the suffix-array oracle.
func buildSAIndex(seqs [][]byte, global []int32, k int) refIndex {
	total := 0
	for _, s := range seqs {
		total += len(s) + 1
	}
	text := make([]byte, 0, total)
	ix := &saIndex{k: k, reads: global, seqs: seqs, starts: make([]int, 0, len(seqs))}
	for _, s := range seqs {
		ix.starts = append(ix.starts, len(text))
		text = append(text, s...)
		text = append(text, '#')
	}
	ix.sa = suffixarray.New(text)
	return ix
}

func (ix *saIndex) numReads() int              { return len(ix.reads) }
func (ix *saIndex) readID(local int32) int32   { return ix.reads[local] }
func (ix *saIndex) readSeq(local int32) []byte { return ix.seqs[local] }

// locate maps a text position to (subset-local read, offset within read).
func (ix *saIndex) locate(pos int) (read, off int) {
	i := sort.Search(len(ix.starts), func(i int) bool { return ix.starts[i] > pos }) - 1
	return i, pos - ix.starts[i]
}

// seedHits allocates its pattern and hit buffers per call: the index is
// shared by concurrent pair jobs, and oracle speed does not matter.
func (ix *saIndex) seedHits(km dna.Kmer, maxOccur int) ([]seedHit, bool) {
	maxHits := -1
	if maxOccur > 0 {
		maxHits = maxOccur + 1
	}
	positions := ix.sa.Lookup(km.AppendBytes(nil, ix.k), maxHits)
	if dna.RepeatMasked(len(positions), maxOccur) {
		return nil, true
	}
	hits := make([]seedHit, 0, len(positions))
	for _, pos := range positions {
		r, off := ix.locate(pos)
		hits = append(hits, seedHit{read: int32(r), off: int32(off)})
	}
	return hits, false
}
