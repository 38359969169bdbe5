// Package spmat holds the sparse-row accumulator of the assembly
// transitive-reduction kernel, phrased as Guidi et al.'s masked sparse
// product R = A·A (BELLA/diBELLA): a per-row map that switches between a
// dense stamp array and open-addressing hashing by the row's size.
package spmat

// Acc selects the per-row accumulator mode.
type Acc uint8

const (
	// AccAuto switches per row by estimated work (BELLA's heavy-row
	// rule): heavy rows use the generation-stamped dense accumulator,
	// light rows over wide key spaces use open-addressing hashing.
	AccAuto Acc = iota
	// AccDense forces the dense accumulator (tests).
	AccDense
	// AccHash forces the hash accumulator (tests).
	AccHash
)

// useDense implements the heavy-row switch: a row whose work estimate is
// a sizable fraction of the key space (or a small key space outright)
// amortizes the dense stamp array; sparse rows over wide spaces keep the
// working set at O(work) via hashing.
func useDense(acc Acc, work, numKeys int) bool {
	switch acc {
	case AccDense:
		return true
	case AccHash:
		return false
	}
	return numKeys <= 4096 || work >= numKeys/8
}

// StampAccum is a generation-stamped int32→int32 map with the dense/hash
// accumulator switch (useDense): heavy rows over small key spaces use a
// directly indexed stamp array with an O(1) generation clear, light rows
// over wide spaces use open-addressing hashing sized to the row so the
// working set stays O(row). It backs the assembly transitive-reduction
// kernel's direct-successor index — the Diag(v,·) diagonal of the masked
// product R = A·A — and is reusable by any row kernel that needs a cheap
// resettable sparse map.
//
// A StampAccum is owned by exactly one goroutine at a time; buffers grow
// on demand and amortize across rows. Mode selection cannot change
// results: Set/Get have identical last-write-wins semantics on both
// paths.
type StampAccum struct {
	gen   uint32
	dense []stampSlot // dense path: indexed directly by key
	htab  []stampSlot // hash path: open addressing on key
	hmask uint32
	isDen bool
}

// stampSlot is one accumulator entry; the dense path ignores key.
type stampSlot struct {
	gen uint32
	key int32
	val int32
}

// Reset starts a new row: numKeys is the key space size (dense keys must
// be in [0, numKeys)), sets is an upper bound on the Set calls of the row
// (sizes the hash table at ≤50% load), and acc forces a mode for tests
// (AccAuto applies the heavy-row rule).
func (a *StampAccum) Reset(numKeys, sets int, acc Acc) {
	a.isDen = useDense(acc, sets, numKeys)
	if a.isDen {
		// Fresh slots carry generation 0, which is never live (the wrap
		// handler below skips 0), so growth needs no clearing.
		if len(a.dense) < numKeys {
			a.dense = make([]stampSlot, numKeys)
		}
	} else {
		need := 16
		for need < 2*sets {
			need <<= 1
		}
		if len(a.htab) < need {
			a.htab = make([]stampSlot, need)
		}
		a.hmask = uint32(len(a.htab) - 1)
	}
	a.gen++
	if a.gen == 0 { // uint32 wrap: stale stamps could alias, hard-clear
		for i := range a.dense {
			a.dense[i].gen = 0
		}
		for i := range a.htab {
			a.htab[i].gen = 0
		}
		a.gen = 1
	}
}

// Set binds key to val for the current row (last write wins).
func (a *StampAccum) Set(key, val int32) {
	if a.isDen {
		a.dense[key] = stampSlot{gen: a.gen, key: key, val: val}
		return
	}
	h := (uint32(key) * 0x9E3779B1) & a.hmask
	for {
		s := &a.htab[h]
		if s.gen != a.gen || s.key == key {
			*s = stampSlot{gen: a.gen, key: key, val: val}
			return
		}
		h = (h + 1) & a.hmask
	}
}

// Get returns the value bound to key in the current row.
func (a *StampAccum) Get(key int32) (int32, bool) {
	if a.isDen {
		s := &a.dense[key]
		if s.gen != a.gen {
			return 0, false
		}
		return s.val, true
	}
	h := (uint32(key) * 0x9E3779B1) & a.hmask
	for {
		s := &a.htab[h]
		if s.gen != a.gen {
			return 0, false
		}
		if s.key == key {
			return s.val, true
		}
		h = (h + 1) & a.hmask
	}
}
