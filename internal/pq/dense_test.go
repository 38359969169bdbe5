package pq

import (
	"math/rand"
	"testing"
)

// refMax is the reference the queue is pinned against: a brute-force
// indexed max-queue whose Pop scans every item for the greatest priority,
// ties to the smaller id.
type refMax map[int]int64

func (r refMax) Push(id int, p int64) { r[id] = p }

func (r refMax) Update(id int, p int64) {
	if _, ok := r[id]; ok {
		r[id] = p
	}
}

func (r refMax) Remove(id int) bool {
	_, ok := r[id]
	delete(r, id)
	return ok
}

func (r refMax) Pop() (id int, priority int64, ok bool) {
	for i, p := range r {
		if !ok || p > priority || (p == priority && i < id) {
			id, priority, ok = i, p, true
		}
	}
	delete(r, id)
	return id, priority, ok
}

func (r refMax) Priority(id int) (int64, bool) {
	p, ok := r[id]
	return p, ok
}

// TestDenseMirrorsMax drives Dense and the refMax reference with the
// same random operation sequence and demands identical observable
// behaviour, including pop order and the tie-break to the smaller id.
func TestDenseMirrorsMax(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 64
		d := NewDense(n)
		m := refMax{}
		for op := 0; op < 2000; op++ {
			id := rng.Intn(n)
			switch rng.Intn(5) {
			case 0, 1:
				p := int64(rng.Intn(40) - 20)
				d.Push(id, p)
				m.Push(id, p)
			case 2:
				p := int64(rng.Intn(40) - 20)
				d.Update(id, p)
				m.Update(id, p)
			case 3:
				if d.Remove(id) != m.Remove(id) {
					t.Fatalf("seed %d op %d: Remove(%d) diverged", seed, op, id)
				}
			case 4:
				di, dp, dok := d.Pop()
				mi, mp, mok := m.Pop()
				if di != mi || dp != mp || dok != mok {
					t.Fatalf("seed %d op %d: Pop = (%d,%d,%v) vs (%d,%d,%v)", seed, op, di, dp, dok, mi, mp, mok)
				}
			}
			if d.Len() != len(m) {
				t.Fatalf("seed %d op %d: Len %d vs %d", seed, op, d.Len(), len(m))
			}
			dp, dok := d.Priority(id)
			mp, mok := m.Priority(id)
			if d.Contains(id) != mok {
				t.Fatalf("seed %d op %d: Contains(%d) diverged", seed, op, id)
			}
			if dp != mp || dok != mok {
				t.Fatalf("seed %d op %d: Priority(%d) diverged", seed, op, id)
			}
		}
		// Drain fully: pop order must match.
		for d.Len() > 0 {
			di, dp, _ := d.Pop()
			mi, mp, _ := m.Pop()
			if di != mi || dp != mp {
				t.Fatalf("seed %d drain: (%d,%d) vs (%d,%d)", seed, di, dp, mi, mp)
			}
		}
		if len(m) != 0 {
			t.Fatalf("seed %d: reference not drained", seed)
		}
	}
}

func TestDenseReset(t *testing.T) {
	d := NewDense(8)
	for i := 0; i < 8; i++ {
		d.Push(i, int64(i))
	}
	d.Reset()
	if d.Len() != 0 {
		t.Fatalf("Len after Reset = %d", d.Len())
	}
	for i := 0; i < 8; i++ {
		if d.Contains(i) {
			t.Fatalf("id %d still queued after Reset", i)
		}
	}
	d.Push(3, 7)
	if id, p, ok := d.Pop(); !ok || id != 3 || p != 7 {
		t.Fatalf("Pop after Reset = (%d,%d,%v)", id, p, ok)
	}
}
