package prefilter

import (
	"math/rand"
	"sort"
	"testing"
)

func TestMaxContribNoteMergeGet(t *testing.T) {
	a := NewMaxContrib(8)
	a.Note(2, 0.5)
	a.Note(2, 0.25) // lower: ignored
	a.Note(7, 1.0)
	b := NewMaxContrib(8)
	b.Note(2, 0.75)
	b.Note(3, 0.1)
	a.Merge(b)
	want := map[uint32]float32{0: 0, 2: 0.75, 3: 0.1, 7: 1.0}
	for idx, v := range want {
		if got := a.Get(idx); got != v {
			t.Errorf("Get(%d) = %v, want %v", idx, got, v)
		}
	}
	if got := a.Get(100); got != 0 {
		t.Errorf("out-of-range Get = %v, want 0", got)
	}
	if a.Dims() != 8 {
		t.Errorf("Dims = %d, want 8", a.Dims())
	}
}

func TestMaxContribMergeOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shards := make([]*MaxContrib, 4)
	for s := range shards {
		shards[s] = NewMaxContrib(32)
		for j := 0; j < 50; j++ {
			shards[s].Note(uint32(rng.Intn(32)), rng.Float32())
		}
	}
	fwd := NewMaxContrib(32)
	for _, s := range shards {
		fwd.Merge(s)
	}
	rev := NewMaxContrib(32)
	for i := len(shards) - 1; i >= 0; i-- {
		rev.Merge(shards[i])
	}
	for i := 0; i < 32; i++ {
		if fwd.Get(uint32(i)) != rev.Get(uint32(i)) {
			t.Fatalf("merge order changed feature %d: %v vs %v", i, fwd.Get(uint32(i)), rev.Get(uint32(i)))
		}
	}
}

func TestOrderTermsByImpact(t *testing.T) {
	imp := []float64{0.5, 2, 0.5, 3, 0}
	order := OrderTermsByImpact(imp, nil)
	want := []int{3, 1, 0, 2, 4} // desc impact, ties by ascending position
	if len(order) != len(want) {
		t.Fatalf("len = %d, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestBoundHeapPopsDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := make(BoundHeap, 0, 200)
	for i := 0; i < 200; i++ {
		// Coarse values force UB ties, exercising the id tie-break.
		h = append(h, Bound{UB: float64(rng.Intn(10)), ID: int32(i)})
	}
	ref := make([]Bound, len(h))
	copy(ref, h)
	sort.Slice(ref, func(a, b int) bool { return better(ref[a], ref[b]) })
	h.Init()
	for i := range ref {
		got := h.Pop()
		if got != ref[i] {
			t.Fatalf("pop %d = %+v, want %+v", i, got, ref[i])
		}
	}
}

func TestBoundHeapSelectBest(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40)
		h := make(BoundHeap, n)
		for i := range h {
			h[i] = Bound{UB: float64(rng.Intn(6)), ID: int32(rng.Intn(1000))}
		}
		ref := make([]Bound, n)
		copy(ref, h)
		sort.Slice(ref, func(a, b int) bool { return better(ref[a], ref[b]) })
		k := rng.Intn(n + 3)
		h.SelectBest(k)
		if k > n {
			k = n
		}
		got := make([]Bound, n)
		copy(got, h)
		sort.Slice(got[:k], func(a, b int) bool { return better(got[a], got[b]) })
		sort.Slice(got[k:], func(a, b int) bool { return better(got[k+a], got[k+b]) })
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("trial %d (n=%d k=%d): position %d = %+v, want %+v", trial, n, k, i, got[i], ref[i])
			}
		}
	}
}
