package hgpart

import (
	"math/rand"
	"testing"

	"mediumgrain/internal/hypergraph"
)

// verts returns a net-free hypergraph on n vertices carrying label —
// all a level permutation reads.
func verts(n int, label []int32) *hypergraph.Hypergraph {
	return &hypergraph.Hypergraph{NumVerts: n, Label: label}
}

// TestPermMatchesRandPerm proves the scratch-backed permutation is
// byte-for-byte the sequence rand.Perm returns AND consumes the rng
// stream identically — the property that lets fmPass and coarsening
// replace their per-pass rand.Perm allocations without moving a single
// result bit.
func TestPermMatchesRandPerm(t *testing.T) {
	sc := &Scratch{}
	for seed := int64(0); seed < 20; seed++ {
		for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
			ref := rand.New(rand.NewSource(seed))
			got := rand.New(rand.NewSource(seed))

			want := ref.Perm(n)
			have := sc.perm(got, verts(n, nil))
			if len(want) != len(have) {
				t.Fatalf("seed %d n %d: length %d != %d", seed, n, len(have), len(want))
			}
			for i := range want {
				if want[i] != have[i] {
					t.Fatalf("seed %d n %d: perm[%d] = %d, want %d", seed, n, i, have[i], want[i])
				}
			}
			// The streams must stay aligned after the draw, or every
			// later random choice of a pass would diverge.
			if ref.Int63() != got.Int63() {
				t.Fatalf("seed %d n %d: rng streams diverged after perm", seed, n)
			}
		}
	}
}

// TestPermNilScratch checks the allocate-fresh fallback produces the
// same sequence.
func TestPermNilScratch(t *testing.T) {
	var sc *Scratch
	ref := rand.New(rand.NewSource(7))
	got := rand.New(rand.NewSource(7))
	want := ref.Perm(257)
	have := sc.perm(got, verts(257, nil))
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("nil scratch perm[%d] = %d, want %d", i, have[i], want[i])
		}
	}
}

// TestPermBufferReuse proves consecutive perms reuse the scratch buffer
// (the zero-alloc property) while remaining correct permutations.
func TestPermBufferReuse(t *testing.T) {
	sc := &Scratch{}
	rng := rand.New(rand.NewSource(3))
	a := sc.perm(rng, verts(100, nil))
	first := &a[0]
	b := sc.perm(rng, verts(50, nil))
	if &b[0] != first {
		t.Fatal("second perm did not reuse the scratch buffer")
	}
	seen := make([]bool, 50)
	for _, v := range b {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", b)
		}
		seen[v] = true
	}
}

// TestPermThroughLabel proves a labelled level's permutation is exactly
// label∘rand.Perm from the same draws, leaving the stream aligned — the
// property that keeps locality-ordered coarse levels bit-identical to
// the numbering their logical ids record.
func TestPermThroughLabel(t *testing.T) {
	sc := &Scratch{}
	for seed := int64(0); seed < 20; seed++ {
		for _, n := range []int{0, 1, 2, 9, 300} {
			label := make([]int32, n)
			for i, v := range rand.New(rand.NewSource(seed + 100)).Perm(n) {
				label[i] = int32(v)
			}
			ref := rand.New(rand.NewSource(seed))
			got := rand.New(rand.NewSource(seed))
			want := ref.Perm(n)
			have := sc.perm(got, verts(n, label))
			for i := range want {
				if have[i] != int(label[want[i]]) {
					t.Fatalf("seed %d n %d: perm[%d] = %d, want label[%d] = %d", seed, n, i, have[i], want[i], label[want[i]])
				}
			}
			if ref.Int63() != got.Int63() {
				t.Fatalf("seed %d n %d: rng streams diverged after labelled perm", seed, n)
			}
		}
	}
}
