package detrand

import (
	"math/rand"
	"testing"
)

// TestNewMatchesStdlibSeeding pins New to rand.New(rand.NewSource(seed)):
// committed repro artifacts depend on this exact mapping.
func TestNewMatchesStdlibSeeding(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, 1 << 40} {
		got := New(seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 16; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: New diverges from stdlib seeding: %d != %d", seed, i, g, w)
			}
		}
	}
}

// TestSplitIsolation verifies that exhausting a child stream does not perturb
// the parent: the parent's post-split draws depend only on how many splits
// were taken, not on what the children did.
func TestSplitIsolation(t *testing.T) {
	a := New(7)
	b := New(7)
	ca := Split(a)
	cb := Split(b)
	for i := 0; i < 100; i++ {
		ca.Int63() // drain one child heavily
	}
	cb.Int63() // barely touch the other
	for i := 0; i < 16; i++ {
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("draw %d: parent streams diverged after unequal child use: %d != %d", i, x, y)
		}
	}
}

// TestSplitSeedDeterministic pins the split chain itself: the same root seed
// always yields the same child seeds in the same order.
func TestSplitSeedDeterministic(t *testing.T) {
	r1, r2 := New(99), New(99)
	for i := 0; i < 8; i++ {
		if s1, s2 := SplitSeed(r1), SplitSeed(r2); s1 != s2 {
			t.Fatalf("split %d: nondeterministic child seed: %d != %d", i, s1, s2)
		}
	}
}

// TestSplitIsNewOfSplitSeed pins Split to its definition: the child stream
// is New of the seed SplitSeed would have drawn, and the parent advances by
// exactly that one draw.
func TestSplitIsNewOfSplitSeed(t *testing.T) {
	a, b := New(5), New(5)
	child := Split(a)
	want := New(SplitSeed(b))
	for i := 0; i < 16; i++ {
		if g, w := child.Int63(), want.Int63(); g != w {
			t.Fatalf("child draw %d: %d != %d", i, g, w)
		}
	}
	if g, w := a.Int63(), b.Int63(); g != w {
		t.Fatalf("parents diverged after one split: %d != %d", g, w)
	}
}
