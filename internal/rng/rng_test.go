package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestSeedSeparation(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical draws out of 1000", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	counts := make([]int, 5)
	for i := 0; i < 50000; i++ {
		counts[r.Intn(5)]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn(5) bucket %d has %d/50000 draws, want ~10000", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("Norm variance = %v, want ~1", variance)
	}
}

func TestGaussianScaling(t *testing.T) {
	r := New(17)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Gaussian(40, 2)
	}
	if mean := sum / n; math.Abs(mean-40) > 0.05 {
		t.Errorf("Gaussian(40,2) mean = %v, want ~40", mean)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(19)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(0, 0.5); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := New(23)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 36 {
		t.Fatalf("shuffle changed element multiset, sum = %d", sum)
	}
}

func TestRange(t *testing.T) {
	r := New(37)
	for i := 0; i < 10000; i++ {
		v := r.Range(-2, 3)
		if v < -2 || v >= 3 {
			t.Fatalf("Range(-2,3) = %v out of bounds", v)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(31)
	child := parent.split()
	// The child stream must not be a shifted copy of the parent stream.
	same := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split child repeated %d parent draws", same)
	}
}

func TestStreamDeterministicAndSeparated(t *testing.T) {
	// Pure function of (seed, stream): same inputs, same stream.
	a1, a2 := Stream(7, 42), Stream(7, 42)
	for i := 0; i < 100; i++ {
		if a1.Uint64() != a2.Uint64() {
			t.Fatal("Stream is not a pure function of its arguments")
		}
	}
	// Distinct stream ids (and distinct seeds) must not collide or
	// produce shifted copies.
	streams := []*Source{Stream(7, 0), Stream(7, 1), Stream(7, 2), Stream(8, 0)}
	draws := make(map[uint64]int)
	for si, s := range streams {
		for i := 0; i < 1000; i++ {
			v := s.Uint64()
			if prev, ok := draws[v]; ok {
				t.Fatalf("streams %d and %d repeated draw %x", prev, si, v)
			}
			draws[v] = si
		}
	}
	// Seeds derived for adjacent stream ids must differ in many bits.
	if StreamSeed(1, 0) == StreamSeed(1, 1) {
		t.Fatal("adjacent stream seeds collide")
	}
}
