package stats

import (
	"math"
	"testing"
	"testing/quick"

	"beesim/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestOnlineAgainstDirect(t *testing.T) {
	xs := []float64{2.11, 2.14, 2.15, 2.13, 2.14, 2.16, 2.12}
	var o Online
	for _, x := range xs {
		o.Add(x)
	}
	if o.n != len(xs) {
		t.Fatalf("n = %d, want %d", o.n, len(xs))
	}
	var m float64
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	if !almostEq(o.Mean(), m, 1e-12) {
		t.Errorf("mean = %v, want %v", o.Mean(), m)
	}
	direct := 0.0
	for _, x := range xs {
		direct += (x - m) * (x - m)
	}
	direct /= float64(len(xs) - 1)
	if !almostEq(o.Var(), direct, 1e-12) {
		t.Errorf("var = %v, want %v", o.Var(), direct)
	}
}

func TestOnlineEmptyAndSingle(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Var() != 0 || o.StdDev() != 0 {
		t.Fatal("zero-value Online must report zeros")
	}
	o.Add(5)
	if o.Var() != 0 {
		t.Fatalf("single observation variance = %v, want 0", o.Var())
	}
	if o.Mean() != 5 {
		t.Fatal("single observation summary wrong")
	}
}

func TestCrossovers(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	a := []float64{0, 1, 2, 3, 4}
	b := []float64{2, 2, 2, 2, 2} // a crosses b between x=1 and x=2 (equality at 2)
	cs, err := Crossovers(xs, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 {
		t.Fatalf("crossovers = %d, want 1 (%v)", len(cs), cs)
	}
	if !almostEq(cs[0].X, 2, 1e-12) {
		t.Fatalf("crossover at %v, want 2", cs[0].X)
	}
}

func TestCrossoversNone(t *testing.T) {
	xs := []float64{0, 1, 2}
	a := []float64{5, 6, 7}
	b := []float64{1, 2, 3}
	cs, err := Crossovers(xs, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 0 {
		t.Fatalf("unexpected crossovers %v", cs)
	}
}

func TestCrossoversErrors(t *testing.T) {
	if _, err := Crossovers([]float64{0, 0}, []float64{1, 2}, []float64{2, 1}); err == nil {
		t.Error("non-increasing xs did not error")
	}
	if _, err := Crossovers([]float64{0}, []float64{1, 2}, []float64{2, 1}); err == nil {
		t.Error("mismatched lengths did not error")
	}
}

func TestOnlineMergeMatchesSequential(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw) + 2
		r := rng.New(seed)
		var whole, left, right Online
		for i := 0; i < n; i++ {
			x := r.Gaussian(10, 3)
			whole.Add(x)
			if i < n/2 {
				left.Add(x)
			} else {
				right.Add(x)
			}
		}
		left.merge(&right)
		return left.n == whole.n &&
			almostEq(left.Mean(), whole.Mean(), 1e-9) &&
			almostEq(left.Var(), whole.Var(), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStdDevEmpty(t *testing.T) {
	if mean(nil) != 0 || stdDev(nil) != 0 {
		t.Fatal("empty mean/stdDev must be 0")
	}
}
