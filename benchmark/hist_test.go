package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The histogram's quantiles must stay within 1 % of the order statistic
// of the sorted sample, over nine decades of value.
func TestHistAgainstSortedSample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h hist
	ref := make([]int64, 200000)
	for i := range ref {
		ref[i] = int64(math.Exp(rng.Float64() * math.Log(1e9)))
		h.Record(ref[i])
	}
	sort.Slice(ref, func(a, b int) bool { return ref[a] < ref[b] })
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		rank := int(math.Ceil(q * float64(len(ref))))
		want := float64(ref[max(rank, 1)-1])
		got := h.Quantile(q)
		if math.Abs(got-want) > 0.01*want {
			t.Errorf("q=%g: histogram %.1f, sorted sample %.1f (off by %.2f %%)", q, got, want, 100*math.Abs(got-want)/want)
		}
	}
	if h.Count() != uint64(len(ref)) || h.Max() != ref[len(ref)-1] {
		t.Errorf("count %d max %d, want %d and %d", h.Count(), h.Max(), len(ref), ref[len(ref)-1])
	}
}

// Buckets tile the value range without gaps, every value maps into the
// bucket whose bounds contain it, and no bucket is wider than 1/128 of
// its lower bound.
func TestHistBucketLayout(t *testing.T) {
	next := int64(0)
	for i := 0; i < histBuckets; i++ {
		lo, width := histBounds(i)
		if lo != next {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", i, lo, next)
		}
		if histBucket(lo) != i || (lo+width-1 > 0 && histBucket(lo+width-1) != i) {
			t.Fatalf("bucket %d [%d,+%d): ends map to %d and %d", i, lo, width, histBucket(lo), histBucket(lo+width-1))
		}
		if lo >= 2*histSub && width*histSub > lo {
			t.Fatalf("bucket %d [%d,+%d) is wider than 1/%d of its lower bound", i, lo, width, histSub)
		}
		next = lo + width
		if next < 0 { // the last bucket ends at 2^63
			break
		}
	}
}

func TestHistMergeAndAllocs(t *testing.T) {
	var a, b, both hist
	for i := int64(1); i <= 1000; i++ {
		both.Record(i * 1000)
		if i%2 == 0 {
			a.Record(i * 1000)
		} else {
			b.Record(i * 1000)
		}
	}
	a.Merge(&b)
	if a != both {
		t.Error("merging two halves differs from recording everything into one histogram")
	}
	if n := testing.AllocsPerRun(1000, func() { a.Record(12345) }); n != 0 {
		t.Errorf("Record allocates %.0f times", n)
	}
}

// The A/A report must compute quartiles as the driver does: Python's
// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
}
