package main

import "math/bits"

// hist is a fixed-size log-linear histogram of non-negative int64
// samples (the benchmark records nanoseconds).
//
// Bucket layout — fixed, so a server-side histogram can adopt it bucket
// for bucket (ROADMAP item 2):
//
//   - every octave [2^k, 2^(k+1)) with k >= 8 is cut into histSub = 128
//     equal sub-buckets, so a bucket is at most 1/128 (0.78 %) of its
//     lower bound wide;
//   - values below 256 get one bucket each (exact);
//   - bucket(v) = e<<7 + v>>e with e = max(0, bitlen(v)-8); for e >= 1,
//     v>>e lies in [128, 256), which makes the index contiguous: octave
//     k = e+7 occupies buckets [(e+1)*128, (e+2)*128);
//   - bucket i >= 256 covers [m<<e, (m+1)<<e) with e = i>>7 - 1 and
//     m = i - e<<7.
//
// The whole int64 range fits in histBuckets = 7296 counters (57 KiB).
// Record is a shift, an add and two compares: no allocation, no
// floating point. Histograms merge by adding counters.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	min    int64
	max    int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits) * histSub
)

func histBucket(v int64) int {
	e := bits.Len64(uint64(v)) - (histSubBits + 1)
	if e < 0 {
		e = 0
	}
	return e<<histSubBits + int(uint64(v)>>uint(e))
}

// histBounds returns the half-open value range [lo, lo+width) of bucket i.
func histBounds(i int) (lo, width int64) {
	if i < 2*histSub {
		return int64(i), 1
	}
	e := uint(i>>histSubBits - 1)
	m := int64(i) - int64(e)<<histSubBits
	return m << e, 1 << e
}

// Record adds one sample; negative samples count as zero.
func (h *hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histBucket(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
}

// Merge adds o's samples to h.
func (h *hist) Merge(o *hist) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
}

// Count is the number of samples recorded.
func (h *hist) Count() uint64 { return h.n }

// Max is the largest sample, exact.
func (h *hist) Max() int64 { return h.max }

// Quantile returns the q-quantile (0 <= q <= 1) as the value of rank
// ceil(q*n), interpolated linearly inside its bucket and clamped to the
// exact minimum and maximum, so the result is within one bucket width
// (< 1 %) of the true order statistic. It is 0 for an empty histogram.
func (h *hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i, c := range h.counts {
		if c == 0 || cum+c < rank {
			cum += c
			continue
		}
		lo, width := histBounds(i)
		v := float64(lo) + float64(width)*(float64(rank-cum)-0.5)/float64(c)
		if v < float64(h.min) {
			v = float64(h.min)
		}
		if v > float64(h.max) {
			v = float64(h.max)
		}
		return v
	}
	return float64(h.max)
}
