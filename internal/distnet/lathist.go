package distnet

import "math"

// latHist is the node's delivery-latency histogram: a fixed array of
// log-linear buckets, 64 per power of two from 2^latMinExp s (≈ 0.9 ns) up to
// 2^latMaxExp s (256 s). A bucket is the exponent and the top 6 mantissa bits
// of a sample's float64 (bit order is value order for positive floats), so add
// is one shift and one increment and allocates nothing, whatever the run
// length. A quantile reads its bucket's midpoint: at most half a bucket, 1/128
// of the bucket's lower edge, from the exact sample at the same rank — a
// relative error ≤ 1/128 ≈ 0.78 %. Samples below the range read 0, samples above it
// the top bucket. Engine goroutine only, like the rest of the receive path.
type latHist struct {
	n      uint64
	under  uint64 // samples below latMin, zero included
	counts [(latMaxExp - latMinExp) << latSubBits]uint64
}

const (
	latSubBits = 6 // 64 linear sub-buckets per power of two
	latMinExp  = -30
	latMaxExp  = 8
	latMin     = 1.0 / (1 << -latMinExp)

	// latShift keeps a float64's exponent and top latSubBits mantissa bits;
	// latBase is that key for latMin, bucket 0.
	latShift = 52 - latSubBits
	latBase  = (1023 + latMinExp) << latSubBits
)

// add records one latency sample in seconds.
func (h *latHist) add(d float64) {
	h.n++
	if !(d >= latMin) { // NaN lands here too
		h.under++
		return
	}
	i := int(math.Float64bits(d)>>latShift) - latBase
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
}

// quantile returns the q-quantile (0 ≤ q ≤ 1): the sample at rank
// int(q·(n−1)) of the n in ascending order, read as its bucket's midpoint;
// 0 when empty.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n-1))
	seen := h.under
	if rank < seen {
		return 0
	}
	for i, c := range h.counts {
		seen += c
		if rank < seen {
			return math.Float64frombits(uint64(i+latBase)<<latShift | 1<<(latShift-1))
		}
	}
	return 0 // unreachable: under and the buckets hold all n samples
}
