// Package partition implements capacity-proportional load balancing: the
// paper's eqs. 4–5, which require N_i/M_i equal across processors with
// Σ N_i = N. Counts are integral, so we apportion with the largest-remainder
// method, which keeps each processor within one variable of its ideal quota.
// Blocks is the one place the counts become per-rank index ranges.
package partition

import "fmt"

// Proportional splits n variables over processors with capacities caps so
// that counts are proportional to capacity (largest-remainder rounding).
// The returned counts sum to n exactly.
func Proportional(n int, caps []float64) []int {
	if n < 0 {
		panic("partition: negative n")
	}
	if len(caps) == 0 {
		panic("partition: no capacities")
	}
	var total float64
	for i, c := range caps {
		if c <= 0 {
			panic(fmt.Sprintf("partition: capacity %d is not positive", i))
		}
		total += c
	}
	counts := make([]int, len(caps))
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(caps))
	assigned := 0
	for i, c := range caps {
		quota := float64(n) * c / total
		counts[i] = int(quota)
		assigned += counts[i]
		rems[i] = rem{idx: i, frac: quota - float64(counts[i])}
	}
	// Hand the leftover variables to the largest remainders; break ties in
	// favor of the faster (lower-index) processor for determinism.
	for assigned < n {
		best := -1
		for j := range rems {
			if rems[j].frac < 0 {
				continue
			}
			if best == -1 || rems[j].frac > rems[best].frac ||
				(rems[j].frac == rems[best].frac && rems[j].idx < rems[best].idx) {
				best = j
			}
		}
		counts[rems[best].idx]++
		rems[best].frac = -1
		assigned++
	}
	return counts
}

// Blocks splits n variables over processors with capacities caps into
// contiguous half-open ranges [lo, hi), one per processor in rank order:
// processor i owns the next Proportional(n, caps)[i] variables, so the ranges
// tile [0, n).
func Blocks(n int, caps []float64) [][2]int {
	blocks := make([][2]int, len(caps))
	lo := 0
	for i, c := range Proportional(n, caps) {
		blocks[i] = [2]int{lo, lo + c}
		lo += c
	}
	return blocks
}

// Equal returns the capacities of p identical processors, for which Blocks
// gives the first n mod p processors one variable more than the rest.
func Equal(p int) []float64 {
	caps := make([]float64, p)
	for i := range caps {
		caps[i] = 1
	}
	return caps
}

// Imbalance returns the maximum relative deviation of compute time from the
// ideal: max_i |(N_i/M_i) / (N/ΣM) − 1|. Zero means perfect balance.
func Imbalance(counts []int, caps []float64) float64 {
	var n int
	var total float64
	for _, c := range counts {
		n += c
	}
	for _, c := range caps {
		total += c
	}
	if n == 0 {
		return 0
	}
	ideal := float64(n) / total
	worst := 0.0
	for i, c := range counts {
		dev := float64(c)/caps[i]/ideal - 1
		if dev < 0 {
			dev = -dev
		}
		if dev > worst {
			worst = dev
		}
	}
	return worst
}
