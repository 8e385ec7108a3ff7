package core

// emptyBuf is the shared zero-length buffer handed out for empty payloads,
// preserving the non-nil/nil distinction without allocating.
var emptyBuf = []float64{}

// bufPool hands out float64 buffers by exact length, one freelist per length
// class. The engine's payloads come in a tiny number of sizes (the partition
// and its published form), so the class map stays small. A pool is
// per-engine and the engine is single-threaded, so a returned buffer can
// never be concurrently reused and no lock is needed. Unlike a sync.Pool,
// the freelists outlive garbage collection: a steady run keeps cycling the
// same buffers however often the GC runs. They are bounded by what the
// engine has in flight — a class keeps no more buffers than it has handed
// out, and a put beyond that is left to the GC.
type bufPool struct {
	classes map[int]*bufClass
}

// bufClass is one length's freelist; out counts its buffers handed out and
// not yet put back.
type bufClass struct {
	free [][]float64
	out  int
}

func newBufPool() *bufPool {
	return &bufPool{classes: make(map[int]*bufClass)}
}

// get returns a length-n buffer with unspecified contents; callers must
// overwrite every element.
func (bp *bufPool) get(n int) []float64 {
	if n == 0 {
		return emptyBuf
	}
	c := bp.class(n)
	c.out++
	if k := len(c.free); k > 0 {
		d := c.free[k-1]
		c.free[k-1] = nil
		c.free = c.free[:k-1]
		return d
	}
	return make([]float64, n)
}

// put recycles a buffer previously obtained from get (or any buffer the
// caller owns exclusively and will never touch again).
func (bp *bufPool) put(s []float64) {
	c := bp.classes[len(s)]
	if c == nil || c.out == 0 {
		return
	}
	c.out--
	c.free = append(c.free, s)
}

// adopt counts buf, handed over for good, as drawn from the pool.
func (bp *bufPool) adopt(buf []float64) {
	if len(buf) > 0 {
		bp.class(len(buf)).out++
	}
}

func (bp *bufPool) class(n int) *bufClass {
	c := bp.classes[n]
	if c == nil {
		c = &bufClass{}
		bp.classes[n] = c
	}
	return c
}
