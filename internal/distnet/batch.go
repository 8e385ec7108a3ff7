package distnet

// Batch frames.
//
// A FrameBatch coalesces several cluster.Messages bound for the same peer
// into one wire frame, amortizing the length prefix, checksum, syscall and
// wakeup across the batch. Its body is
//
//	u32 count · count × data body
//
// each entry byte for byte the body of a FrameData frame (appendMsg and
// Decoder.decodeMsg in wire.go encode and decode both).

import (
	"sync"

	"specomp/internal/cluster"
)

// batchPool recycles the message slices carried by outbound FrameBatch
// frames: the sender builds a batch from the pool, and the link's writer
// goroutine returns it after encoding.
var batchPool = sync.Pool{New: func() any { return new([]cluster.Message) }}

// getBatch returns an empty pooled message slice.
func getBatch() []cluster.Message {
	return (*(batchPool.Get().(*[]cluster.Message)))[:0]
}

// releaseBatch returns a batch slice to the pool, clearing its entries so
// pooled slices do not pin message payloads.
func releaseBatch(b []cluster.Message) {
	clear(b)
	b = b[:0]
	batchPool.Put(&b)
}
