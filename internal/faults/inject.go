package faults

// Injector carries the simulator's FaultyModel semantics onto a real-network
// send path (internal/distnet): instead of the simulation kernel consuming
// the delivery plan, the sender asks Plan how many physical copies of a
// message to transmit and how long each one is delayed. The plan is made on
// the sender; each copy leaves at once and carries its delay as the hold its
// receiver owes it (cluster.Message.Hold), so no timer runs per copy. The
// exact same model stack (Drop/Duplicate/DelaySpikes/Partition/Straggler
// over any base model) therefore drives both substrates, and a seeded
// Injector consumes randomness in the same order as the simulated cluster
// does — the parity the inject tests pin down.
//
// Plan serializes access to the model's RNG and any model state behind a
// mutex, so one Injector may serve concurrent senders.
//
// Injection is per logical message, not per physical frame: when the
// transport coalesces messages into batch frames, each message is planned
// through the model individually before its copies join a batch, so a fault
// plan is identical whether or not batching is enabled — the parity
// TestBatchFaultParity pins.

import (
	"math/rand"
	"sync"

	"specomp/internal/netmodel"
)

// Injector plans fault deliveries for a real-network transport.
type Injector struct {
	mu    sync.Mutex
	model netmodel.Model
	rng   *rand.Rand
}

// NewInjector wraps model with a seeded RNG. The model is consulted exactly
// as the simulated cluster consults it, so the same (model, seed) pair
// yields the same drop/duplicate/delay decision sequence on both
// substrates.
func NewInjector(model netmodel.Model, seed int64) *Injector {
	if model == nil {
		return nil
	}
	netmodel.ResetModel(model)
	return &Injector{model: model, rng: rand.New(rand.NewSource(seed))}
}

// Plan returns one delay (seconds) per physical copy of the message to
// transmit — the hold that copy's receiver owes it; an empty plan means the
// message is dropped.
// now is the transport's clock (wall seconds since the run started), which
// windowed injectors (Partition, Straggler) match against. Safe for
// concurrent use.
func (in *Injector) Plan(src, dst, bytes, procs int, now float64) []float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return netmodel.DeliveriesOf(in.model, netmodel.Msg{
		Src: src, Dst: dst, Bytes: bytes, Procs: procs, Now: now,
	}, in.rng)
}
