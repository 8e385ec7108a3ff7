package distnet

import (
	"testing"

	"specomp/internal/faults"
	"specomp/internal/inbox/inboxtest"
	"specomp/internal/netmodel"
)

// backend runs the delivery table (internal/inbox/inboxtest) on
// linkedTransports: each message is planned through netmodel.Fixed at its
// hold and flushed by the empty poll the engine's drain would make. Arrivals
// are stamped by the receiver's link reader, so the busy-P row leaves that
// reader a P of its own. One message costs one allocation whatever its
// hold: the injector's plan.
var backend = inboxtest.Backend{
	Link: func(t *testing.T) (func(tag, iter int, hold float64), inboxtest.Receiver) {
		tx, rx := linkedTransports(t, netmodel.Fixed{}, 1)
		planned := 0.0
		return func(tag, iter int, hold float64) {
			if hold != planned {
				tx.inj, planned = faults.NewInjector(netmodel.Fixed{D: hold}, 1), hold
			}
			tx.Send(1, tag, iter, nil)
			tx.flushAll(flushRecv)
		}, rx
	},
	ReaderStamps: true,
	Allocs:       1,
}

func TestDelayedMessageVisibleWhileEveryPIsBusy(t *testing.T) {
	inboxtest.VisibleAtHold(t, backend)
}

func TestDelayedDeliveryOrderAndStamps(t *testing.T) { inboxtest.DueOrder(t, backend) }

func TestRecvDeadline(t *testing.T) { inboxtest.Deadline(t, backend) }

func TestSendsBeforeAnyTakeNeverBlock(t *testing.T) { inboxtest.SendsBeforeAnyTake(t, backend) }

func TestSelectiveReceivePanics(t *testing.T) { inboxtest.SelectiveReceivePanics(t, backend) }

func TestDelayedSendAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	inboxtest.DelayedSendAllocs(t, backend)
}
