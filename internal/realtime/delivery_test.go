package realtime

import (
	"testing"

	"specomp/internal/inbox/inboxtest"
)

// backend runs the delivery table (internal/inbox/inboxtest) on two ranks of
// one mesh. The sender puts straight into the receiver's inbox, so arrivals
// are stamped on the sender's goroutine and the busy-P row runs on one P.
var backend = inboxtest.Backend{
	Link: func(*testing.T) (func(tag, iter int, hold float64), inboxtest.Receiver) {
		mesh := newMesh(2, 0)
		tx := mesh[0]
		return func(tag, iter int, hold float64) {
			tx.hold = hold
			tx.Send(1, tag, iter, nil)
		}, mesh[1]
	},
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
