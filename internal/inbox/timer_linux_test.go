package inbox

import (
	"testing"

	"specomp/internal/cluster"
	"specomp/internal/inbox/inboxtest"
)

// On Linux an inbox owes its holds to a timerfd the netpoller watches: the
// first held Put opens one descriptor and one reader goroutine, and Close
// gives both back.
func TestTimerIsAKernelTimer(t *testing.T) {
	before := inboxtest.HeldNow()
	b := New()
	b.Put(cluster.Message{Hold: 3600})
	if _, ok := b.timer.(*timerFD); !ok {
		t.Fatalf("the timer is a %T, want a timerfd", b.timer)
	}
	if now := inboxtest.HeldNow(); now.TimerFDs != before.TimerFDs+1 {
		t.Fatalf("%d timerfds open with one inbox holding, %d before", now.TimerFDs, before.TimerFDs)
	}
	b.Close()
	inboxtest.Released(t, before)
}
