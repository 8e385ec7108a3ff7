package inbox

import (
	"os"
	"strconv"
	"testing"

	"specomp/internal/cluster"
	"specomp/internal/inbox/inboxtest"
)

// On Linux an inbox owes its holds to a timerfd the netpoller watches: the
// first held Put opens one descriptor and one reader goroutine, and Close
// gives both back. The check reads this inbox's own descriptor, not the
// process's timerfd count, which inboxes closed by earlier tests may still
// be lowering.
func TestTimerIsAKernelTimer(t *testing.T) {
	before := inboxtest.HeldNow()
	b := New()
	b.Put(cluster.Message{Hold: 3600})
	k, ok := b.timer.(*timerFD)
	if !ok {
		t.Fatalf("the timer is a %T, want a timerfd", b.timer)
	}
	if l, err := os.Readlink("/proc/self/fd/" + strconv.Itoa(k.fd)); err != nil || l != "anon_inode:[timerfd]" {
		t.Fatalf("the holding inbox's descriptor %d reads %q (%v), want anon_inode:[timerfd]", k.fd, l, err)
	}
	b.Close()
	inboxtest.Released(t, before)
}
