package inbox

import "time"

// timer is an inbox's one wake-up clock: set arms it to post one token after
// d (re-arming replaces the earlier setting), close releases it, without
// waiting for what it releases to wind down. The token goes to the channel
// the timer was made with (the inbox's wake) and is dropped if one is
// already waiting there. set is called under the inbox's lock, close once,
// and nothing after it.
//
// newTimer is per platform: a kernel timerfd on Linux (timer_linux.go), a
// Go timer elsewhere.
type timer interface {
	set(d time.Duration)
	close()
}

// post leaves one token in c unless one is already waiting there.
func post(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// goTimer is the portable timer: a stopped time.AfterFunc, reset on each set.
// An idle Go process wakes for it only when the netpoller's whole-millisecond
// sleep ends, so a hold under a millisecond can be seen up to a millisecond
// late.
type goTimer struct{ t *time.Timer }

func newGoTimer(wake chan struct{}) *goTimer {
	t := time.AfterFunc(time.Hour, func() { post(wake) })
	t.Stop()
	return &goTimer{t: t}
}

func (g *goTimer) set(d time.Duration) { g.t.Reset(d) }

func (g *goTimer) close() { g.t.Stop() }
