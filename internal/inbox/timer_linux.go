package inbox

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerFD is a kernel timer (timerfd on CLOCK_MONOTONIC) registered with the
// Go netpoller. An idle process then sleeps in epoll_wait until the kernel
// timer fires, not until the netpoller's own timeout, which is rounded up
// to whole milliseconds. One goroutine parks in Read on the descriptor and
// posts a wake per expiry. No thread ever blocks in a syscall for it.
type timerFD struct {
	fd int      // the descriptor, for timerfd_settime; used only before close
	f  *os.File // the same descriptor, as the netpoller sees it
}

// newTimer returns a timerfd, or a Go timer where the kernel refuses one.
func newTimer(wake chan struct{}) timer {
	if k, err := newTimerFD(wake); err == nil {
		return k
	}
	return newGoTimer(wake)
}

func newTimerFD(wake chan struct{}) (*timerFD, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, errno
	}
	f := os.NewFile(fd, "timerfd")
	// A descriptor the netpoller did not take has no deadlines; reading it
	// would block a thread.
	if err := f.SetReadDeadline(time.Time{}); err != nil {
		f.Close()
		return nil, err
	}
	k := &timerFD{fd: int(fd), f: f}
	go k.read(wake)
	return k, nil
}

// read posts a wake per expiry until a read fails, which only close makes
// happen, then releases the descriptor.
func (k *timerFD) read(wake chan struct{}) {
	defer k.f.Close()
	var n [8]byte // the expiry count; any count is one wake
	for {
		if _, err := k.f.Read(n[:]); err != nil {
			return
		}
		post(wake)
	}
}

// itimerspec is the kernel's struct itimerspec.
type itimerspec struct {
	interval, value syscall.Timespec
}

func (k *timerFD) set(d time.Duration) {
	spec := itimerspec{value: syscall.NsecToTimespec(int64(max(d, 1)))} // a zero value would disarm
	_, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(k.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		panic(fmt.Sprintf("inbox: timerfd_settime: %v", errno)) // a taker waiting on it would hang
	}
}

// close ends the reader's Read with a deadline already past and returns;
// the reader releases the descriptor and exits by itself. Closing the file
// here would wait for the reader to be scheduled, and arming the timer to
// wake it costs a syscall: at the end of a 2-rank realtime run, on its
// critical path, the two closes measured about 50 and 22 µs those ways, and
// 4 µs this way.
func (k *timerFD) close() {
	_ = k.f.SetReadDeadline(time.Unix(0, 1)) // fails only on a closed or unpolled file, which newTimerFD rules out
}
