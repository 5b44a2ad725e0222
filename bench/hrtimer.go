package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// hrTimer is a Linux timerfd read through the Go network poller. The
// open-loop generator needs to wake within tens of microseconds of a due
// time without holding a processor: time.Sleep rounds a wait shorter
// than a millisecond up to one when the process is otherwise idle, a
// nanosleep system call pins the goroutine's processor until the
// runtime's monitor takes it back (up to 10 ms), and a yielding spin loop
// starves the poller of the very network events the requests wait for.
// A timerfd expiry arrives as file readiness, so the waiting goroutine
// parks like any goroutine blocked on a socket and the kernel's
// high-resolution timer sets the wake-up.
type hrTimer struct{ f *os.File }

func newHRTimer() (*hrTimer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &hrTimer{f: os.NewFile(fd, "timerfd")}, nil
}

// sleep blocks the calling goroutine for d.
func (t *hrTimer) sleep(d time.Duration) error {
	// struct itimerspec: a zero interval (one shot), then the delay.
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.f.Fd(), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := t.f.Read(expirations[:])
	return err
}

// waitUntil returns at the due time, or at once if it has passed.
func (t *hrTimer) waitUntil(due time.Time) error {
	for {
		wait := time.Until(due)
		if wait <= 0 {
			return nil
		}
		if err := t.sleep(wait); err != nil {
			return err
		}
	}
}

func (t *hrTimer) close() { t.f.Close() }
