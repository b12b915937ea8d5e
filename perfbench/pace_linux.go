package main

import (
	"os"
	"syscall"
	"unsafe"
)

// pacer sleeps with microsecond precision without holding a scheduler
// thread: it arms a Linux timerfd and blocks reading it through the
// runtime's network poller. time.Sleep would do, except that the poller
// rounds an idle process's sub-millisecond waits up to a millisecond,
// which would make the open-loop generator run up to a millisecond late.
type pacer struct {
	fd  int
	f   *os.File
	buf [8]byte
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, e := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if e != 0 {
		return nil, os.NewSyscallError("timerfd_create", e)
	}
	return &pacer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// sleep blocks the calling goroutine for ns > 0 nanoseconds.
func (p *pacer) sleep(ns int64) error {
	spec := [4]int64{0, 0, ns / 1e9, ns % 1e9} // struct itimerspec: one-shot, relative
	if _, _, e := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(p.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); e != 0 {
		return os.NewSyscallError("timerfd_settime", e)
	}
	_, err := p.f.Read(p.buf[:])
	return err
}

func (p *pacer) close() { p.f.Close() }
