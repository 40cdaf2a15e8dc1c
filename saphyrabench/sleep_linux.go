package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

const (
	prSetTimerSlack = 29 // prctl PR_SET_TIMERSLACK
	schedFIFO       = 1  // sched_setscheduler SCHED_FIFO
)

// pacer sleeps the schedule's dispatcher until each due time. It locks
// the calling goroutine to its OS thread, cuts the thread's timer slack to
// a microsecond, asks for real-time priority, and sleeps in nanosleep: the
// runtime's timers wake an idle process up to a millisecond late, which an
// open loop would charge to every request as latency. The goroutine must
// exit without unlocking, so the runtime retires the thread along with its
// settings.
type pacer struct{}

func newPacer() *pacer {
	runtime.LockOSThread()
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	// Real-time priority lets the woken dispatcher preempt the busy
	// serving threads at once; without the privilege it stays best-effort.
	param := int32(1)
	syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedFIFO, uintptr(unsafe.Pointer(&param)))
	return &pacer{}
}

// sleep blocks for about d.
func (*pacer) sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}
