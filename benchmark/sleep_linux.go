package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks the calling goroutine's thread until t. The paced
// generator sleeps in the kernel, not on a Go timer: an idle Go scheduler
// waits in epoll, whose timeout has millisecond granularity, so
// time.Sleep wakes 0.7–1 ms late on the reference box and nanosleep
// 0.1 ms. EINTR (the runtime's preemption signal) restarts the sleep.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early return is retried above
	}
}
