//go:build !linux

package main

import "time"

// pacer sleeps the schedule's dispatcher until each due time.
type pacer struct{}

func newPacer() *pacer { return &pacer{} }

func (*pacer) sleep(d time.Duration) { time.Sleep(d) }
