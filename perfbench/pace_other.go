//go:build !linux

package main

import "time"

// pacer falls back to time.Sleep where there is no timerfd; open-loop
// lateness (gen.lag_us) is then coarser.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (p *pacer) sleep(ns int64) error {
	time.Sleep(time.Duration(ns))
	return nil
}

func (p *pacer) close() {}
