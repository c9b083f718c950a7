package sim

import (
	"math"
	"time"
)

// CPU models a single processor under processor-sharing (round-robin with
// an infinitesimal quantum): n runnable jobs each progress at rate 1/n.
// Background load (e.g. the paper's four "infinite loop" processes on the
// busy client) is modelled as a fixed number of permanently runnable jobs
// that consume shares without ever finishing.
type CPU struct {
	k          *Kernel
	background int
	// jobs holds the runnable jobs in submission order, so jobs that
	// finish at the same instant fire in that order and one seed gives
	// one result.
	jobs       []*cpuJob
	lastUpdate int64 // virtual ns of the last remaining-work update
	gen        int64 // invalidates stale completion events
}

type cpuJob struct {
	remaining float64 // pure service time still owed, in ns
	done      *Event
}

// NewCPU returns an idle CPU bound to k.
func NewCPU(k *Kernel) *CPU {
	return &CPU{k: k}
}

// SetBackground sets the number of permanently-runnable background jobs
// competing for the processor.
func (c *CPU) SetBackground(n int) {
	if n < 0 {
		n = 0
	}
	c.advance()
	c.background = n
	c.reschedule()
}

// Background returns the configured background job count.
func (c *CPU) Background() int { return c.background }

// Load reports the number of currently runnable jobs, including
// background load.
func (c *CPU) Load() int { return len(c.jobs) + c.background }

// Use consumes d of pure CPU service on behalf of p, blocking p until the
// work completes. Under load the wall-clock (virtual) time taken is
// d * (number of concurrent jobs).
func (c *CPU) Use(p *Proc, d time.Duration) {
	if d <= 0 {
		return
	}
	ev := c.Submit(d)
	ev.Wait(p)
}

// Submit enqueues d of CPU work without blocking and returns an Event
// that fires on completion. Useful from event callbacks.
func (c *CPU) Submit(d time.Duration) *Event {
	ev := NewEvent(c.k)
	if d <= 0 {
		ev.Fire()
		return ev
	}
	c.advance()
	j := &cpuJob{remaining: float64(d), done: ev}
	c.jobs = append(c.jobs, j)
	c.reschedule()
	return ev
}

// advance charges elapsed wall time against every active job's remaining
// service requirement.
func (c *CPU) advance() {
	now := int64(c.k.Now())
	elapsed := now - c.lastUpdate
	c.lastUpdate = now
	if elapsed <= 0 || len(c.jobs) == 0 {
		return
	}
	rate := 1.0 / float64(len(c.jobs)+c.background)
	served := float64(elapsed) * rate
	for _, j := range c.jobs {
		j.remaining -= served
	}
}

// reschedule completes any finished jobs and schedules an event for the
// next completion instant.
func (c *CPU) reschedule() {
	const eps = 0.5 // half a nanosecond of service

	// Filtering in place is safe: Fire only schedules the waiters'
	// wakeups, so nothing re-enters the CPU during the loop.
	running := c.jobs[:0]
	minRemaining := math.Inf(1)
	for _, j := range c.jobs {
		if j.remaining <= eps {
			j.done.Fire()
			continue
		}
		running = append(running, j)
		minRemaining = min(minRemaining, j.remaining)
	}
	clear(c.jobs[len(running):])
	c.jobs = running
	if len(c.jobs) == 0 {
		return
	}
	wall := minRemaining * float64(len(c.jobs)+c.background)
	if wall < 1 {
		wall = 1
	}
	c.gen++
	gen := c.gen
	c.k.Schedule(time.Duration(math.Ceil(wall)), func() {
		if gen != c.gen {
			return // superseded by a later arrival/departure
		}
		c.advance()
		c.reschedule()
	})
}
