package sim

import "time"

// Timer runs a callback at a virtual instant that can be moved or
// cancelled. A stopped timer's event leaves the heap at once, so it
// neither runs nor counts in EventsRun, and it does not hold Run's clock
// past the last live event. Timer methods follow Schedule's rules: call
// them from event callbacks or from the running process.
type Timer struct {
	k  *Kernel
	fn func()
	i  int // index of the timer's event in k.events; -1 when not pending
}

// NewTimer returns a stopped timer that runs fn each time it fires.
func (k *Kernel) NewTimer(fn func()) *Timer {
	return &Timer{k: k, fn: fn, i: -1}
}

// AfterFunc returns a timer that runs fn at Now()+d unless stopped or
// reset first.
func (k *Kernel) AfterFunc(d time.Duration, fn func()) *Timer {
	t := k.NewTimer(fn)
	t.Reset(d)
	return t
}

// Reset (re)arms t to fire at Now()+d, replacing any pending firing. It
// takes a fresh sequence number, exactly as Schedule does at this point,
// so ties at the new instant break the same way.
func (t *Timer) Reset(d time.Duration) {
	k := t.k
	if t.i < 0 {
		k.push(d, event{fn: t.fn, t: t})
		return
	}
	ev := k.events[t.i]
	ev.at, ev.seq = k.stamp(d)
	k.fix(t.i, ev) // move the pending event in place
}

// Stop cancels t's pending firing. It reports whether one was pending:
// false once the timer has fired or been stopped.
func (t *Timer) Stop() bool {
	if t.i < 0 {
		return false
	}
	t.k.removeAt(t.i)
	return true
}
