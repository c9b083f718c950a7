// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel advances virtual time by running pending events in (time,
// sequence) order. Simulated activities can be expressed either as plain
// event callbacks or as processes: goroutines that run cooperatively, with the
// guarantee that at any instant exactly one goroutine is executing. That
// goroutine runs the event loop: RunUntil's caller to begin with, then
// whichever process it resumes. A process that blocks or exits pops the
// next events itself and hands control straight to the process they
// resume, or continues if that process is itself; control returns to
// RunUntil's caller only when no event is due. All randomness is drawn
// from a single seeded source, so runs with equal seeds are bit-for-bit
// identical.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Kernel is a discrete-event simulation executive.
//
// A Kernel must be used from a single OS-level flow of control: the
// goroutine that calls Run and the process goroutines never run
// concurrently, because control passes between them as a baton. Event
// callbacks run on whichever of them holds it.
type Kernel struct {
	now    int64   // virtual time in nanoseconds
	seq    int64   // tiebreaker for events scheduled at the same instant
	events []event // binary min-heap on (at, seq)
	// due holds the events pushed with no delay, from index head on, in
	// seq order. All are at now: time moves only past an empty queue.
	due   []event
	head  int
	rng   *rand.Rand
	limit int64 // RunUntil's limit in virtual ns; negative means none

	running *Proc         // process currently executing, nil if none
	idle    chan struct{} // a process returns control to RunUntil or Shutdown
	procs   map[*Proc]struct{}

	eventsRun int64
	depthSum  int64 // Pending() summed over the events run
	peakDepth int
}

// NewKernel returns a kernel whose random source is seeded with seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		rng:   rand.New(rand.NewSource(seed)),
		idle:  make(chan struct{}),
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time since the start of the run.
func (k *Kernel) Now() time.Duration { return time.Duration(k.now) }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// EventsRun reports the number of events executed so far; useful for
// runaway detection in tests.
func (k *Kernel) EventsRun() int64 { return k.eventsRun }

// Pending reports the number of pending events, in the heap and the due
// queue: callbacks, armed timers and process resumptions not yet run.
func (k *Kernel) Pending() int { return len(k.events) + len(k.due) - k.head }

// HeapDepth reports how many events are pending, in the heap and the due
// queue together: the mean, sampled as each event runs (counting that
// event), and the peak since NewKernel.
func (k *Kernel) HeapDepth() (mean float64, peak int) {
	if k.eventsRun > 0 {
		mean = float64(k.depthSum) / float64(k.eventsRun)
	}
	return mean, k.peakDepth
}

// Schedule arranges for fn to run at Now()+delay. fn must not block; use
// Go for blocking activities. Negative delays are treated as zero.
// Schedule may be called from event callbacks and from running processes.
func (k *Kernel) Schedule(delay time.Duration, fn func()) {
	k.push(delay, event{fn: fn})
}

// Run drains the event heap, advancing virtual time, until no events
// remain. Processes blocked on synchronization primitives when the heap
// drains simply remain blocked; call Shutdown to reap them.
func (k *Kernel) Run() {
	k.RunUntil(-1)
}

// RunUntil processes events with timestamps <= limit (a duration from the
// start of the run). A negative limit means "run until the heap drains".
// On return with a non-negative limit, Now() == limit.
func (k *Kernel) RunUntil(limit time.Duration) {
	k.limit = int64(limit)
	if p := k.next(); p != nil {
		p.resume <- struct{}{}
		<-k.idle
	}
	if limit >= 0 && k.now < int64(limit) {
		k.now = int64(limit)
	}
}

// next runs due events in (at, seq) order until one resumes a live
// process, which it marks running and returns. It returns nil when no
// event is due before the limit. The caller holds control; callbacks run
// with no process marked running.
func (k *Kernel) next() *Proc {
	k.running = nil
	for {
		ev, ok := k.take()
		if !ok {
			return nil
		}
		if ev.at > k.now {
			k.now = ev.at
		}
		k.eventsRun++
		if ev.p == nil {
			ev.fn()
		} else if !ev.p.exited {
			k.running = ev.p
			return ev.p
		}
	}
}

// take removes and returns the earliest event, from the due queue or the
// heap, unless none is due by the limit.
func (k *Kernel) take() (event, bool) {
	fromDue := k.head < len(k.due) && (len(k.events) == 0 || k.due[k.head].before(&k.events[0]))
	var first *event
	switch {
	case fromDue:
		first = &k.due[k.head]
	case len(k.events) > 0:
		first = &k.events[0]
	default:
		return event{}, false
	}
	if k.limit >= 0 && first.at > k.limit {
		return event{}, false
	}
	k.depthSum += int64(k.Pending())
	if !fromDue {
		return k.pop(), true
	}
	ev := *first
	*first = event{}
	if k.head++; k.head == len(k.due) {
		k.due, k.head = k.due[:0], 0
	}
	return ev, true
}

// Shutdown kills every live process. Processes blocked in a kernel
// primitive unwind via an internal panic recovered by the kernel; the
// goroutines exit. Shutdown must be called after Run returns (never from
// inside an event or process).
func (k *Kernel) Shutdown() {
	if k.running != nil {
		panic("sim: Shutdown called from inside the simulation")
	}
	// Every live process waits on its resume channel: parked, or never
	// started.
	for p := range k.procs {
		p.killed = true
		p.resume <- struct{}{}
		<-k.idle
	}
	if len(k.procs) != 0 {
		panic(fmt.Sprintf("sim: %d processes survived shutdown", len(k.procs)))
	}
}

// wake schedules p to resume at the current instant. Each blocked process
// must be woken exactly once per block; primitives enforce this by owning
// their wait queues.
func (k *Kernel) wake(p *Proc) {
	k.push(0, event{p: p})
}

// event is either a callback (fn) or the resumption of a process (p). A
// Timer's callback also carries the timer (t), whose index the heap keeps
// up to date on every move so that Stop can find the event.
type event struct {
	at  int64
	seq int64
	fn  func()
	p   *Proc
	t   *Timer
}

func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// push stamps ev with Now()+delay and the next sequence number. An event
// due now goes to the back of the due queue, unless a timer must be able
// to find it; any other goes into the heap.
func (k *Kernel) push(delay time.Duration, ev event) {
	ev.at, ev.seq = k.stamp(delay)
	if ev.at == k.now && ev.t == nil {
		k.due = append(k.due, ev)
	} else {
		k.events = append(k.events, event{})
		k.up(len(k.events)-1, ev)
	}
	k.peakDepth = max(k.peakDepth, k.Pending())
}

// stamp returns the instant Now()+delay, with negative delays treated as
// zero, and the next sequence number.
func (k *Kernel) stamp(delay time.Duration) (at, seq int64) {
	k.seq++
	return k.now + int64(max(delay, 0)), k.seq
}

// pop removes and returns the earliest event.
func (k *Kernel) pop() event {
	top := k.events[0]
	k.removeAt(0)
	return top
}

// removeAt takes the event at index i out of the heap, filling the hole
// with the last event.
func (k *Kernel) removeAt(i int) {
	h := k.events
	if h[i].t != nil {
		h[i].t.i = -1
	}
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	k.events = h[:n]
	if i < n {
		k.fix(i, last)
	}
}

// fix places ev at the hole i, or above or below it as its order needs.
func (k *Kernel) fix(i int, ev event) {
	if i > 0 && ev.before(&k.events[(i-1)/2]) {
		k.up(i, ev)
	} else {
		k.down(i, ev)
	}
}

// set places ev at index i and tells its timer.
func (k *Kernel) set(i int, ev event) {
	k.events[i] = ev
	if ev.t != nil {
		ev.t.i = i
	}
}

// up places ev at the hole i or above it, moving parents down.
func (k *Kernel) up(i int, ev event) {
	h := k.events
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		k.set(i, h[parent])
		i = parent
	}
	k.set(i, ev)
}

// down places ev at the hole i or below it, moving children up.
func (k *Kernel) down(i int, ev event) {
	h := k.events
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&ev) {
			break
		}
		k.set(i, h[child])
		i = child
	}
	k.set(i, ev)
}
