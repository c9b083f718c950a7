// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel advances virtual time by draining a (time, sequence)-ordered
// event heap. Simulated activities can be expressed either as plain event
// callbacks or as processes: goroutines that run cooperatively, with the
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
	now    int64 // virtual time in nanoseconds
	seq    int64 // tiebreaker for events scheduled at the same instant
	events []event
	rng    *rand.Rand
	limit  int64 // RunUntil's limit in virtual ns; negative means none

	running *Proc         // process currently executing, nil if none
	idle    chan struct{} // a process returns control to RunUntil or Shutdown
	procs   map[*Proc]struct{}

	eventsRun int64
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
	for len(k.events) > 0 {
		if k.limit >= 0 && k.events[0].at > k.limit {
			break
		}
		ev := k.pop()
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
	return nil
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

// event is either a callback (fn) or the resumption of a process (p).
type event struct {
	at  int64
	seq int64
	fn  func()
	p   *Proc
}

func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// push stamps ev with Now()+delay and the next sequence number and adds
// it to the binary min-heap k.events.
func (k *Kernel) push(delay time.Duration, ev event) {
	if delay < 0 {
		delay = 0
	}
	k.seq++
	ev.at, ev.seq = k.now+int64(delay), k.seq
	k.events = append(k.events, ev)
	h := k.events
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// pop removes and returns the earliest event.
func (k *Kernel) pop() event {
	h := k.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	k.events = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = last
	return top
}
