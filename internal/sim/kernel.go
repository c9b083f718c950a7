// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel advances virtual time by draining a (time, sequence)-ordered
// event heap. Simulated activities can be expressed either as plain event
// callbacks or as processes: goroutines that run cooperatively, with the
// guarantee that at any instant exactly one goroutine (the kernel or a
// single process) is executing. All randomness is drawn from a single
// seeded source, so runs with equal seeds are bit-for-bit identical.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Kernel is a discrete-event simulation executive.
//
// A Kernel must be used from a single OS-level flow of control: the
// goroutine that calls Run and the process goroutines it hands control to
// never run concurrently.
type Kernel struct {
	now    int64 // virtual time in nanoseconds
	seq    int64 // tiebreaker for events scheduled at the same instant
	events eventHeap
	rng    *rand.Rand

	running *Proc         // process currently executing, nil if kernel
	parked  chan struct{} // process -> kernel: "I have blocked or exited"
	procs   map[*Proc]struct{}

	eventsRun int64
}

// NewKernel returns a kernel whose random source is seeded with seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		rng:    rand.New(rand.NewSource(seed)),
		parked: make(chan struct{}),
		procs:  make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time since the start of the run.
func (k *Kernel) Now() time.Duration { return time.Duration(k.now) }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// EventsRun reports the number of events executed so far; useful for
// runaway detection in tests.
func (k *Kernel) EventsRun() int64 { return k.eventsRun }

// Schedule arranges for fn to run at Now()+delay on the kernel goroutine.
// fn must not block; use Go for blocking activities. Negative delays are
// treated as zero. Schedule may be called from event callbacks and from
// running processes.
func (k *Kernel) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	k.seq++
	heap.Push(&k.events, &event{at: k.now + int64(delay), seq: k.seq, fn: fn})
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
	for len(k.events) > 0 {
		ev := k.events[0]
		if limit >= 0 && ev.at > int64(limit) {
			break
		}
		heap.Pop(&k.events)
		if ev.at > k.now {
			k.now = ev.at
		}
		k.eventsRun++
		ev.fn()
	}
	if limit >= 0 && k.now < int64(limit) {
		k.now = int64(limit)
	}
}

// Shutdown kills every live process. Processes blocked in a kernel
// primitive unwind via an internal panic recovered by the kernel; the
// goroutines exit. Shutdown must be called after Run returns (never from
// inside an event or process).
func (k *Kernel) Shutdown() {
	if k.running != nil {
		panic("sim: Shutdown called from inside the simulation")
	}
	for p := range k.procs {
		p.killed = true
		if !p.started {
			// Never entered its body; release it so the wrapper exits.
			p.resume <- struct{}{}
			<-k.parked
			continue
		}
		if p.blocked {
			p.resume <- struct{}{}
			<-k.parked
		}
	}
	if len(k.procs) != 0 {
		panic(fmt.Sprintf("sim: %d processes survived shutdown", len(k.procs)))
	}
}

// transfer hands control to p until it blocks or exits.
func (k *Kernel) transfer(p *Proc) {
	prev := k.running
	k.running = p
	p.blocked = false
	p.resume <- struct{}{}
	<-k.parked
	k.running = prev
}

// wake schedules p to resume at the current instant. Each blocked process
// must be woken exactly once per block; primitives enforce this by owning
// their wait queues.
func (k *Kernel) wake(p *Proc) {
	k.Schedule(0, func() { k.transfer(p) })
}

type event struct {
	at  int64
	seq int64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
