package sim

// This file provides the synchronization primitives processes block on:
// FIFO channels (queues), counting semaphores, one-shot events and
// broadcast conditions. Non-blocking entry points (Send, Fire, Release)
// may also be called from plain event callbacks, which is how hardware
// models (disk, NIC) hand results back to processes.

// Chan is an unbounded FIFO queue of T with blocking receive.
type Chan[T any] struct {
	k     *Kernel
	items []T
	recvq []*chanWaiter[T]
	free  []*chanWaiter[T] // reused, so a blocking Recv does not allocate
}

type chanWaiter[T any] struct {
	p   *Proc
	val T
}

// NewChan returns an empty queue bound to k.
func NewChan[T any](k *Kernel) *Chan[T] { return &Chan[T]{k: k} }

// Len reports the number of queued (unconsumed) items.
func (c *Chan[T]) Len() int { return len(c.items) }

// Send enqueues v, waking the longest-waiting receiver if any. It never
// blocks and is safe to call from event callbacks.
func (c *Chan[T]) Send(v T) {
	if len(c.recvq) > 0 {
		w := c.recvq[0]
		copy(c.recvq, c.recvq[1:])
		c.recvq[len(c.recvq)-1] = nil
		c.recvq = c.recvq[:len(c.recvq)-1]
		w.val = v
		c.k.wake(w.p)
		return
	}
	c.items = append(c.items, v)
}

// Recv dequeues the oldest item, blocking p until one is available.
func (c *Chan[T]) Recv(p *Proc) T {
	if len(c.items) > 0 {
		v := c.items[0]
		var zero T
		c.items[0] = zero
		c.items = c.items[1:]
		return v
	}
	var w *chanWaiter[T]
	if n := len(c.free); n > 0 {
		w = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		w = new(chanWaiter[T])
	}
	w.p = p
	c.recvq = append(c.recvq, w)
	p.park()
	v := w.val
	*w = chanWaiter[T]{}
	c.free = append(c.free, w)
	return v
}

// TryRecv dequeues an item if one is immediately available.
func (c *Chan[T]) TryRecv() (T, bool) {
	var zero T
	if len(c.items) == 0 {
		return zero, false
	}
	v := c.items[0]
	c.items[0] = zero
	c.items = c.items[1:]
	return v, true
}

// Semaphore is a counting semaphore with FIFO wakeup order.
type Semaphore struct {
	k     *Kernel
	avail int
	q     []*Proc
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(k *Kernel, n int) *Semaphore { return &Semaphore{k: k, avail: n} }

// Acquire takes one permit, blocking p until one is available.
func (s *Semaphore) Acquire(p *Proc) {
	if s.avail > 0 {
		s.avail--
		return
	}
	s.q = append(s.q, p)
	p.park()
}

// TryAcquire takes a permit without blocking, reporting success.
func (s *Semaphore) TryAcquire() bool {
	if s.avail > 0 {
		s.avail--
		return true
	}
	return false
}

// Release returns one permit, waking the longest waiter if any. Safe to
// call from event callbacks.
func (s *Semaphore) Release() {
	if len(s.q) > 0 {
		p := s.q[0]
		copy(s.q, s.q[1:])
		s.q[len(s.q)-1] = nil
		s.q = s.q[:len(s.q)-1]
		s.k.wake(p)
		return
	}
	s.avail++
}

// Available reports the current permit count.
func (s *Semaphore) Available() int { return s.avail }

// Event is a one-shot completion: waiters block until Fire, after which
// Wait returns immediately forever.
type Event struct {
	k       *Kernel
	fired   bool
	waiters []*Proc
	first   [1]*Proc // backs waiters for a single waiter, so Wait does not allocate
}

// NewEvent returns an unfired event.
func NewEvent(k *Kernel) *Event { return &Event{k: k} }

// Fired reports whether the event has fired.
func (e *Event) Fired() bool { return e.fired }

// Fire marks the event complete and wakes every waiter. Firing twice is a
// no-op. Safe to call from event callbacks.
func (e *Event) Fire() {
	if e.fired {
		return
	}
	e.fired = true
	for _, p := range e.waiters {
		e.k.wake(p)
	}
	e.waiters, e.first[0] = nil, nil
}

// Wait blocks p until the event fires.
func (e *Event) Wait(p *Proc) {
	if e.fired {
		return
	}
	if e.waiters == nil {
		e.waiters = e.first[:0]
	}
	e.waiters = append(e.waiters, p)
	p.park()
}

// WaitGroup counts outstanding activities; Wait blocks until the count
// reaches zero.
type WaitGroup struct {
	k       *Kernel
	count   int
	waiters []*Proc
}

// NewWaitGroup returns a group with a zero count.
func NewWaitGroup(k *Kernel) *WaitGroup { return &WaitGroup{k: k} }

// Add increments the count by n (n may be negative; Done is Add(-1)).
func (w *WaitGroup) Add(n int) {
	w.count += n
	if w.count < 0 {
		panic("sim: negative WaitGroup count")
	}
	if w.count == 0 {
		for _, p := range w.waiters {
			w.k.wake(p)
		}
		w.waiters = nil
	}
}

// Done decrements the count by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks p until the count reaches zero.
func (w *WaitGroup) Wait(p *Proc) {
	if w.count == 0 {
		return
	}
	w.waiters = append(w.waiters, p)
	p.park()
}
