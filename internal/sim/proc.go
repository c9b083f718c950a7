package sim

import "time"

// errKilled unwinds a process goroutine during Kernel.Shutdown.
type killedError struct{}

func (killedError) Error() string { return "sim: process killed" }

var errKilled = killedError{}

// Proc is a simulated process: a goroutine that runs only when the kernel
// hands it control and yields whenever it blocks on a kernel primitive.
// All Proc methods must be called from the process's own goroutine.
type Proc struct {
	k       *Kernel
	name    string
	resume  chan struct{}
	blocked bool
	killed  bool
	started bool
}

// Go spawns a process named name running fn. The process starts at the
// current virtual time (after already-scheduled events at this instant).
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, resume: make(chan struct{}), blocked: true}
	k.procs[p] = struct{}{}
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killedError); !ok {
					// Real bug in simulation code: surface it loudly.
					delete(k.procs, p)
					k.parked <- struct{}{}
					panic(r)
				}
			}
			delete(k.procs, p)
			k.parked <- struct{}{}
		}()
		<-p.resume
		if p.killed {
			panic(errKilled)
		}
		p.started = true
		fn(p)
	}()
	k.Schedule(0, func() {
		if _, live := k.procs[p]; live {
			k.transfer(p)
		}
	})
	return p
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.Now() }

// park yields control to the kernel until some primitive wakes this
// process. It is the single blocking point for all process primitives.
func (p *Proc) park() {
	if p.k.running != p {
		panic("sim: blocking call from outside the running process (" + p.name + ")")
	}
	p.blocked = true
	p.k.parked <- struct{}{}
	<-p.resume
	if p.killed {
		panic(errKilled)
	}
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.k.Schedule(d, func() { p.k.transfer(p) })
	p.park()
}
