package sim

import "time"

// errKilled unwinds a process goroutine during Kernel.Shutdown.
type killedError struct{}

func (killedError) Error() string { return "sim: process killed" }

var errKilled = killedError{}

// Proc is a simulated process: a goroutine that runs only while it holds
// control and that, when it blocks on a kernel primitive, runs the event
// loop until control passes to another goroutine or back to itself.
// All Proc methods must be called from the process's own goroutine.
type Proc struct {
	k      *Kernel
	name   string
	resume chan struct{}
	killed bool
	exited bool
}

// Go spawns a process named name running fn. The process starts at the
// current virtual time (after already-scheduled events at this instant).
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, resume: make(chan struct{})}
	k.procs[p] = struct{}{}
	go func() {
		defer func() {
			r := recover()
			p.exited = true
			delete(k.procs, p)
			if r != nil {
				if _, ok := r.(killedError); !ok {
					// Real bug in simulation code: surface it loudly.
					panic(r)
				}
				k.idle <- struct{}{} // back to Shutdown
				return
			}
			k.handoff(k.next())
		}()
		<-p.resume
		if p.killed {
			panic(errKilled)
		}
		fn(p)
	}()
	k.push(0, event{p: p})
	return p
}

// handoff passes control from the calling goroutine to q, the process
// next returned, or to RunUntil's caller when q is nil.
func (k *Kernel) handoff(q *Proc) {
	if q != nil {
		q.resume <- struct{}{}
	} else {
		k.idle <- struct{}{}
	}
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.Now() }

// park blocks the process until some primitive wakes it. It is the single
// blocking point for all process primitives. The process runs the event
// loop itself: if the first event that resumes a process resumes p, p
// continues without a goroutine switch; otherwise p hands control on and
// waits for its own resumption.
func (p *Proc) park() {
	k := p.k
	if k.running != p {
		panic("sim: blocking call from outside the running process (" + p.name + ")")
	}
	q := k.next()
	if q == p {
		return
	}
	k.handoff(q)
	<-p.resume
	if p.killed {
		panic(errKilled)
	}
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	p.k.push(d, event{p: p})
	p.park()
}
