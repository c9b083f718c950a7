package sim

import (
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.Schedule(3*time.Millisecond, func() { order = append(order, 3) })
	k.Schedule(1*time.Millisecond, func() { order = append(order, 1) })
	k.Schedule(2*time.Millisecond, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if k.Now() != 3*time.Millisecond {
		t.Fatalf("final time = %v, want 3ms", k.Now())
	}
}

func TestScheduleSameInstantFIFO(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if i != v {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestScheduleNegativeDelayClamped(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.Schedule(-time.Second, func() { ran = true })
	k.Run()
	if !ran {
		t.Fatal("negative-delay event did not run")
	}
	if k.Now() != 0 {
		t.Fatalf("time went backwards or forwards: %v", k.Now())
	}
}

func TestNestedSchedule(t *testing.T) {
	k := NewKernel(1)
	var at []time.Duration
	k.Schedule(time.Millisecond, func() {
		k.Schedule(time.Millisecond, func() { at = append(at, k.Now()) })
	})
	k.Run()
	if len(at) != 1 || at[0] != 2*time.Millisecond {
		t.Fatalf("nested event at %v, want [2ms]", at)
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	var fired []time.Duration
	for _, d := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 9 * time.Millisecond} {
		d := d
		k.Schedule(d, func() { fired = append(fired, d) })
	}
	k.RunUntil(5 * time.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want first two", fired)
	}
	if k.Now() != 5*time.Millisecond {
		t.Fatalf("Now() = %v after RunUntil(5ms)", k.Now())
	}
	k.Run()
	if len(fired) != 3 {
		t.Fatalf("remaining event never ran: %v", fired)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	k := NewKernel(1)
	k.RunUntil(time.Second)
	if k.Now() != time.Second {
		t.Fatalf("idle RunUntil left clock at %v", k.Now())
	}
}

func TestProcSleep(t *testing.T) {
	k := NewKernel(1)
	var woke time.Duration
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(7 * time.Millisecond)
		woke = p.Now()
	})
	k.Run()
	if woke != 7*time.Millisecond {
		t.Fatalf("woke at %v, want 7ms", woke)
	}
}

func TestProcInterleaving(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Go("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(2 * time.Millisecond)
		order = append(order, "a2")
	})
	k.Go("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(1 * time.Millisecond)
		order = append(order, "b1")
	})
	k.Run()
	want := []string{"a0", "b0", "b1", "a2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestChanSendRecv(t *testing.T) {
	k := NewKernel(1)
	ch := NewChan[int](k)
	var got []int
	k.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			ch.Send(i)
			p.Sleep(time.Millisecond)
		}
	})
	k.Go("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, ch.Recv(p))
		}
	})
	k.Run()
	k.Shutdown()
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestChanBlockingRecvWakesInFIFOOrder(t *testing.T) {
	k := NewKernel(1)
	ch := NewChan[int](k)
	var order []string
	k.Go("r1", func(p *Proc) { ch.Recv(p); order = append(order, "r1") })
	k.Go("r2", func(p *Proc) { ch.Recv(p); order = append(order, "r2") })
	k.Go("sender", func(p *Proc) {
		p.Sleep(time.Millisecond)
		ch.Send(1)
		ch.Send(2)
	})
	k.Run()
	k.Shutdown()
	if len(order) != 2 || order[0] != "r1" || order[1] != "r2" {
		t.Fatalf("wake order = %v", order)
	}
}

func TestChanTryRecv(t *testing.T) {
	k := NewKernel(1)
	ch := NewChan[string](k)
	if _, ok := ch.TryRecv(); ok {
		t.Fatal("TryRecv on empty chan succeeded")
	}
	ch.Send("x")
	v, ok := ch.TryRecv()
	if !ok || v != "x" {
		t.Fatalf("TryRecv = %q, %v", v, ok)
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	k := NewKernel(1)
	sem := NewSemaphore(k, 2)
	active, peak := 0, 0
	for i := 0; i < 6; i++ {
		k.Go("worker", func(p *Proc) {
			sem.Acquire(p)
			active++
			if active > peak {
				peak = active
			}
			p.Sleep(time.Millisecond)
			active--
			sem.Release()
		})
	}
	k.Run()
	k.Shutdown()
	if peak != 2 {
		t.Fatalf("peak concurrency = %d, want 2", peak)
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	k := NewKernel(1)
	sem := NewSemaphore(k, 1)
	if !sem.TryAcquire() {
		t.Fatal("TryAcquire failed with a free permit")
	}
	if sem.TryAcquire() {
		t.Fatal("TryAcquire succeeded with no permits")
	}
	sem.Release()
	if sem.Available() != 1 {
		t.Fatalf("Available = %d, want 1", sem.Available())
	}
}

func TestEventBroadcast(t *testing.T) {
	k := NewKernel(1)
	ev := NewEvent(k)
	woken := 0
	for i := 0; i < 3; i++ {
		k.Go("waiter", func(p *Proc) {
			ev.Wait(p)
			woken++
		})
	}
	k.Go("firer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		ev.Fire()
		ev.Fire() // double fire is a no-op
	})
	k.Run()
	k.Shutdown()
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
	if !ev.Fired() {
		t.Fatal("event not marked fired")
	}
}

func TestEventWaitAfterFire(t *testing.T) {
	k := NewKernel(1)
	ev := NewEvent(k)
	ev.Fire()
	done := false
	k.Go("late", func(p *Proc) {
		ev.Wait(p) // must not block
		done = true
	})
	k.Run()
	k.Shutdown()
	if !done {
		t.Fatal("Wait after Fire blocked")
	}
}

func TestWaitGroup(t *testing.T) {
	k := NewKernel(1)
	wg := NewWaitGroup(k)
	wg.Add(3)
	var finish time.Duration
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * time.Millisecond
		k.Go("w", func(p *Proc) {
			p.Sleep(d)
			wg.Done()
		})
	}
	k.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		finish = p.Now()
	})
	k.Run()
	k.Shutdown()
	if finish != 3*time.Millisecond {
		t.Fatalf("waiter released at %v, want 3ms", finish)
	}
}

func TestShutdownReapsBlockedProcs(t *testing.T) {
	k := NewKernel(1)
	ch := NewChan[int](k)
	for i := 0; i < 4; i++ {
		k.Go("stuck", func(p *Proc) { ch.Recv(p) })
	}
	k.Run()
	k.Shutdown() // must not hang or panic
	if len(k.procs) != 0 {
		t.Fatalf("%d procs leaked", len(k.procs))
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func(seed int64) []int64 {
		k := NewKernel(seed)
		var out []int64
		for i := 0; i < 4; i++ {
			k.Go("p", func(p *Proc) {
				for j := 0; j < 10; j++ {
					d := time.Duration(k.Rand().Intn(1000)) * time.Microsecond
					p.Sleep(d)
					out = append(out, int64(p.Now()))
				}
			})
		}
		k.Run()
		k.Shutdown()
		return out
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := trace(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestCPUSingleJob(t *testing.T) {
	k := NewKernel(1)
	cpu := NewCPU(k)
	var took time.Duration
	k.Go("job", func(p *Proc) {
		start := p.Now()
		cpu.Use(p, 10*time.Millisecond)
		took = p.Now() - start
	})
	k.Run()
	k.Shutdown()
	if took != 10*time.Millisecond {
		t.Fatalf("uncontended job took %v, want 10ms", took)
	}
}

func TestCPUProcessorSharing(t *testing.T) {
	k := NewKernel(1)
	cpu := NewCPU(k)
	var took [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		k.Go("job", func(p *Proc) {
			start := p.Now()
			cpu.Use(p, 10*time.Millisecond)
			took[i] = p.Now() - start
		})
	}
	k.Run()
	k.Shutdown()
	// Two equal jobs sharing one CPU should each take ~2x.
	for i, d := range took {
		if d < 19*time.Millisecond || d > 21*time.Millisecond {
			t.Fatalf("job %d took %v, want ~20ms", i, d)
		}
	}
}

func TestCPUBackgroundLoadSlowsJobs(t *testing.T) {
	k := NewKernel(1)
	cpu := NewCPU(k)
	cpu.SetBackground(4)
	var took time.Duration
	k.Go("job", func(p *Proc) {
		start := p.Now()
		cpu.Use(p, 10*time.Millisecond)
		took = p.Now() - start
	})
	k.Run()
	k.Shutdown()
	// 1 job + 4 spinners: job gets a 1/5 share.
	if took < 49*time.Millisecond || took > 51*time.Millisecond {
		t.Fatalf("job with background load took %v, want ~50ms", took)
	}
}

func TestCPUStaggeredArrivals(t *testing.T) {
	k := NewKernel(1)
	cpu := NewCPU(k)
	var firstDone, secondDone time.Duration
	k.Go("first", func(p *Proc) {
		cpu.Use(p, 10*time.Millisecond)
		firstDone = p.Now()
	})
	k.Go("second", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		cpu.Use(p, 10*time.Millisecond)
		secondDone = p.Now()
	})
	k.Run()
	k.Shutdown()
	// First runs alone 0-5ms (5ms served), shares 5-15 (5ms more): done ~15ms.
	// Second shares 5-15 (5ms served), alone 15-20: done ~20ms.
	if firstDone < 14*time.Millisecond || firstDone > 16*time.Millisecond {
		t.Fatalf("first done at %v, want ~15ms", firstDone)
	}
	if secondDone < 19*time.Millisecond || secondDone > 21*time.Millisecond {
		t.Fatalf("second done at %v, want ~20ms", secondDone)
	}
}

func TestCPUZeroDuration(t *testing.T) {
	k := NewKernel(1)
	cpu := NewCPU(k)
	ran := false
	k.Go("job", func(p *Proc) {
		cpu.Use(p, 0)
		ran = true
	})
	k.Run()
	k.Shutdown()
	if !ran {
		t.Fatal("zero-duration Use blocked forever")
	}
}

// TestCPUEqualJobsFireInSubmissionOrder: jobs that finish at the same
// instant complete in the order they were submitted, on every run — the
// simulator's determinism must not hang on map iteration order.
func TestCPUEqualJobsFireInSubmissionOrder(t *testing.T) {
	const jobs = 8
	for rep := 0; rep < 20; rep++ {
		k := NewKernel(1)
		cpu := NewCPU(k)
		var order []int
		for i := 0; i < jobs; i++ {
			i := i
			k.Go("job", func(p *Proc) {
				cpu.Use(p, time.Millisecond)
				order = append(order, i)
			})
		}
		k.Run()
		k.Shutdown()
		for i, got := range order {
			if got != i {
				t.Fatalf("rep %d: completion order %v, want submission order", rep, order)
			}
		}
		if len(order) != jobs {
			t.Fatalf("rep %d: %d of %d jobs completed", rep, len(order), jobs)
		}
	}
}

// TestEventOrderMatchesReference: random mixes of callbacks, sleeps,
// wakes through every primitive and Timer Resets and Stops, with many
// same-instant ties, fire in the order a stable sort of their (at, seq)
// stamps gives, less the firings that Reset or Stop cancelled.
func TestEventOrderMatchesReference(t *testing.T) {
	type stamp struct {
		at, seq int64
		id      int
	}
	for seed := int64(1); seed <= 20; seed++ {
		k := NewKernel(seed)
		r := rand.New(rand.NewSource(seed))
		var want []stamp
		var got []int
		// expect stamps the event the kernel's next push creates.
		expect := func(delay time.Duration) int {
			id := len(want)
			want = append(want, stamp{k.now + int64(max(delay, 0)), k.seq + 1, id})
			return id
		}
		// delay spans -1..2 ms: negative delays clamp to now, so most
		// events tie with others at their instant.
		delay := func() time.Duration { return time.Duration(r.Intn(4)-1) * time.Millisecond }

		ch := NewChan[int](k)
		sem := NewSemaphore(k, 0)
		ev := NewEvent(k)
		pending := map[*Proc]int{} // the wake each blocked process waits for
		cancelled := map[int]bool{}
		timers := make([]*Timer, 8)
		armed := make([]int, len(timers)) // each timer's pending firing, -1 if none
		reset := func(i int) {
			if armed[i] >= 0 {
				cancelled[armed[i]] = true
			}
			d := delay()
			armed[i] = expect(d)
			timers[i].Reset(d)
		}
		stop := func(i int) {
			if was := timers[i].Stop(); was != (armed[i] >= 0) {
				t.Fatalf("seed %d: timer %d Stop = %v, want %v", seed, i, was, !was)
			}
			if armed[i] >= 0 {
				cancelled[armed[i]] = true
				armed[i] = -1
			}
		}
		for i := range timers {
			armed[i] = -1
			timers[i] = k.NewTimer(func() {
				got = append(got, armed[i])
				armed[i] = -1
				if r.Intn(2) == 0 {
					reset(i) // re-arm from its own callback
				}
			})
		}
		timerOp := func() {
			if i := r.Intn(len(timers)); r.Intn(3) == 0 {
				stop(i)
			} else {
				reset(i)
			}
		}
		send := func() {
			if len(ch.recvq) > 0 {
				pending[ch.recvq[0].p] = expect(0)
			}
			ch.Send(0)
		}
		release := func() {
			if len(sem.q) > 0 {
				pending[sem.q[0]] = expect(0)
			}
			sem.Release()
		}
		fire := func() {
			if !ev.Fired() {
				for _, w := range ev.waiters {
					pending[w] = expect(0)
				}
			}
			ev.Fire()
		}
		var schedule func(depth int)
		schedule = func(depth int) {
			d := delay()
			id := expect(d)
			k.Schedule(d, func() {
				got = append(got, id)
				switch r.Intn(6) {
				case 0:
					send()
				case 1:
					release()
				case 2:
					if r.Intn(8) == 0 {
						fire()
					}
				case 3, 4:
					timerOp()
				}
				if depth < 3 && r.Intn(2) == 0 {
					schedule(depth + 1)
				}
			})
		}
		body := func(p *Proc) {
			got = append(got, pending[p])
			for step := 0; step < 40; step++ {
				switch r.Intn(8) {
				case 0, 1:
					d := delay()
					pending[p] = expect(d)
					p.Sleep(d)
				case 2:
					blocks := ch.Len() == 0
					ch.Recv(p)
					if !blocks {
						continue
					}
				case 3:
					blocks := sem.Available() == 0
					sem.Acquire(p)
					if !blocks {
						continue
					}
				case 4:
					blocks := !ev.Fired()
					ev.Wait(p)
					if !blocks {
						continue
					}
				case 5:
					schedule(0)
					continue
				case 6:
					if r.Intn(2) == 0 {
						send()
					} else {
						release()
					}
					continue
				case 7:
					timerOp()
					continue
				}
				got = append(got, pending[p])
			}
		}
		for i := 0; i < 8; i++ {
			id := expect(0)
			pending[k.Go("p", body)] = id
			schedule(0)
		}
		// churn keeps the timers moving while the mix above runs down.
		churn := func(p *Proc) {
			got = append(got, pending[p])
			for step := 0; step < 40; step++ {
				timerOp()
				d := delay()
				pending[p] = expect(d)
				p.Sleep(d)
				got = append(got, pending[p])
			}
		}
		pending[k.Go("churn", churn)] = expect(0)
		k.Run()
		k.Shutdown()

		var ref []stamp
		for _, w := range want {
			if !cancelled[w.id] {
				ref = append(ref, w)
			}
		}
		sort.SliceStable(ref, func(i, j int) bool {
			if ref[i].at != ref[j].at {
				return ref[i].at < ref[j].at
			}
			return ref[i].seq < ref[j].seq
		})
		if int64(len(ref)) != k.EventsRun() {
			t.Fatalf("seed %d: stamped %d live events, kernel ran %d", seed, len(ref), k.EventsRun())
		}
		if len(cancelled) == 0 {
			t.Fatalf("seed %d: no timer firing was cancelled", seed)
		}
		if len(got) != len(ref) {
			t.Fatalf("seed %d: %d of %d events observed", seed, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i].id {
				t.Fatalf("seed %d: event %d fired id %d, reference says id %d (at %v seq %d)",
					seed, i, got[i], ref[i].id, time.Duration(ref[i].at), ref[i].seq)
			}
		}
	}
}

// TestTimerStopReports: Stop reports true only for a pending firing, and
// a stopped or moved firing neither runs nor holds the drained clock.
func TestTimerStopReports(t *testing.T) {
	k := NewKernel(1)
	var fired []time.Duration
	tm := k.AfterFunc(time.Hour, func() { fired = append(fired, k.Now()) })
	if !tm.Stop() {
		t.Fatal("Stop on a pending timer = false")
	}
	if tm.Stop() {
		t.Fatal("second Stop = true")
	}
	k.Run()
	if len(fired) != 0 || k.Now() != 0 || k.EventsRun() != 0 {
		t.Fatalf("stopped timer: fired at %v, clock %v, %d events run", fired, k.Now(), k.EventsRun())
	}

	tm.Reset(time.Hour)
	tm.Reset(2 * time.Millisecond) // moves the firing; it does not add one
	k.Schedule(time.Millisecond, func() {
		if tm.Stop() {
			tm.Reset(3 * time.Millisecond) // due at 4 ms
		}
	})
	k.Run()
	if len(fired) != 1 || fired[0] != 4*time.Millisecond || k.Now() != 4*time.Millisecond {
		t.Fatalf("fired at %v, clock %v; want once at 4ms", fired, k.Now())
	}
	if tm.Stop() {
		t.Fatal("Stop after the timer fired = true")
	}
	if mean, peak := k.HeapDepth(); peak != 2 || mean != 1.5 {
		t.Fatalf("HeapDepth = %v, %d; want 1.5, 2", mean, peak)
	}
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine N [running]:").
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestHandoffPingPongAcrossLimits: two processes exchange 10k messages,
// one per virtual microsecond; each RunUntil returns control at its limit
// with exactly the rounds due by then done, and the next call resumes.
func TestHandoffPingPongAcrossLimits(t *testing.T) {
	const rounds = 10000
	k := NewKernel(1)
	ping, pong := NewChan[int](k), NewChan[int](k)
	done := 0
	k.Go("ping", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Sleep(time.Microsecond)
			ping.Send(i)
			if v := pong.Recv(p); v != i {
				t.Errorf("round %d: pong returned %d", i, v)
				return
			}
			done++
		}
	})
	k.Go("pong", func(p *Proc) {
		for {
			pong.Send(ping.Recv(p))
		}
	})
	for _, limit := range []time.Duration{0, 1500*time.Microsecond + 500, 4 * time.Millisecond, 7*time.Millisecond + 1} {
		k.RunUntil(limit)
		if k.Now() != limit {
			t.Fatalf("RunUntil(%v) returned at %v", limit, k.Now())
		}
		if want := int(limit / time.Microsecond); done != want {
			t.Fatalf("RunUntil(%v): %d rounds done, want %d", limit, done, want)
		}
	}
	k.Run()
	k.Shutdown()
	if done != rounds {
		t.Fatalf("%d of %d rounds done", done, rounds)
	}
}

// TestHandoffExitResumesNextProcess: a process that exits runs the event
// loop on its own goroutine and hands control to the next process due;
// RunUntil's goroutine is not involved.
func TestHandoffExitResumesNextProcess(t *testing.T) {
	k := NewKernel(1)
	driver := goid()
	var exiter, callback string
	var order []string
	k.Go("exiter", func(p *Proc) {
		exiter = goid()
		order = append(order, "exiter")
	})
	k.Schedule(0, func() {
		callback = goid()
		order = append(order, "callback")
	})
	k.Go("next", func(p *Proc) { order = append(order, "next") })
	k.Run()
	k.Shutdown()
	if strings.Join(order, ",") != "exiter,callback,next" {
		t.Fatalf("order = %v", order)
	}
	if callback != exiter || callback == driver {
		t.Fatalf("callback after the exit ran on goroutine %s; exiter %s, driver %s", callback, exiter, driver)
	}
}

// TestHandoffSelfWakeContinues: a process woken at the instant it parks,
// by a callback its own park ran, continues on its own goroutine.
func TestHandoffSelfWakeContinues(t *testing.T) {
	k := NewKernel(1)
	driver := goid()
	ch := NewChan[int](k)
	var self, callback string
	got := -1
	k.Go("p", func(p *Proc) {
		self = goid()
		k.Schedule(0, func() {
			callback = goid()
			ch.Send(7)
		})
		got = ch.Recv(p)
		for i := 0; i < 100; i++ {
			p.Sleep(0)
		}
	})
	k.Run()
	k.Shutdown()
	if got != 7 || k.Now() != 0 {
		t.Fatalf("received %d at %v, want 7 at 0", got, k.Now())
	}
	if callback != self || callback == driver {
		t.Fatalf("waking callback ran on goroutine %s; process %s, driver %s", callback, self, driver)
	}
}

// TestShutdownAfterRunUntilReapsWokenProcs: after a RunUntil that leaves a
// process woken but not yet resumed, one not yet started, one asleep past
// the limit and one blocked for good, Shutdown reaps every goroutine, and
// a later Run skips the stale resumptions.
func TestShutdownAfterRunUntilReapsWokenProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	stuck, woken := NewChan[int](k), NewChan[int](k)
	resumed := 0
	k.Go("stuck", func(p *Proc) { stuck.Recv(p); resumed++ })
	k.Go("woken", func(p *Proc) { woken.Recv(p); resumed++ })
	k.Go("sleeper", func(p *Proc) { p.Sleep(time.Hour); resumed++ })
	k.RunUntil(time.Millisecond)
	woken.Send(1)
	k.Go("unstarted", func(p *Proc) { resumed++ })
	k.Shutdown()
	if len(k.procs) != 0 {
		t.Fatalf("%d procs survived Shutdown", len(k.procs))
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Shutdown, %d before the kernel", n, before)
	}
	k.Run()
	if resumed != 0 {
		t.Fatalf("%d killed processes resumed", resumed)
	}
}

// TestWakeDoesNotAllocate pins the allocation-free path: resuming a
// process costs no allocation for Sleep, Chan.Send→Recv,
// Semaphore.Release, Event.Fire or a contended CPU.Use, and moving or
// stopping a Timer costs none either.
func TestWakeDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const runs = 200
	cases := []struct {
		name  string
		wakes int // per virtual millisecond
		start func(k *Kernel)
	}{
		{"Sleep", 1, func(k *Kernel) {
			k.Go("sleeper", func(p *Proc) {
				for {
					p.Sleep(time.Millisecond)
				}
			})
		}},
		{"Chan.Send→Recv", 2, func(k *Kernel) {
			ch := NewChan[int](k)
			k.Go("receiver", func(p *Proc) {
				for {
					ch.Recv(p)
				}
			})
			k.Go("sender", func(p *Proc) {
				for i := 0; ; i++ {
					p.Sleep(time.Millisecond)
					ch.Send(i)
				}
			})
		}},
		{"Semaphore.Release", 2, func(k *Kernel) {
			sem := NewSemaphore(k, 0)
			k.Go("acquirer", func(p *Proc) {
				for {
					sem.Acquire(p)
				}
			})
			k.Go("releaser", func(p *Proc) {
				for {
					p.Sleep(time.Millisecond)
					sem.Release()
				}
			})
		}},
		{"CPU.Use", 4, func(k *Kernel) {
			// Four staggered users and four background jobs: each
			// arrival and departure moves the completion timer.
			cpu := NewCPU(k)
			cpu.SetBackground(4)
			for i := 0; i < 4; i++ {
				k.Go("user", func(p *Proc) {
					p.Sleep(time.Duration(i) * 50 * time.Microsecond)
					for {
						cpu.Use(p, 125*time.Microsecond)
					}
				})
			}
		}},
		{"Timer.Reset/Stop", 2, func(k *Kernel) {
			tm := k.NewTimer(func() {})
			k.Go("resetter", func(p *Proc) {
				for {
					tm.Reset(time.Millisecond / 4)
					tm.Reset(time.Millisecond)
					p.Sleep(time.Millisecond / 2)
					tm.Stop()
					tm.Reset(time.Millisecond / 4)
					p.Sleep(time.Millisecond / 2)
				}
			})
		}},
		{"Event.Fire", 2, func(k *Kernel) {
			evs := make([]*Event, 2*runs)
			for i := range evs {
				evs[i] = NewEvent(k)
			}
			k.Go("waiter", func(p *Proc) {
				for _, ev := range evs {
					ev.Wait(p)
				}
			})
			k.Go("firer", func(p *Proc) {
				for _, ev := range evs {
					p.Sleep(time.Millisecond)
					ev.Fire()
				}
			})
		}},
	}
	for _, c := range cases {
		k := NewKernel(1)
		c.start(k)
		step := func() { k.RunUntil(k.Now() + time.Millisecond) }
		for i := 0; i < 10; i++ {
			step() // grow the heap and wait queues to their working size
		}
		allocs := testing.AllocsPerRun(runs, step)
		k.Shutdown()
		if allocs != 0 {
			t.Errorf("%s: %.0f allocations per %d wakes, want 0", c.name, allocs, c.wakes)
		}
	}
}
