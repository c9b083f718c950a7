package sim

import (
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
