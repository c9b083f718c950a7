package sim

import (
	"math/rand"
	"testing"
	"time"
)

// BenchmarkSchedule runs callback events through a heap holding about
// 500 pending ones, the depth of a fig7 cell's. Each callback schedules
// its successor at a random delay, so one op is one pop and one push.
func BenchmarkSchedule(b *testing.B) {
	const depth = 500
	r := rand.New(rand.NewSource(1))
	var delays [1024]time.Duration
	for i := range delays {
		delays[i] = time.Duration(r.Int63n(int64(time.Second)))
	}
	b.ReportAllocs()
	k := NewKernel(1)
	scheduled := 0
	var fn func()
	fn = func() {
		if scheduled < b.N {
			k.Schedule(delays[scheduled%len(delays)], fn)
			scheduled++
		}
	}
	for i := 0; i < depth; i++ {
		fn()
	}
	k.Run()
}

// BenchmarkProcPingPong passes a message from one process to another
// through a Chan and back. One op is one round trip: two wakes.
func BenchmarkProcPingPong(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	ping, pong := NewChan[int](k), NewChan[int](k)
	k.Go("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Send(i)
			pong.Recv(p)
		}
	})
	k.Go("pong", func(p *Proc) {
		for {
			pong.Send(ping.Recv(p))
		}
	})
	k.Run()
	k.Shutdown()
}

// BenchmarkCPUUse runs jobs through a CPU shared by four processes and
// four background jobs, the busy client of fig6 and fig7. One op is one
// Use: an arrival and a departure, each of which moves the completion
// timer, and one wake.
func BenchmarkCPUUse(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	cpu := NewCPU(k)
	cpu.SetBackground(4)
	n := 0
	for i := 0; i < 4; i++ {
		d := time.Duration(100+37*i) * time.Microsecond
		k.Go("user", func(p *Proc) {
			for n < b.N {
				n++
				cpu.Use(p, d)
			}
		})
	}
	k.Run()
	k.Shutdown()
}
