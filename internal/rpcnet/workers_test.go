package rpcnet

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"nfstricks/internal/sunrpc"
)

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine N [running]:"). Ids are never reused within a process.
func goid() string {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	return string(bytes.Fields(buf[:n])[1])
}

// TestWorkerSetReusesParkedWorkers: requests dispatched one after
// another are served by a handful of long-lived workers, not by one
// goroutine each.
func TestWorkerSetReusesParkedWorkers(t *testing.T) {
	const requests = 1000
	var wg sync.WaitGroup
	done := make(chan string)
	w := newWorkers(&wg, func(request) { done <- goid() })
	served := make(map[string]int)
	for i := 0; i < requests; i++ {
		w.dispatch(request{})
		served[<-done]++
	}
	w.stop()
	wg.Wait()
	// A worker that has answered but not yet parked when the next
	// request comes is passed over, so a few workers may be started;
	// a goroutine per request would show a thousand.
	if len(served) > requests/20 {
		t.Fatalf("%d requests served by %d goroutines", requests, len(served))
	}
}

// waitGoroutines waits until at most want goroutines are running, with
// a deadline, and fails with every goroutine's stack if they never are.
func waitGoroutines(t *testing.T, want int, after string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("after %s: %d goroutines, want at most %d\n%s", after, runtime.NumGoroutine(), want, buf)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNoGoroutineLeak: a burst of concurrent slow calls forces one
// worker per call, on a TCP connection and then on UDP; closing the
// client ends the connection's workers, and Server.Close ends the
// datagram workers, so the goroutine count returns to where it was.
func TestNoGoroutineLeak(t *testing.T) {
	const calls = 16
	base := runtime.NumGoroutine()
	entered := make(chan struct{})
	release := make(chan struct{})
	s, err := NewServerInfo("127.0.0.1:0", 1, 1, func(_ CallInfo, _ uint32, body []byte, reply []byte) ([]byte, uint32) {
		entered <- struct{}{}
		<-release
		return append(reply, body...), sunrpc.AcceptSuccess
	}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	serving := runtime.NumGoroutine()

	burst := func(network string) {
		c, err := Dial(network, s.Addr(), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		pend := make([]*Pending, calls)
		for i := range pend {
			pend[i] = c.Go(1, []byte{byte(i)})
		}
		for i := 0; i < calls; i++ {
			select {
			case <-entered:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: only %d of %d calls reached the handler", network, i, calls)
			}
		}
		for i := 0; i < calls; i++ {
			release <- struct{}{}
		}
		for i, p := range pend {
			if body, err := p.Wait(10 * time.Second); err != nil || !bytes.Equal(body, []byte{byte(i)}) {
				t.Fatalf("%s call %d: body %v, err %v", network, i, body, err)
			}
		}
		c.Close()
	}

	burst("tcp")
	waitGoroutines(t, serving, "closing the TCP client")
	burst("udp")
	s.Close()
	waitGoroutines(t, base, "Server.Close")
}
