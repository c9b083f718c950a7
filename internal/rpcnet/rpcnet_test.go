package rpcnet

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"nfstricks/internal/sunrpc"
)

// echoHandler returns the body with a marker prefix, appended into the
// server's reply buffer.
func echoHandler(_ CallInfo, proc uint32, body []byte, reply []byte) ([]byte, uint32) {
	if proc == 99 {
		return reply, sunrpc.AcceptProcUnavail
	}
	reply = append(reply, byte(proc))
	return append(reply, body...), sunrpc.AcceptSuccess
}

func startServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServerInfo("127.0.0.1:0", 100003, 3, echoHandler, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestCallOverUDPAndTCP(t *testing.T) {
	s := startServer(t)
	for _, network := range []string{"udp", "tcp"} {
		c, err := Dial(network, s.Addr(), 100003, 3)
		if err != nil {
			t.Fatalf("%s: %v", network, err)
		}
		body, err := c.Call(7, []byte("payload"))
		if err != nil {
			t.Fatalf("%s call: %v", network, err)
		}
		if !bytes.Equal(body, append([]byte{7}, []byte("payload")...)) {
			t.Fatalf("%s body = %v", network, body)
		}
		c.Close()
	}
}

func TestProcUnavail(t *testing.T) {
	s := startServer(t)
	c, err := Dial("tcp", s.Addr(), 100003, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(99, nil); err == nil {
		t.Fatal("proc-unavail call succeeded")
	}
}

func TestProgMismatch(t *testing.T) {
	s := startServer(t)
	c, err := Dial("tcp", s.Addr(), 200001, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(1, nil); err == nil {
		t.Fatal("wrong-program call succeeded")
	}
}

func TestLargePayloadTCP(t *testing.T) {
	s := startServer(t)
	c, err := Dial("tcp", s.Addr(), 100003, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := make([]byte, 32*1024)
	for i := range big {
		big[i] = byte(i)
	}
	body, err := c.Call(1, big)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != len(big)+1 || !bytes.Equal(body[1:], big) {
		t.Fatalf("large payload mangled: %d bytes", len(body))
	}
}

func TestConcurrentClients(t *testing.T) {
	s := startServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		network := "udp"
		if i%2 == 0 {
			network = "tcp"
		}
		wg.Add(1)
		go func(network string, i int) {
			defer wg.Done()
			c, err := Dial(network, s.Addr(), 100003, 3)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				payload := []byte{byte(i), byte(j)}
				body, err := c.Call(3, payload)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(body[1:], payload) {
					errs <- ErrRPC
					return
				}
			}
		}(network, i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPipelinedCallsOneClient issues concurrent calls from many
// goroutines over a single client connection: the XID demultiplexer
// must route every reply to the call that made it, over both
// transports. (Run under -race.)
func TestPipelinedCallsOneClient(t *testing.T) {
	s := startServer(t)
	for _, network := range []string{"udp", "tcp"} {
		c, err := Dial(network, s.Addr(), 100003, 3)
		if err != nil {
			t.Fatalf("%s: %v", network, err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for j := 0; j < 25; j++ {
					payload := []byte{byte(g), byte(j), byte(g ^ j)}
					body, err := c.Call(3, payload)
					if err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(body[1:], payload) {
						errs <- errors.New("reply routed to wrong call")
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("%s: %v", network, err)
		}
		c.Close()
	}
}

// TestPipeliningOverlapsSlowCalls proves calls really overlap: with a
// server that stalls one specific procedure, a slow call must not block
// a fast one issued after it on the same connection.
func TestPipeliningOverlapsSlowCalls(t *testing.T) {
	release := make(chan struct{})
	s, err := NewServerInfo("127.0.0.1:0", 1, 1, func(_ CallInfo, proc uint32, body []byte, reply []byte) ([]byte, uint32) {
		if proc == 7 {
			<-release
		}
		return append(reply, body...), sunrpc.AcceptSuccess
	}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial("tcp", s.Addr(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	slowDone := make(chan error, 1)
	go func() {
		_, err := c.Call(7, []byte("slow"))
		slowDone <- err
	}()
	// The fast call must complete while the slow one is still held.
	if _, err := c.Call(1, []byte("fast")); err != nil {
		t.Fatalf("fast call blocked behind slow call: %v", err)
	}
	select {
	case err := <-slowDone:
		t.Fatalf("slow call finished early: %v", err)
	default:
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
}

// TestCallContextCancel abandons a call via its context; the client
// must return promptly and stay usable for later calls.
func TestCallContextCancel(t *testing.T) {
	block := make(chan struct{})
	s, err := NewServerInfo("127.0.0.1:0", 1, 1, func(_ CallInfo, proc uint32, body []byte, reply []byte) ([]byte, uint32) {
		if proc == 7 {
			<-block
		}
		return append(reply, body...), sunrpc.AcceptSuccess
	}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(block)
		s.Close()
	}()
	c, err := Dial("udp", s.Addr(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if _, err := c.CallContext(ctx, 7, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call returned %v", err)
	}
	if _, err := c.Call(1, []byte("after")); err != nil {
		t.Fatalf("client unusable after cancel: %v", err)
	}
}

// TestUDPClientSurvivesServerRestart: a UDP transport error (server
// gone, ICMP port-unreachable) fails the in-flight call but must not
// poison the client — once a server is back on the same port, calls
// succeed again. TCP clients, by contrast, are dead after a stream
// error.
func TestUDPClientSurvivesServerRestart(t *testing.T) {
	s := startServer(t)
	addr := s.Addr()
	c, err := Dial("udp", addr, 100003, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(500 * time.Millisecond)
	if _, err := c.Call(1, []byte("up")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := c.Call(1, []byte("down")); err == nil {
		t.Fatal("call to stopped server succeeded")
	}
	// Restart on the same address; the old client must recover.
	s2, err := NewServerInfo(addr, 100003, 3, echoHandler, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var lastErr error
	for i := 0; i < 10; i++ {
		if _, lastErr = c.Call(1, []byte("back")); lastErr == nil {
			return
		}
	}
	t.Fatalf("UDP client never recovered after server restart: %v", lastErr)
}

// TestCallAfterClose: calls on a closed client fail fast.
func TestCallAfterClose(t *testing.T) {
	s := startServer(t)
	c, err := Dial("tcp", s.Addr(), 100003, 3)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Call(1, nil); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("call on closed client returned %v", err)
	}
}

func TestDialBadNetwork(t *testing.T) {
	if _, err := Dial("sctp", "127.0.0.1:1", 1, 1); err == nil {
		t.Fatal("bad network accepted")
	}
}

func TestCallTimeout(t *testing.T) {
	// A server that never answers: handler blocks.
	block := make(chan struct{})
	s, err := NewServerInfo("127.0.0.1:0", 1, 1, func(_ CallInfo, _ uint32, _ []byte, reply []byte) ([]byte, uint32) {
		<-block
		return reply, sunrpc.AcceptSuccess
	}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(block)
		s.Close()
	}()
	c, err := Dial("udp", s.Addr(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(100 * time.Millisecond)
	start := time.Now()
	if _, err := c.Call(1, nil); err == nil {
		t.Fatal("blocked call returned")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout not honored")
	}
}

// TestZeroTimeoutDisarmsWriteDeadline: switching a client from a short
// timeout to SetTimeout(0) must clear the socket write deadline armed
// by the earlier sends — otherwise a send after the old deadline passes
// fails a healthy TCP transport with a spurious i/o timeout.
func TestZeroTimeoutDisarmsWriteDeadline(t *testing.T) {
	s := startServer(t)
	c, err := Dial("tcp", s.Addr(), 100003, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(100 * time.Millisecond)
	if _, err := c.Call(1, []byte("armed")); err != nil {
		t.Fatal(err)
	}
	c.SetTimeout(0)
	time.Sleep(250 * time.Millisecond) // let the armed deadline lapse
	if _, err := c.Call(1, []byte("after")); err != nil {
		t.Fatalf("call after disarming timeout failed: %v", err)
	}
}

// tapSink collects tap events under a lock (taps run concurrently).
type tapSink struct {
	mu  sync.Mutex
	evs []TapEvent
}

func (ts *tapSink) tap(ev TapEvent) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	// Body/Result alias pooled buffers; a real tap parses them in
	// place, this test copies to inspect later.
	ev.Body = append([]byte(nil), ev.Body...)
	ev.Result = append([]byte(nil), ev.Result...)
	ts.evs = append(ts.evs, ev)
}

func (ts *tapSink) events() []TapEvent {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return append([]TapEvent(nil), ts.evs...)
}

// TestServerTap: every served RPC is observed with its procedure,
// accept status, body and result, per-connection stream ids are stable,
// and distinct connections get distinct ids.
func TestServerTap(t *testing.T) {
	for _, network := range []string{"udp", "tcp"} {
		var sink tapSink
		s, err := NewServerInfo("127.0.0.1:0", 100003, 3, echoHandler, ServerOptions{Tap: sink.tap})
		if err != nil {
			t.Fatal(err)
		}
		c1, err := Dial(network, s.Addr(), 100003, 3)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := Dial(network, s.Addr(), 100003, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := c1.Call(3, []byte{byte(i)}); err != nil {
				t.Fatalf("%s: %v", network, err)
			}
		}
		if _, err := c2.Call(7, []byte("two")); err != nil {
			t.Fatalf("%s: %v", network, err)
		}
		c2.Call(99, nil) // proc-unavail still taps, with its accept stat
		c1.Close()
		c2.Close()
		s.Close()

		evs := sink.events()
		if len(evs) != 7 {
			t.Fatalf("%s: %d events, want 7", network, len(evs))
		}
		streams := make(map[uint32]int)
		var unavail bool
		for _, ev := range evs {
			streams[ev.Stream]++
			if ev.When.IsZero() || ev.Latency < 0 {
				t.Fatalf("%s: bad timing %+v", network, ev)
			}
			switch ev.Proc {
			case 3:
				if ev.Stat != sunrpc.AcceptSuccess || len(ev.Body) != 1 ||
					!bytes.Equal(ev.Result, append([]byte{3}, ev.Body...)) {
					t.Fatalf("%s: proc 3 event %+v", network, ev)
				}
			case 7:
				if string(ev.Body) != "two" {
					t.Fatalf("%s: proc 7 body %q", network, ev.Body)
				}
			case 99:
				if ev.Stat != sunrpc.AcceptProcUnavail {
					t.Fatalf("%s: proc 99 stat %d", network, ev.Stat)
				}
				unavail = true
			}
		}
		if !unavail {
			t.Fatalf("%s: proc-unavail call not tapped", network)
		}
		if len(streams) != 2 {
			t.Fatalf("%s: %d stream ids, want 2 (one per connection): %v", network, len(streams), streams)
		}
		for id, n := range streams {
			if n != 5 && n != 2 {
				t.Fatalf("%s: stream %d has %d events, want 5 or 2", network, id, n)
			}
		}
	}
}

// TestCloseDrainsInFlightRequests: Close must wait for requests whose
// handlers are still running, so a shutdown (final stats, trace flush)
// can trust it saw every served RPC. The tap is the observer: its event
// must be emitted before Close returns.
func TestCloseDrainsInFlightRequests(t *testing.T) {
	for _, network := range []string{"udp", "tcp"} {
		var sink tapSink
		entered := make(chan struct{}, 1)
		s, err := NewServerInfo("127.0.0.1:0", 1, 1, func(_ CallInfo, _ uint32, _ []byte, reply []byte) ([]byte, uint32) {
			entered <- struct{}{}
			time.Sleep(100 * time.Millisecond)
			return reply, sunrpc.AcceptSuccess
		}, ServerOptions{Tap: sink.tap})
		if err != nil {
			t.Fatal(err)
		}
		c, err := Dial(network, s.Addr(), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		p := c.Go(1, []byte("slow"))
		<-entered // the handler is running
		s.Close() // must block until the handler (and its tap) finish
		if evs := sink.events(); len(evs) != 1 {
			t.Fatalf("%s: %d tap events after Close, want 1 (in-flight request dropped)", network, len(evs))
		}
		p.Wait(time.Second) // reply may or may not make it out; either way, no hang
		c.Close()
	}
}

// TestGoPipelinesInOrder: Go issues calls without waiting; replies
// collected afterwards match their requests.
func TestGoPipelinesInOrder(t *testing.T) {
	s := startServer(t)
	for _, network := range []string{"udp", "tcp"} {
		c, err := Dial(network, s.Addr(), 100003, 3)
		if err != nil {
			t.Fatal(err)
		}
		const n = 200
		pending := make([]*Pending, n)
		for i := range pending {
			pending[i] = c.Go(3, []byte{byte(i), byte(i >> 8)})
		}
		for i, p := range pending {
			body, err := p.Wait(5 * time.Second)
			if err != nil {
				t.Fatalf("%s call %d: %v", network, i, err)
			}
			if !bytes.Equal(body, []byte{3, byte(i), byte(i >> 8)}) {
				t.Fatalf("%s call %d: reply %v", network, i, body)
			}
		}
		c.Close()
	}
}

// TestGoWaitTimeoutAndClosed: Wait times out on a silent server; Go on
// a closed client fails immediately; double Wait is an error, not a
// hang.
func TestGoWaitTimeoutAndClosed(t *testing.T) {
	block := make(chan struct{})
	s, err := NewServerInfo("127.0.0.1:0", 1, 1, func(_ CallInfo, _ uint32, _ []byte, reply []byte) ([]byte, uint32) {
		<-block
		return reply, sunrpc.AcceptSuccess
	}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(block)
		s.Close()
	}()
	c, err := Dial("udp", s.Addr(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := c.Go(1, nil)
	if _, err := p.Wait(100 * time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait on silent server = %v", err)
	}
	if _, err := p.Wait(time.Second); err == nil {
		t.Fatal("second Wait succeeded")
	}
	c.Close()
	if _, err := c.Go(1, nil).Wait(time.Second); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Go on closed client = %v", err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	s := startServer(t)
	c, err := Dial("tcp", s.Addr(), 100003, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	c.SetTimeout(500 * time.Millisecond)
	if _, err := c.Call(1, []byte("y")); err == nil {
		t.Fatal("call to closed server succeeded")
	}
}
