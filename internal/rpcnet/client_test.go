package rpcnet

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestStalledPeerFailsBlockedSenders: 16 concurrent 1 MB calls to a
// TCP peer that never replies, so every call must end in a timeout or a
// send failure, and Close must leave no goroutine behind.
//
// In "stalled" the peer never reads, so the socket buffers fill and the
// writes block: the write deadline must fail the blocked sender and the
// transport with it, releasing every caller queued behind it within a
// few timeouts.
//
// In "slow-reader" the peer reads slowly but steadily, so every write
// finishes inside the write deadline and the transport stays up, while
// the 16 writes together take several timeouts. A caller queued behind
// that backlog must give up at its own deadline (bounding each call by
// about the timeout plus one write) and must not put its request on the
// wire after it has been reported as timed out: fewer records than
// calls reach the peer.
func TestStalledPeerFailsBlockedSenders(t *testing.T) {
	const calls = 16
	for _, tc := range []struct {
		name    string
		timeout time.Duration
		bound   time.Duration // per call
		slow    bool
	}{
		{name: "stalled", timeout: 200 * time.Millisecond, bound: 2 * time.Second},
		{name: "slow-reader", timeout: 400 * time.Millisecond, bound: time.Second, slow: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			accepted := make(chan net.Conn, 1)
			received := make(chan int64, 1) // bytes the slow reader read before EOF
			go func() {
				conn, err := ln.Accept()
				accepted <- conn
				if err != nil || !tc.slow {
					return
				}
				// Small fixed buffers on both ends keep the kernel from
				// absorbing the backlog; 64 KB per 6 ms paces a 1 MB
				// record at about 100 ms.
				conn.(*net.TCPConn).SetReadBuffer(64 << 10)
				buf := make([]byte, 64<<10)
				var n int64
				for {
					m, err := conn.Read(buf)
					n += int64(m)
					if err != nil {
						received <- n
						return
					}
					time.Sleep(6 * time.Millisecond)
				}
			}()
			c, err := Dial("tcp", ln.Addr().String(), 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if tc.slow {
				c.conn.(*net.TCPConn).SetWriteBuffer(64 << 10)
			}
			c.SetTimeout(tc.timeout)
			args := make([]byte, 1<<20)
			type result struct {
				err  error
				took time.Duration
			}
			results := make(chan result, calls)
			for i := 0; i < calls; i++ {
				go func() {
					began := time.Now()
					_, err := c.Call(1, args)
					results <- result{err, time.Since(began)}
				}()
			}
			deadline := time.After(10 * tc.timeout)
			for i := 0; i < calls; i++ {
				select {
				case r := <-results:
					if tc.slow && !errors.Is(r.err, ErrReplyTimeout) {
						t.Fatalf("call to a slow but reading peer returned %v", r.err)
					}
					if !errors.Is(r.err, ErrSendFailed) && !errors.Is(r.err, ErrReplyTimeout) {
						t.Fatalf("call to a stalled peer returned %v", r.err)
					}
					if r.took > tc.bound {
						t.Fatalf("a call took %v to fail, want at most %v", r.took, tc.bound)
					}
				case <-deadline:
					t.Fatalf("%d of %d calls still blocked after %v", calls-i, calls, 10*tc.timeout)
				}
			}
			c.Close()
			if tc.slow {
				// The peer reads up to EOF: every record that was
				// written, and a cut one if Close ended a write.
				n := <-received
				record := len(*c.marshalCallXID(1, 1, args))
				if sent := n / int64(record); sent >= calls {
					t.Fatalf("peer read %d bytes = %d records of %d bytes; calls queued past their deadline must not be sent",
						n, sent, record)
				} else {
					t.Logf("%d of %d requests reached the wire", sent, calls)
				}
			}
			if conn := <-accepted; conn != nil {
				conn.Close()
			}
			ln.Close()
			waitGoroutines(t, base, "Close")
		})
	}
}

// TestSendAfterTimeoutSkipsWire: a send whose deadline has already
// fired when the write lock is free (both select cases ready) reports
// the timeout and writes nothing.
func TestSendAfterTimeoutSkipsWire(t *testing.T) {
	peer, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	c, err := Dial("udp", peer.LocalAddr().String(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	expired := make(chan time.Time)
	close(expired)
	for i := 0; i < 64; i++ {
		if err := c.send(c.marshalCallXID(uint32(i), 1, nil), expired); !errors.Is(err, ErrReplyTimeout) {
			t.Fatalf("send past its deadline returned %v", err)
		}
	}
	peer.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if n, _, err := peer.ReadFrom(make([]byte, 1<<16)); err == nil {
		t.Fatalf("a send past its deadline put %d bytes on the wire", n)
	}
}

// TestCloseRacesSenders: callers looping on Call and Go/Wait while Close
// runs all see ErrClientClosed — a send that loses the race to Close
// reports the closed client, never the socket's "use of closed network
// connection".
func TestCloseRacesSenders(t *testing.T) {
	const senders = 8
	s := startServer(t)
	for _, network := range []string{"udp", "tcp"} {
		for round := 0; round < 10; round++ {
			c, err := Dial(network, s.Addr(), 100003, 3)
			if err != nil {
				t.Fatal(err)
			}
			errs := make(chan error, senders)
			// started holds Close until every sender has finished a
			// call, so all of them are mid-loop when it runs.
			var wg, started sync.WaitGroup
			for g := 0; g < senders; g++ {
				wg.Add(1)
				started.Add(1)
				go func(useGo bool) {
					defer wg.Done()
					for n := 0; ; n++ {
						var err error
						if useGo {
							_, err = c.Go(1, []byte("x")).Wait(0)
						} else {
							_, err = c.Call(1, []byte("x"))
						}
						if n == 0 {
							started.Done()
						}
						if err != nil {
							errs <- err
							return
						}
					}
				}(g%2 == 1)
			}
			started.Wait()
			c.Close()
			wg.Wait()
			close(errs)
			for err := range errs {
				if !errors.Is(err, ErrClientClosed) {
					t.Fatalf("%s round %d: sender racing Close got %v", network, round, err)
				}
			}
		}
	}
}
