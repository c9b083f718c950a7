package replay

import (
	"errors"
	"fmt"
	"sync"
	"syscall"
	"testing"
	"time"

	"nfstricks/internal/nfsproto"
	"nfstricks/internal/rpcnet"
)

// TestReplayAmplify: M tenants replay the whole trace each — M× the
// ops, every per-stream sequence intact, zero errors.
func TestReplayAmplify(t *testing.T) {
	tg, collect := newTarget(t)
	src := traceFor(tg, 0)
	const tenants = 3
	// One connection per tenant×stream, so the capture tap sees each as
	// its own server-side stream and per-stream ordering is checkable.
	st, err := Run(src, Options{
		Network: "tcp", Addr: tg.addr,
		OpenLoop: true, Amplify: tenants,
		Dial: dedicatedDial(t, tg.addr),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenants != tenants {
		t.Fatalf("Tenants = %d, want %d", st.Tenants, tenants)
	}
	if want := int64(len(src) * tenants); st.Ops != want {
		t.Fatalf("Ops = %d, want %d", st.Ops, want)
	}
	if st.Streams != 2*tenants {
		t.Fatalf("Streams = %d, want %d", st.Streams, 2*tenants)
	}
	if st.Errors != 0 || st.NFSErrors != 0 {
		t.Fatalf("errors: %+v", st)
	}

	// Each captured stream must carry one of the two source sequences;
	// each source sequence must appear exactly `tenants` times.
	want := expectedKeys(src)
	got := keysByStream(collect())
	if len(got) != 2*tenants {
		t.Fatalf("captured %d streams, want %d", len(got), 2*tenants)
	}
	matches := make(map[uint32]int)
	for gid, gseq := range got {
		found := false
		for wid, wseq := range want {
			if len(gseq) != len(wseq) {
				continue
			}
			same := true
			for i := range wseq {
				if wseq[i] != gseq[i] {
					same = false
					break
				}
			}
			if same {
				matches[wid]++
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("captured stream %d matches no source sequence", gid)
		}
	}
	for wid, n := range matches {
		if n != tenants {
			t.Fatalf("source stream %d replayed %d times, want %d", wid, n, tenants)
		}
	}
}

// TestReplaySurfacesDialExhaustionTyped: a dial failing with resource
// exhaustion fails the run immediately with the typed error — no
// hang, no silent retry.
func TestReplaySurfacesDialExhaustionTyped(t *testing.T) {
	tg, _ := newTarget(t)
	src := traceFor(tg, 0)
	exhausted := func(uint32) (Transport, error) {
		return nil, fmt.Errorf("rpcnet: %w: dial tcp: %v",
			rpcnet.ErrConnExhausted, syscall.EADDRNOTAVAIL)
	}
	done := make(chan error, 1)
	go func() {
		_, err := Run(src, Options{
			Network: "tcp", Addr: tg.addr,
			Amplify: 4, Dial: exhausted,
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, rpcnet.ErrConnExhausted) {
			t.Fatalf("err = %v, want ErrConnExhausted", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("replay hung on exhausted dial")
	}
}

// dedicatedDial is a replay Dial that opens a fresh connection per
// stream; the test closes them all at cleanup.
func dedicatedDial(t *testing.T, addr string) func(uint32) (Transport, error) {
	var mu sync.Mutex
	var conns []*rpcnet.Client
	t.Cleanup(func() {
		for _, c := range conns {
			c.Close()
		}
	})
	return func(uint32) (Transport, error) {
		c, err := rpcnet.Dial("tcp", addr, nfsproto.Program, nfsproto.Version3)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		conns = append(conns, c)
		mu.Unlock()
		return conn{c}, nil
	}
}
