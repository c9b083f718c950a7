package rpcnet

import (
	"errors"
	"testing"
	"time"
)

// TestFaultDeterminism: two injectors with the same seed and config
// make identical decisions for an identical message sequence.
func TestFaultDeterminism(t *testing.T) {
	cfg := FaultConfig{
		Seed: 99, DropProb: 0.2, DupProb: 0.1, DelayProb: 0.15,
		TruncateProb: 0.1, DelayMin: time.Millisecond,
	}
	a, b := NewFaultInjector(cfg), NewFaultInjector(cfg)
	for i := 0; i < 2000; i++ {
		dir, size := i%2, 100+i%500
		actA, actB := a.datagram(dir, size), b.datagram(dir, size)
		if actA != actB {
			t.Fatalf("message %d: decisions diverge: %+v vs %+v", i, actA, actB)
		}
	}
	for dir := DirIn; dir <= DirOut; dir++ {
		sa, sb := a.Stats(dir), b.Stats(dir)
		if sa != sb {
			t.Fatalf("dir %d: counters diverge: %v vs %v", dir, sa, sb)
		}
		if sa.Messages != 1000 {
			t.Fatalf("dir %d: %d messages, want 1000", dir, sa.Messages)
		}
		if sa.Total() == 0 {
			t.Fatalf("dir %d: no faults injected at these probabilities", dir)
		}
	}
	// A different seed must produce a different decision stream.
	cfg.Seed = 100
	d := NewFaultInjector(cfg)
	e := NewFaultInjector(FaultConfig{Seed: 99, DropProb: 0.2, DupProb: 0.1, DelayProb: 0.15, TruncateProb: 0.1, DelayMin: time.Millisecond})
	diverged := false
	for i := 0; i < 2000; i++ {
		if d.datagram(DirIn, 256) != e.datagram(DirIn, 256) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("seeds 99 and 100 produced identical decision streams")
	}
}

// TestFaultDropOverridesOthers: a dropped message reports only the
// drop; the other decisions are cleared (but their draws were consumed,
// which determinism above depends on).
func TestFaultDropOverridesOthers(t *testing.T) {
	f := NewFaultInjector(FaultConfig{
		Seed: 5, DropProb: 1, DupProb: 1, DelayProb: 1, TruncateProb: 1,
	})
	for i := 0; i < 100; i++ {
		act := f.datagram(DirOut, 512)
		if !act.drop || act.dup || act.delay != 0 || act.truncate != -1 {
			t.Fatalf("drop=1 action %+v, want pure drop", act)
		}
	}
	s := f.Stats(DirOut)
	if s.Drops != 100 || s.Dups != 0 || s.Delays != 0 || s.Truncates != 0 {
		t.Fatalf("counters %v, want 100 pure drops", s)
	}
}

// TestFaultRecordResetOverridesStall mirrors the datagram rule for TCP.
func TestFaultRecordResetOverridesStall(t *testing.T) {
	f := NewFaultInjector(FaultConfig{Seed: 5, ResetProb: 1, StallProb: 1})
	act := f.record(DirIn)
	if !act.reset || act.stall != 0 {
		t.Fatalf("reset=1 action %+v, want pure reset", act)
	}
	if s := f.Stats(DirIn); s.Resets != 1 || s.Stalls != 0 {
		t.Fatalf("counters %v, want one pure reset", s)
	}
}

// TestNilFaultInjector: every hook treats nil as a perfect network.
func TestNilFaultInjector(t *testing.T) {
	var f *FaultInjector
	if act := f.datagram(DirIn, 100); act.drop || act.dup || act.delay != 0 || act.truncate != -1 {
		t.Fatalf("nil datagram action %+v", act)
	}
	if act := f.record(DirOut); act.reset || act.stall != 0 {
		t.Fatalf("nil record action %+v", act)
	}
	if s := f.Stats(DirIn); s != (FaultStats{}) {
		t.Fatalf("nil stats %v", s)
	}
}

// TestParseFaultSpec: the CLI syntax round-trips into FaultConfig.
func TestParseFaultSpec(t *testing.T) {
	cfg, err := ParseFaultSpec("drop=0.05,dup=0.01,delay=0.02:1ms-5ms,trunc=0.01,stall=0.05:20ms,reset=0.001")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultConfig{
		DropProb: 0.05, DupProb: 0.01,
		DelayProb: 0.02, DelayMin: time.Millisecond, DelayMax: 5 * time.Millisecond,
		TruncateProb: 0.01,
		StallProb:    0.05, Stall: 20 * time.Millisecond,
		ResetProb: 0.001,
	}
	if cfg != want {
		t.Fatalf("parsed %+v, want %+v", cfg, want)
	}
	if cfg, err := ParseFaultSpec("  "); err != nil || cfg.enabled() {
		t.Fatalf("empty spec: %+v, %v", cfg, err)
	}
	for _, bad := range []string{
		"drop",          // no probability
		"drop=2",        // out of range
		"drop=x",        // not a number
		"flood=0.1",     // unknown fault
		"drop=0.1:20ms", // suffix on a fault that takes none
		"delay=0.1:zzz", // bad duration
		"stall=0.1:zzz", // bad duration
	} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestFaultyUDPServerAllDrops: a server that drops every inbound
// datagram never answers; a plain client times out with
// ErrReplyTimeout, and a Retrier gives up with a major timeout that
// still matches ErrReplyTimeout.
func TestFaultyUDPServerAllDrops(t *testing.T) {
	inj := NewFaultInjector(FaultConfig{Seed: 3, DropProb: 1})
	s, err := NewServerInfo("127.0.0.1:0", 100003, 3,
		func(_ CallInfo, proc uint32, body, reply []byte) ([]byte, uint32) {
			t.Error("handler ran despite 100% inbound drop")
			return reply, 0
		}, ServerOptions{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial("udp", s.Addr(), 100003, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(150 * time.Millisecond)
	if _, err := c.Call(1, []byte("x")); !errors.Is(err, ErrReplyTimeout) {
		t.Fatalf("plain call = %v, want ErrReplyTimeout", err)
	}
	c.SetTimeout(0)
	r := c.NewRetrier(RetryPolicy{MaxTransmits: 3, InitialRTO: 50 * time.Millisecond, MinRTO: 20 * time.Millisecond, Seed: 7})
	_, err = r.Call(1, []byte("y"))
	if !errors.Is(err, ErrMajorTimeout) || !errors.Is(err, ErrReplyTimeout) {
		t.Fatalf("retried call = %v, want ErrMajorTimeout wrapping ErrReplyTimeout", err)
	}
	st := r.Stats()
	if st.MajorTimeouts != 1 || st.Retransmits != 2 {
		t.Fatalf("retry stats %v, want 1 major, 2 retransmits", st)
	}
	if drops := inj.Stats(DirIn).Drops; drops != 4 {
		t.Fatalf("server dropped %d datagrams, want 4 (1 plain + 3 retried)", drops)
	}
}

// TestFaultDuplicateDeliveryIsHarmless: with every inbound datagram
// duplicated at the server, the handler runs twice per call but the
// client's XID demultiplexer discards the second reply — calls still
// return the right answer. (This is exactly the duplicate the DRC
// exists to suppress for non-idempotent work; at the rpcnet layer it
// must simply not wedge anything.)
func TestFaultDuplicateDeliveryIsHarmless(t *testing.T) {
	inj := NewFaultInjector(FaultConfig{Seed: 13, DupProb: 1})
	s, err := NewServerInfo("127.0.0.1:0", 100003, 3,
		func(_ CallInfo, proc uint32, body, reply []byte) ([]byte, uint32) {
			reply = append(reply, byte(proc))
			return append(reply, body...), 0
		}, ServerOptions{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial("udp", s.Addr(), 100003, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 20; i++ {
		body, err := c.Call(3, []byte{byte(i)})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if len(body) != 2 || body[0] != 3 || body[1] != byte(i) {
			t.Fatalf("call %d: reply %v", i, body)
		}
	}
	if dups := inj.Stats(DirIn).Dups; dups != 20 {
		t.Fatalf("%d inbound dups, want 20", dups)
	}
}

// TestFaultTCPStallDelaysButDelivers: a stalled TCP record arrives
// late, not never — the call completes, slower than the stall.
func TestFaultTCPStallDelaysButDelivers(t *testing.T) {
	const stall = 80 * time.Millisecond
	inj := NewFaultInjector(FaultConfig{Seed: 17, StallProb: 1, Stall: stall})
	s, err := NewServerInfo("127.0.0.1:0", 100003, 3,
		func(_ CallInfo, proc uint32, body, reply []byte) ([]byte, uint32) {
			return append(reply, body...), 0
		}, ServerOptions{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial("tcp", s.Addr(), 100003, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := c.Call(1, []byte("slow")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < stall {
		t.Fatalf("stalled call returned in %v, want >= %v", d, stall)
	}
	if st := inj.Stats(DirIn); st.Stalls == 0 {
		t.Fatalf("inbound stats %v, want stalls", st)
	}
}

// TestFaultTCPReset: a reset-injecting server kills the connection; the
// client's call fails rather than hanging.
func TestFaultTCPReset(t *testing.T) {
	inj := NewFaultInjector(FaultConfig{Seed: 19, ResetProb: 1})
	s, err := NewServerInfo("127.0.0.1:0", 100003, 3,
		func(_ CallInfo, proc uint32, body, reply []byte) ([]byte, uint32) {
			return append(reply, body...), 0
		}, ServerOptions{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial("tcp", s.Addr(), 100003, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(2 * time.Second)
	if _, err := c.Call(1, []byte("doomed")); err == nil {
		t.Fatal("call over reset connection succeeded")
	}
}
