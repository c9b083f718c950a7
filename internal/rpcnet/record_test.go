package rpcnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"nfstricks/internal/sunrpc"
)

// rawCall marshals a call to echoHandler's program as one record of a
// single final fragment, exactly as a client puts it on the wire.
func rawCall(xid, proc uint32, body []byte) []byte {
	call := sunrpc.Call{
		XID: xid, Prog: 100003, Vers: 3, Proc: proc,
		Cred: sunrpc.AuthNoneCred(), Verf: sunrpc.AuthNoneCred(),
		Body: body,
	}
	rec := call.AppendTo(sunrpc.BeginRecord(nil))
	sunrpc.FinishRecord(rec, 0)
	return rec
}

// dialRaw opens a bare TCP connection to s, bypassing Client, so a test
// controls exactly how call bytes are split across writes.
func dialRaw(t *testing.T, s *Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// expectReplies reads one reply record per entry of want off conn, in
// any order, and checks each against echoHandler's answer (the proc
// byte, then the body) for the call with that XID.
func expectReplies(t *testing.T, conn net.Conn, proc byte, want map[uint32][]byte) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	pending := make(map[uint32][]byte, len(want))
	for xid, body := range want {
		pending[xid] = body
	}
	for len(pending) > 0 {
		rec, err := sunrpc.ReadRecord(conn)
		if err != nil {
			t.Fatalf("reading reply (%d outstanding): %v", len(pending), err)
		}
		r, err := sunrpc.UnmarshalReply(rec)
		if err != nil {
			t.Fatal(err)
		}
		body, ok := pending[r.XID]
		if !ok {
			t.Fatalf("reply for unexpected or repeated XID %d", r.XID)
		}
		delete(pending, r.XID)
		if r.Stat != sunrpc.AcceptSuccess {
			t.Fatalf("XID %d: accept status %d", r.XID, r.Stat)
		}
		if len(r.Body) != 1+len(body) || r.Body[0] != proc || !bytes.Equal(r.Body[1:], body) {
			t.Fatalf("XID %d: reply body of %d bytes does not echo the %d-byte call", r.XID, len(r.Body), len(body))
		}
	}
}

// TestRecordCallsInOneWrite: three records arriving in one segment are
// framed as three calls, each answered under its own XID.
func TestRecordCallsInOneWrite(t *testing.T) {
	conn := dialRaw(t, startServer(t))
	want := map[uint32][]byte{1: []byte("first"), 2: nil, 3: bytes.Repeat([]byte("third"), 2000)}
	var wire []byte
	for xid := uint32(1); xid <= 3; xid++ {
		wire = append(wire, rawCall(xid, 5, want[xid])...)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	expectReplies(t, conn, 5, want)
}

// TestRecordOneBytePerWrite: a call trickling in one byte per segment,
// mark included, is reassembled into one record.
func TestRecordOneBytePerWrite(t *testing.T) {
	conn := dialRaw(t, startServer(t))
	body := []byte("trickled call body")
	for _, b := range rawCall(9, 6, body) {
		if _, err := conn.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	expectReplies(t, conn, 6, map[uint32][]byte{9: body})
}

// TestRecordMultiFragmentCall: a call split over three fragments, only
// the last carrying the last-fragment bit, is one call.
func TestRecordMultiFragmentCall(t *testing.T) {
	conn := dialRaw(t, startServer(t))
	body := bytes.Repeat([]byte{0xa5, 0x5a, 0x17}, 5000)
	msg := rawCall(11, 4, body)[sunrpc.MarkSize:]
	var wire []byte
	frags := [][]byte{msg[:10], msg[10 : len(msg)/2], msg[len(msg)/2:]}
	for i, frag := range frags {
		start := len(wire)
		wire = append(sunrpc.BeginRecord(wire), frag...)
		sunrpc.FinishRecord(wire, start)
		if i < len(frags)-1 {
			wire[start] &^= 0x80 // clear the last-fragment bit
		}
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	expectReplies(t, conn, 4, map[uint32][]byte{11: body})
}

// TestRecordFragmentCap: a call whose fragment is exactly sunrpc's 1 MB
// cap is served; one a byte over it gets no reply and loses its
// connection, and the server keeps serving other connections.
func TestRecordFragmentCap(t *testing.T) {
	const maxFragment = 1 << 20
	s := startServer(t)
	header := len(rawCall(0, 0, nil)) - sunrpc.MarkSize

	ok := dialRaw(t, s)
	body := bytes.Repeat([]byte{0x3c}, maxFragment-header)
	if _, err := ok.Write(rawCall(21, 2, body)); err != nil {
		t.Fatal(err)
	}
	expectReplies(t, ok, 2, map[uint32][]byte{21: body})

	over := dialRaw(t, s)
	// The server may reset the connection before the whole record is
	// written, so the write's error is not the test's concern; the read
	// below is.
	go over.Write(rawCall(22, 2, append(body, 0)))
	over.SetReadDeadline(time.Now().Add(10 * time.Second))
	rec, err := sunrpc.ReadRecord(over)
	if err == nil {
		t.Fatalf("over-cap call answered with a %d-byte record", len(rec))
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("over-cap call: connection left open, read timed out: %v", err)
	}

	if _, err := ok.Write(rawCall(23, 3, []byte("after"))); err != nil {
		t.Fatal(err)
	}
	expectReplies(t, ok, 3, map[uint32][]byte{23: []byte("after")})
}

// TestRecordPipelinedRepliesOneClient: many replies of mixed sizes
// arriving back to back at one Client are each framed whole and routed
// to their own call, including records that straddle the client's read
// buffer.
func TestRecordPipelinedRepliesOneClient(t *testing.T) {
	s := startServer(t)
	c, err := Dial("tcp", s.Addr(), 100003, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const calls = 200
	bodies := make([][]byte, calls)
	pend := make([]*Pending, calls)
	for i := range pend {
		bodies[i] = bytes.Repeat([]byte(fmt.Sprintf("%03d", i)), i*397%13000)
		pend[i] = c.Go(8, bodies[i])
	}
	for i, p := range pend {
		got, err := p.Wait(10 * time.Second)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if len(got) != 1+len(bodies[i]) || got[0] != 8 || !bytes.Equal(got[1:], bodies[i]) {
			t.Fatalf("call %d: reply of %d bytes does not echo its %d-byte call", i, len(got), len(bodies[i]))
		}
	}
}

// segmentReader hands out queued segments, at most one per Read, the
// way a socket returns what has arrived so far; it counts the Reads.
type segmentReader struct {
	segs  [][]byte
	reads int
}

func (r *segmentReader) Read(p []byte) (int, error) {
	if len(r.segs) == 0 {
		return 0, io.EOF
	}
	r.reads++
	n := copy(p, r.segs[0])
	if r.segs[0] = r.segs[0][n:]; len(r.segs[0]) == 0 {
		r.segs = r.segs[1:]
	}
	return n, nil
}

// TestRecordReaderOneReadPerRecord: with records already queued, the
// buffered record reader costs one underlying Read per record where the
// bare stream costs two (mark, then body), and records queued in one
// segment (all of them fit the read buffer) share a single Read.
func TestRecordReaderOneReadPerRecord(t *testing.T) {
	const records = 50
	var recs [][]byte
	for i := 0; i < records; i++ {
		recs = append(recs, rawCall(uint32(i), 1, bytes.Repeat([]byte{byte(i)}, 100+i*37)))
	}
	readAll := func(r io.Reader) {
		t.Helper()
		var buf []byte
		for i, want := range recs {
			got, err := sunrpc.ReadRecordInto(r, buf)
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if !bytes.Equal(got, want[sunrpc.MarkSize:]) {
				t.Fatalf("record %d misframed", i)
			}
			buf = got
		}
	}
	apart := func() *segmentReader {
		return &segmentReader{segs: append([][]byte(nil), recs...)}
	}

	bare := apart()
	readAll(bare)
	buffered := apart()
	readAll(newRecordReader(buffered))
	together := &segmentReader{segs: [][]byte{bytes.Join(recs, nil)}}
	readAll(newRecordReader(together))

	if bare.reads != 2*records {
		t.Errorf("bare stream: %d reads for %d records, want %d", bare.reads, records, 2*records)
	}
	if buffered.reads != records {
		t.Errorf("buffered, one segment per record: %d reads for %d records, want %d", buffered.reads, records, records)
	}
	if together.reads != 1 {
		t.Errorf("buffered, all records in one segment: %d reads, want 1", together.reads)
	}
}
