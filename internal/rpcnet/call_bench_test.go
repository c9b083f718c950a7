package rpcnet

import (
	"testing"

	"nfstricks/internal/sunrpc"
)

// benchmarkCall measures a closed-loop round trip of a null procedure
// (empty arguments, empty result) over loopback: client marshal and
// send, server read, dispatch and reply, client demultiplex. Client and
// server share the process, so B/op and allocs/op count both sides.
func benchmarkCall(b *testing.B, network string) {
	s, err := NewServerInfo("127.0.0.1:0", 1, 1, func(_ CallInfo, _ uint32, _ []byte, reply []byte) ([]byte, uint32) {
		return reply, sunrpc.AcceptSuccess
	}, ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(network, s.Addr(), 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(0, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCallTCP(b *testing.B) { benchmarkCall(b, "tcp") }

func BenchmarkCallUDP(b *testing.B) { benchmarkCall(b, "udp") }
