package nfsserver

import "nfstricks/internal/sunrpc"

// Message is any NFS argument or result the simulated wire carries,
// exposing its exact XDR size.
type Message interface {
	Marshal() []byte
	WireSize() int
}

// Call is a simulated RPC call to the server: an NFS procedure plus
// its arguments.
type Call struct {
	XID  uint32
	Proc uint32
	Args Message
}

// Reply is a simulated RPC reply from the server.
type Reply struct {
	XID uint32
	Res Message
}

// callHeaderBytes/replyHeaderBytes are the constant ONC RPC envelope
// sizes for the credentials the simulated client uses (AUTH_UNIX calls,
// AUTH_NONE verifiers), computed from the real encoder, so the
// simulated network's byte accounting matches the real encoding.
var callHeaderBytes = len(sunrpc.MarshalCall(&sunrpc.Call{
	Cred: sunrpc.AuthUnixCred("client01", 1001, 1001),
	Verf: sunrpc.AuthNoneCred(),
}))

var replyHeaderBytes = len(sunrpc.MarshalReply(&sunrpc.Reply{
	Verf: sunrpc.AuthNoneCred(),
}))

// CallSize returns the full wire size of a call carrying args.
func CallSize(args Message) int { return callHeaderBytes + args.WireSize() }

// ReplySize returns the full wire size of a reply carrying res.
func ReplySize(res Message) int { return replyHeaderBytes + res.WireSize() }
