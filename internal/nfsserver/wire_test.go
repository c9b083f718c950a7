package nfsserver

import (
	"testing"

	"nfstricks/internal/nfsproto"
	"nfstricks/internal/sunrpc"
)

func TestHeaderSizesMatchRealEncoding(t *testing.T) {
	args := &nfsproto.ReadArgs{FH: 42, Offset: 8192, Count: 8192}
	call := &sunrpc.Call{
		XID: 1, Prog: nfsproto.Program, Vers: nfsproto.Version3,
		Proc: nfsproto.ProcRead,
		Cred: sunrpc.AuthUnixCred("client01", 1001, 1001),
		Verf: sunrpc.AuthNoneCred(),
		Body: args.Marshal(),
	}
	if got, want := CallSize(args), len(sunrpc.MarshalCall(call)); got != want {
		t.Fatalf("CallSize = %d, real encoding = %d", got, want)
	}

	res := &nfsproto.ReadRes{Status: nfsproto.OK, Count: 8192, DataLen: 8192}
	reply := &sunrpc.Reply{XID: 1, Stat: sunrpc.AcceptSuccess,
		Verf: sunrpc.AuthNoneCred(), Body: res.Marshal()}
	if got, want := ReplySize(res), len(sunrpc.MarshalReply(reply)); got != want {
		t.Fatalf("ReplySize = %d, real encoding = %d", got, want)
	}
}

func TestCallSizeTracksPayload(t *testing.T) {
	small := CallSize(&nfsproto.ReadArgs{})
	big := CallSize(&nfsproto.WriteArgs{DataLen: 8192})
	if big-small < 8192 {
		t.Fatalf("payload not reflected: %d vs %d", small, big)
	}
}
