package memfs

import (
	"errors"
	"fmt"
	"strconv"
	"testing"

	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/vfs"
)

// wireSentinels is every vfs sentinel a backend may report.
var wireSentinels = []error{
	vfs.ErrNoEnt, vfs.ErrExist, vfs.ErrNotDir, vfs.ErrIsDir,
	vfs.ErrNotEmpty, vfs.ErrBadCookie, vfs.ErrInval, vfs.ErrTooBig,
	vfs.ErrNoSpace, vfs.ErrStale,
}

// failingLookupFS fails LOOKUP of name "i" with wireSentinels[i].
type failingLookupFS struct{ *FS }

func (f failingLookupFS) Lookup(dir nfsproto.FH, name string) (nfsproto.FH, vfs.Attr, error) {
	i, err := strconv.Atoi(name)
	if err != nil {
		return f.FS.Lookup(dir, name)
	}
	return 0, vfs.Attr{}, wireSentinels[i]
}

// TestStatusRoundTrip sends every vfs sentinel through nfsd and the
// live client: the error the client returns must match the sentinel
// the backend reported, and no other.
func TestStatusRoundTrip(t *testing.T) {
	svc := nfsd.New(failingLookupFS{NewFS()}, nfsd.Config{})
	srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := DialClient("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, want := range wireSentinels {
		t.Run(want.Error(), func(t *testing.T) {
			_, _, err := c.Lookup(RootFH, fmt.Sprint(i))
			for _, other := range wireSentinels {
				if got := errors.Is(err, other); got != (other == want) {
					t.Fatalf("errors.Is(%v, %v) = %v", err, other, got)
				}
			}
		})
	}
}

// TestStatusFromRealOps: namespace errors the backend raises itself
// reach the client as their sentinels.
func TestStatusFromRealOps(t *testing.T) {
	_, addr := startLive(t)
	c, err := DialClient("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dir, err := c.Mkdir(RootFH, "d")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Rename(RootFH, "d", dir, "inside"); !errors.Is(err, vfs.ErrInval) {
		t.Fatalf("rename into own subtree: %v, want ErrInval", err)
	}
	fh, _, err := c.Lookup(RootFH, "hello")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Setattr(fh, vfs.MaxFileSize+1); !errors.Is(err, vfs.ErrTooBig) {
		t.Fatalf("setattr past MaxFileSize: %v, want ErrTooBig", err)
	}
}
