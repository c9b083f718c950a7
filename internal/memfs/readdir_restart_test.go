package memfs

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/vfs"
)

// badCookieFS rejects every resumed READDIR page with ErrBadCookie —
// the view of a directory mutating under each and every scan attempt.
type badCookieFS struct {
	*FS
	resumes atomic.Int64
}

func (b *badCookieFS) Readdir(dir nfsproto.FH, cookie, cookieverf uint64, maxEntries int) (vfs.ReaddirPage, error) {
	if cookie != 0 {
		b.resumes.Add(1)
		return vfs.ReaddirPage{}, vfs.ErrBadCookie
	}
	return b.FS.Readdir(dir, cookie, cookieverf, maxEntries)
}

// TestReaddirAllRestartCap: a scan that hits NFS3ERR_BAD_COOKIE on
// every resume must give up after its restart budget with the typed
// ErrReaddirRestarts — not livelock, and not surface as a generic
// transport error. The cause chain keeps the underlying bad-cookie
// failure visible.
func TestReaddirAllRestartCap(t *testing.T) {
	fs := NewFS()
	// Enough entries that a small page budget cannot finish in one page.
	for i := 0; i < 50; i++ {
		fs.Create(RootFH, fmt.Sprintf("f%02d", i), nil)
	}
	backend := &badCookieFS{FS: fs}
	svc := nfsd.New(backend, nfsd.Config{})
	defer svc.Close()
	srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialClient("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A budget of ~4 entries per page forces a resume, which always
	// draws BAD_COOKIE here.
	_, err = c.ReaddirAll(RootFH, 4*64)
	if !errors.Is(err, ErrReaddirRestarts) {
		t.Fatalf("err = %v, want ErrReaddirRestarts", err)
	}
	if !errors.Is(err, vfs.ErrBadCookie) {
		t.Fatalf("err = %v, should keep the bad-cookie cause in the chain", err)
	}
	// One rejected resume per attempt: the original plus the budgeted
	// restarts, then stop.
	if got := backend.resumes.Load(); got != readdirAllRestarts+1 {
		t.Fatalf("backend saw %d rejected resumes, want %d (restart cap + original)", got, readdirAllRestarts+1)
	}
}

// TestReaddirAllRecoversWithinBudget: transient mid-scan mutation (a
// bounded number of bad-cookie resumes) still completes the scan.
type flakyCookieFS struct {
	*FS
	failures atomic.Int64
	budget   int64
}

func (b *flakyCookieFS) Readdir(dir nfsproto.FH, cookie, cookieverf uint64, maxEntries int) (vfs.ReaddirPage, error) {
	if cookie != 0 && b.failures.Add(1) <= b.budget {
		return vfs.ReaddirPage{}, vfs.ErrBadCookie
	}
	return b.FS.Readdir(dir, cookie, cookieverf, maxEntries)
}

func TestReaddirAllRecoversWithinBudget(t *testing.T) {
	fs := NewFS()
	for i := 0; i < 50; i++ {
		fs.Create(RootFH, fmt.Sprintf("f%02d", i), nil)
	}
	backend := &flakyCookieFS{FS: fs, budget: 3}
	svc := nfsd.New(backend, nfsd.Config{})
	defer svc.Close()
	srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialClient("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	entries, err := c.ReaddirAll(RootFH, 4*64)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 50 {
		t.Fatalf("scan returned %d entries, want 50", len(entries))
	}
}
