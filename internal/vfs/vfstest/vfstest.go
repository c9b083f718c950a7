// Package vfstest is the shared conformance suite for vfs.Backend
// implementations. Every backend mounted behind the live dispatch
// layer must pass it: the data-plane contracts (copy-on-write read
// views, extend-with-zero-fill writes, access grants, space
// accounting, commit semantics), the namespace contracts (hierarchy,
// readdir cookie/cookieverf paging under concurrent mutation, rename
// and remove semantics, setattr), and the control-plane contracts
// (stability routing through the write-gathering engine,
// write-verifier semantics, file- and directory-handle stability
// across a simulated reboot) — the last group exercised through an
// nfsd.Service wrapped around the backend, the exact stack a live
// client talks to.
package vfstest

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/sunrpc"
	"nfstricks/internal/vfs"
	"nfstricks/internal/wgather"
)

// Factory builds a fresh, empty backend for one subtest.
type Factory func(t *testing.T) vfs.Backend

// Run drives the whole conformance suite against backends built by
// mk.
func Run(t *testing.T, mk Factory) {
	t.Run("CreateLookupGetattr", func(t *testing.T) { testCreateLookupGetattr(t, mk(t)) })
	t.Run("ReadViewCOW", func(t *testing.T) { testReadViewCOW(t, mk(t)) })
	t.Run("WriteExtendZeroFill", func(t *testing.T) { testWriteExtendZeroFill(t, mk(t)) })
	t.Run("Access", func(t *testing.T) { testAccess(t, mk(t)) })
	t.Run("Fsstat", func(t *testing.T) { testFsstat(t, mk(t)) })
	t.Run("Commit", func(t *testing.T) { testCommit(t, mk(t)) })
	t.Run("Hierarchy", func(t *testing.T) { testHierarchy(t, mk(t)) })
	t.Run("ReaddirPaging", func(t *testing.T) { testReaddirPaging(t, mk(t)) })
	t.Run("ReaddirCookieStability", func(t *testing.T) { testReaddirCookieStability(t, mk(t)) })
	t.Run("ReaddirBadCookie", func(t *testing.T) { testReaddirBadCookie(t, mk(t)) })
	t.Run("RemoveSemantics", func(t *testing.T) { testRemoveSemantics(t, mk(t)) })
	t.Run("RenameSemantics", func(t *testing.T) { testRenameSemantics(t, mk(t)) })
	t.Run("Setattr", func(t *testing.T) { testSetattr(t, mk(t)) })
	t.Run("StabilityRouting", func(t *testing.T) { testStabilityRouting(t, mk(t)) })
	t.Run("VerifierAndRebootFHStability", func(t *testing.T) { testVerifierReboot(t, mk(t)) })
	t.Run("DirFHStabilityAcrossReboot", func(t *testing.T) { testDirReboot(t, mk(t)) })
}

// create is Create under the root with a fatal on error.
func create(t *testing.T, b vfs.Backend, dir nfsproto.FH, name string, data []byte) nfsproto.FH {
	t.Helper()
	fh, err := b.Create(dir, name, data)
	if err != nil {
		t.Fatalf("Create %q: %v", name, err)
	}
	return fh
}

func mkdir(t *testing.T, b vfs.Backend, dir nfsproto.FH, name string) nfsproto.FH {
	t.Helper()
	fh, err := b.Mkdir(dir, name)
	if err != nil {
		t.Fatalf("Mkdir %q: %v", name, err)
	}
	return fh
}

func testCreateLookupGetattr(t *testing.T, b vfs.Backend) {
	data := []byte("the quick brown fox")
	fh := create(t, b, vfs.RootFH, "f", data)
	if fh == 0 {
		t.Fatal("Create returned 0 on an empty backend")
	}
	if fh == vfs.RootFH {
		t.Fatalf("Create returned the root handle %d", fh)
	}
	got, attr, err := b.Lookup(vfs.RootFH, "f")
	if err != nil || got != fh || attr.Size != int64(len(data)) || attr.Dir {
		t.Fatalf("Lookup = (%d, %+v, %v), want (%d, size %d, nil)", got, attr, err, fh, len(data))
	}
	if _, _, err := b.Lookup(vfs.RootFH, "missing"); !errors.Is(err, vfs.ErrNoEnt) {
		t.Fatalf("Lookup of a missing name: %v, want ErrNoEnt", err)
	}
	if _, _, err := b.Lookup(fh, "x"); !errors.Is(err, vfs.ErrNotDir) {
		t.Fatalf("Lookup under a file handle: %v, want ErrNotDir", err)
	}
	if a, ok := b.Getattr(fh); !ok || a.Size != int64(len(data)) || a.Dir {
		t.Fatalf("Getattr = (%+v, %v)", a, ok)
	}
	if a, ok := b.Getattr(vfs.RootFH); !ok || !a.Dir {
		t.Fatalf("Getattr(root) = (%+v, %v), want a directory", a, ok)
	}
	if _, ok := b.Getattr(fh + 999); ok {
		t.Fatal("Getattr of a stale handle succeeded")
	}

	view, rsize, eof, err := b.ReadAt(fh, 4, 5, 0)
	if err != nil || string(view) != "quick" || eof || rsize != uint64(len(data)) {
		t.Fatalf("ReadAt = (%q, %d, %v, %v)", view, rsize, eof, err)
	}
	if _, _, eof, err := b.ReadAt(fh, uint64(len(data))+10, 8, 0); err != nil || !eof {
		t.Fatalf("read past EOF: eof=%v err=%v", eof, err)
	}
	if _, _, _, err := b.ReadAt(fh+999, 0, 1, 0); err == nil {
		t.Fatal("ReadAt of a stale handle succeeded")
	}
	if _, _, _, err := b.ReadAt(vfs.RootFH, 0, 1, 0); !errors.Is(err, vfs.ErrIsDir) {
		t.Fatalf("ReadAt of a directory: %v, want ErrIsDir", err)
	}
}

// testReadViewCOW pins the copy-on-write contract the zero-copy reply
// pipeline depends on: a view returned by ReadAt must never observe a
// later WriteAt.
func testReadViewCOW(t *testing.T, b vfs.Backend) {
	const size = 4 * 8192
	fh := create(t, b, vfs.RootFH, "f", bytes.Repeat([]byte{0xAA}, size))
	view, _, _, err := b.ReadAt(fh, 0, size, 0)
	if err != nil || len(view) != size {
		t.Fatalf("ReadAt: len=%d err=%v", len(view), err)
	}
	// Overwrite inside the view, straddle its end, and append past it.
	for _, off := range []uint64{0, size - 512, size + 8192} {
		if err := b.WriteAt(fh, off, bytes.Repeat([]byte{0xBB}, 1024)); err != nil {
			t.Fatalf("WriteAt(%d): %v", off, err)
		}
	}
	for i, c := range view {
		if c != 0xAA {
			t.Fatalf("view[%d] = %#x after overlapping writes, want 0xAA", i, c)
		}
	}
	// A fresh read must see the new bytes.
	got, _, _, err := b.ReadAt(fh, 0, 8, 0)
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0xBB}, 8)) {
		t.Fatalf("re-read = %x err=%v, want BB..", got, err)
	}
}

func testWriteExtendZeroFill(t *testing.T, b vfs.Backend) {
	fh := create(t, b, vfs.RootFH, "f", []byte("abc"))
	if err := b.WriteAt(fh, 5, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	got, size, eof, err := b.ReadAt(fh, 0, 64, 0)
	want := []byte{'a', 'b', 'c', 0, 0, 'x', 'y', 'z'}
	if err != nil || !bytes.Equal(got, want) || !eof || size != 8 {
		t.Fatalf("after gap write: %v size=%d eof=%v err=%v", got, size, eof, err)
	}
	if err := b.WriteAt(fh+999, 0, []byte("x")); err == nil {
		t.Fatal("WriteAt on a stale handle succeeded")
	}
}

func testAccess(t *testing.T, b vfs.Backend) {
	fh := create(t, b, vfs.RootFH, "f", []byte("data"))
	mask := uint32(nfsproto.AccessRead | nfsproto.AccessModify |
		nfsproto.AccessExtend | nfsproto.AccessDelete | nfsproto.AccessExecute)
	granted, ok := b.Access(fh, mask)
	if !ok {
		t.Fatal("Access on a live handle not ok")
	}
	if granted&nfsproto.AccessRead == 0 || granted&nfsproto.AccessModify == 0 {
		t.Fatalf("granted = %#x, want at least read|modify", granted)
	}
	if granted&^mask != 0 {
		t.Fatalf("granted %#x outside the requested mask %#x", granted, mask)
	}
	dgranted, ok := b.Access(vfs.RootFH, mask)
	if !ok || dgranted&nfsproto.AccessLookup != 0 {
		// Lookup was not requested in the mask; nothing outside it.
		t.Fatalf("root Access = (%#x, %v)", dgranted, ok)
	}
	if _, ok := b.Access(fh+999, mask); ok {
		t.Fatal("Access on a stale handle ok")
	}
}

func testFsstat(t *testing.T, b vfs.Backend) {
	total0, free0 := b.Fsstat()
	if total0 == 0 || free0 > total0 {
		t.Fatalf("empty Fsstat = (%d, %d)", total0, free0)
	}
	create(t, b, vfs.RootFH, "f", make([]byte, 64*1024))
	total1, free1 := b.Fsstat()
	if total1 != total0 {
		t.Fatalf("total changed across Create: %d -> %d", total0, total1)
	}
	if free1 >= free0 {
		t.Fatalf("free did not shrink across a 64 KB create: %d -> %d", free0, free1)
	}
}

func testCommit(t *testing.T, b vfs.Backend) {
	fh := create(t, b, vfs.RootFH, "f", make([]byte, 3*8192))
	if err := b.WriteAt(fh, 100, []byte("durable?")); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(fh, 0, 0); err != nil {
		t.Fatalf("whole-file Commit: %v", err)
	}
	if err := b.Commit(fh, 8192, 8192); err != nil {
		t.Fatalf("range Commit: %v", err)
	}
	if err := b.Commit(fh+999, 0, 0); err == nil {
		t.Fatal("Commit on a stale handle succeeded")
	}
	// Committed data must still read back.
	got, _, _, err := b.ReadAt(fh, 100, 8, 0)
	if err != nil || string(got) != "durable?" {
		t.Fatalf("read after commit = %q err=%v", got, err)
	}
}

// testHierarchy builds a small tree and checks directory-first-class
// semantics: directories have their own handles and attributes,
// lookups are per-parent, Mkdir never replaces.
func testHierarchy(t *testing.T, b vfs.Backend) {
	d1 := mkdir(t, b, vfs.RootFH, "sub")
	d2 := mkdir(t, b, d1, "deeper")
	if d1 == 0 || d2 == 0 || d1 == d2 || d1 == vfs.RootFH {
		t.Fatalf("Mkdir handles: %d, %d", d1, d2)
	}
	f1 := create(t, b, d1, "f", []byte("in sub"))
	f2 := create(t, b, d2, "f", []byte("in deeper"))
	if f1 == f2 {
		t.Fatal("same name in different directories shares a handle")
	}
	// Per-parent resolution: the same name resolves differently.
	got1, _, err1 := b.Lookup(d1, "f")
	got2, _, err2 := b.Lookup(d2, "f")
	if err1 != nil || err2 != nil || got1 != f1 || got2 != f2 {
		t.Fatalf("per-dir Lookup = (%d,%v) (%d,%v)", got1, err1, got2, err2)
	}
	if _, _, err := b.Lookup(vfs.RootFH, "f"); !errors.Is(err, vfs.ErrNoEnt) {
		t.Fatalf("root Lookup of nested name: %v, want ErrNoEnt", err)
	}
	// Directory attributes: Dir set, handle stays a directory.
	if a, ok := b.Getattr(d1); !ok || !a.Dir {
		t.Fatalf("Getattr(dir) = (%+v, %v)", a, ok)
	}
	// Mkdir never replaces — an existing entry of either kind refuses.
	if _, err := b.Mkdir(d1, "f"); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("Mkdir over a file: %v, want ErrExist", err)
	}
	if _, err := b.Mkdir(vfs.RootFH, "sub"); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("Mkdir over a dir: %v, want ErrExist", err)
	}
	// Creating a file over a directory name refuses.
	if _, err := b.Create(vfs.RootFH, "sub", []byte("x")); !errors.Is(err, vfs.ErrIsDir) {
		t.Fatalf("Create over a dir: %v, want ErrIsDir", err)
	}
	// Mkdir under a file handle refuses.
	if _, err := b.Mkdir(f1, "x"); !errors.Is(err, vfs.ErrNotDir) {
		t.Fatalf("Mkdir under a file: %v, want ErrNotDir", err)
	}
}

// readdirAll pages through a directory with the given page size and
// returns every entry, failing the test on any error.
func readdirAll(t *testing.T, b vfs.Backend, dir nfsproto.FH, pageSize int) []vfs.DirEntry {
	t.Helper()
	var all []vfs.DirEntry
	var cookie, verf uint64
	for {
		page, err := b.Readdir(dir, cookie, verf, pageSize)
		if err != nil {
			t.Fatalf("Readdir(cookie=%d): %v", cookie, err)
		}
		all = append(all, page.Entries...)
		verf = page.Cookieverf
		if len(page.Entries) > 0 {
			cookie = page.Entries[len(page.Entries)-1].Cookie
		}
		if page.EOF {
			return all
		}
		if len(page.Entries) == 0 {
			t.Fatal("empty Readdir page without EOF")
		}
	}
}

// testReaddirPaging scans a 1000-entry directory in small pages and
// checks the scan is exact: every entry once, ascending cookies, EOF
// on the last page only. It scans again after removing two entries in
// three and renaming some survivors away and some back, which re-links
// a name under a newer cookie: the paged scan must then return exactly
// the survivors.
func testReaddirPaging(t *testing.T, b vfs.Backend) {
	const n = 1000
	dir := mkdir(t, b, vfs.RootFH, "big")
	want := make(map[string]nfsproto.FH, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("f%04d", i)
		want[name] = create(t, b, dir, name, nil)
	}
	checkScan(t, readdirAll(t, b, dir, 37), want) // deliberately odd page size
	// An unlimited scan agrees.
	if whole := readdirAll(t, b, dir, 0); len(whole) != n {
		t.Fatalf("unlimited scan returned %d entries", len(whole))
	}

	for i := 0; i < n; i++ {
		name := fmt.Sprintf("f%04d", i)
		switch {
		case i%3 != 0:
			if _, err := b.Remove(dir, name); err != nil {
				t.Fatalf("Remove %s: %v", name, err)
			}
			delete(want, name)
		case i%5 == 0:
			if _, err := b.Rename(dir, name, dir, "r"+name); err != nil {
				t.Fatalf("Rename %s: %v", name, err)
			}
			want["r"+name] = want[name]
			delete(want, name)
		}
	}
	// Rename some back: each name is linked again under a newer cookie
	// than its first slot.
	for i := 0; i < n; i += 45 {
		name := fmt.Sprintf("f%04d", i)
		if _, err := b.Rename(dir, "r"+name, dir, name); err != nil {
			t.Fatalf("Rename r%s: %v", name, err)
		}
		want[name] = want["r"+name]
		delete(want, "r"+name)
	}
	checkScan(t, readdirAll(t, b, dir, 37), want)
}

// checkScan requires a scan to return exactly want, once each, in
// ascending cookie order.
func checkScan(t *testing.T, all []vfs.DirEntry, want map[string]nfsproto.FH) {
	t.Helper()
	if len(all) != len(want) {
		t.Fatalf("paged scan returned %d entries, want %d", len(all), len(want))
	}
	seen := make(map[string]bool, len(all))
	var last uint64
	for i, e := range all {
		if e.Cookie <= last {
			t.Fatalf("entry %d cookie %d not ascending (prev %d)", i, e.Cookie, last)
		}
		last = e.Cookie
		fh, ok := want[e.Name]
		if !ok || seen[e.Name] {
			t.Fatalf("unexpected or duplicated entry %q", e.Name)
		}
		if e.FH != fh {
			t.Fatalf("entry %q handle %d, want %d", e.Name, e.FH, fh)
		}
		seen[e.Name] = true
	}
}

// testReaddirCookieStability pins the mid-scan mutation contract:
// entries created after a scan started do not disturb the pages
// already returned — the resumed scan picks up exactly the entries
// past its cookie, old and new.
func testReaddirCookieStability(t *testing.T, b vfs.Backend) {
	dir := mkdir(t, b, vfs.RootFH, "d")
	for i := 0; i < 10; i++ {
		create(t, b, dir, fmt.Sprintf("old%d", i), nil)
	}
	page1, err := b.Readdir(dir, 0, 0, 4)
	if err != nil || len(page1.Entries) != 4 || page1.EOF {
		t.Fatalf("page1 = %d entries eof=%v err=%v", len(page1.Entries), page1.EOF, err)
	}
	// Create mid-scan: must NOT invalidate the cookie.
	create(t, b, dir, "new0", nil)
	cookie := page1.Entries[len(page1.Entries)-1].Cookie
	rest := readdirAllFrom(t, b, dir, cookie, page1.Cookieverf, 4)
	seen := map[string]bool{}
	for _, e := range page1.Entries {
		seen[e.Name] = true
	}
	for _, e := range rest {
		if seen[e.Name] {
			t.Fatalf("entry %q repeated after mid-scan create", e.Name)
		}
		seen[e.Name] = true
	}
	if len(seen) != 11 {
		t.Fatalf("scan saw %d distinct entries, want 11 (10 old + 1 mid-scan create)", len(seen))
	}
	if !seen["new0"] {
		t.Fatal("mid-scan create not visible to the resumed scan")
	}
}

// readdirAllFrom resumes a scan at (cookie, verf) and drains it.
func readdirAllFrom(t *testing.T, b vfs.Backend, dir nfsproto.FH, cookie, verf uint64, pageSize int) []vfs.DirEntry {
	t.Helper()
	var all []vfs.DirEntry
	for {
		page, err := b.Readdir(dir, cookie, verf, pageSize)
		if err != nil {
			t.Fatalf("Readdir(cookie=%d): %v", cookie, err)
		}
		all = append(all, page.Entries...)
		verf = page.Cookieverf
		if len(page.Entries) > 0 {
			cookie = page.Entries[len(page.Entries)-1].Cookie
		}
		if page.EOF {
			return all
		}
	}
}

// testReaddirBadCookie pins verifier invalidation: a removal bumps the
// directory's cookie verifier, so a scan resumed with the old verifier
// gets ErrBadCookie, and a restarted scan (cookie 0, any verifier)
// succeeds.
func testReaddirBadCookie(t *testing.T, b vfs.Backend) {
	dir := mkdir(t, b, vfs.RootFH, "d")
	for i := 0; i < 8; i++ {
		create(t, b, dir, fmt.Sprintf("f%d", i), nil)
	}
	page1, err := b.Readdir(dir, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Remove(dir, page1.Entries[0].Name); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	cookie := page1.Entries[len(page1.Entries)-1].Cookie
	_, err = b.Readdir(dir, cookie, page1.Cookieverf, 3)
	if !errors.Is(err, vfs.ErrBadCookie) {
		t.Fatalf("resume after removal: %v, want ErrBadCookie", err)
	}
	// The RFC 1813 client recovery: restart from cookie 0.
	if all := readdirAll(t, b, dir, 3); len(all) != 7 {
		t.Fatalf("restarted scan returned %d entries, want 7", len(all))
	}
}

func testRemoveSemantics(t *testing.T, b vfs.Backend) {
	dir := mkdir(t, b, vfs.RootFH, "d")
	fh := create(t, b, dir, "f", []byte("bytes"))
	// Non-empty directory removal refuses.
	if _, err := b.Remove(vfs.RootFH, "d"); !errors.Is(err, vfs.ErrNotEmpty) {
		t.Fatalf("Remove of non-empty dir: %v, want ErrNotEmpty", err)
	}
	// File removal returns the orphaned handle and stales it.
	removed, err := b.Remove(dir, "f")
	if err != nil || removed != fh {
		t.Fatalf("Remove = (%d, %v), want (%d, nil)", removed, err, fh)
	}
	if _, _, err := b.Lookup(dir, "f"); !errors.Is(err, vfs.ErrNoEnt) {
		t.Fatalf("Lookup after Remove: %v, want ErrNoEnt", err)
	}
	if _, ok := b.Getattr(fh); ok {
		t.Fatal("Getattr of a removed file succeeded")
	}
	if _, err := b.Remove(dir, "f"); !errors.Is(err, vfs.ErrNoEnt) {
		t.Fatalf("double Remove: %v, want ErrNoEnt", err)
	}
	// Now-empty directory removal succeeds and stales the dir handle.
	if removed, err := b.Remove(vfs.RootFH, "d"); err != nil || removed != dir {
		t.Fatalf("rmdir = (%d, %v), want (%d, nil)", removed, err, dir)
	}
	if _, ok := b.Getattr(dir); ok {
		t.Fatal("Getattr of a removed dir succeeded")
	}
}

func testRenameSemantics(t *testing.T, b vfs.Backend) {
	d1 := mkdir(t, b, vfs.RootFH, "d1")
	d2 := mkdir(t, b, vfs.RootFH, "d2")
	src := create(t, b, d1, "src", []byte("payload"))
	tgt := create(t, b, d2, "tgt", []byte("doomed"))

	// Rename over an existing file: atomic replace, the target's
	// handle comes back orphaned.
	replaced, err := b.Rename(d1, "src", d2, "tgt")
	if err != nil || replaced != tgt {
		t.Fatalf("Rename-over-existing = (%d, %v), want (%d, nil)", replaced, err, tgt)
	}
	if got, attr, err := b.Lookup(d2, "tgt"); err != nil || got != src || attr.Size != 7 {
		t.Fatalf("target after rename = (%d, %+v, %v), want src handle %d", got, attr, err, src)
	}
	if _, _, err := b.Lookup(d1, "src"); !errors.Is(err, vfs.ErrNoEnt) {
		t.Fatalf("source still present after rename: %v", err)
	}
	if _, ok := b.Getattr(tgt); ok {
		t.Fatal("replaced target's handle still live")
	}
	// The moved file keeps its handle and bytes.
	data, _, _, err := b.ReadAt(src, 0, 16, 0)
	if err != nil || string(data) != "payload" {
		t.Fatalf("moved file reads %q, %v", data, err)
	}

	// Rename to a fresh name (no replacement) reports handle 0.
	if replaced, err := b.Rename(d2, "tgt", d2, "renamed"); err != nil || replaced != 0 {
		t.Fatalf("plain rename = (%d, %v)", replaced, err)
	}
	// Self-rename is a no-op success.
	if _, err := b.Rename(d2, "renamed", d2, "renamed"); err != nil {
		t.Fatalf("self rename: %v", err)
	}
	// Missing source.
	if _, err := b.Rename(d1, "ghost", d2, "x"); !errors.Is(err, vfs.ErrNoEnt) {
		t.Fatalf("rename of missing source: %v, want ErrNoEnt", err)
	}
	// A directory target never gets replaced.
	sub := mkdir(t, b, d1, "sub")
	if _, err := b.Rename(d2, "renamed", vfs.RootFH, "d1"); !errors.Is(err, vfs.ErrIsDir) {
		t.Fatalf("rename file over dir: %v, want ErrIsDir", err)
	}
	// A directory source cannot replace a file.
	blocker := create(t, b, d2, "blocker", nil)
	_ = blocker
	if _, err := b.Rename(d1, "sub", d2, "blocker"); !errors.Is(err, vfs.ErrNotDir) {
		t.Fatalf("rename dir over file: %v, want ErrNotDir", err)
	}
	// Renaming a directory into its own subtree refuses.
	if _, err := b.Rename(vfs.RootFH, "d1", sub, "loop"); !errors.Is(err, vfs.ErrInval) {
		t.Fatalf("rename dir into own subtree: %v, want ErrInval", err)
	}
	// A directory rename that creates no cycle works and keeps the
	// subtree reachable.
	if _, err := b.Rename(d1, "sub", d2, "sub"); err != nil {
		t.Fatalf("dir rename: %v", err)
	}
	if got, _, err := b.Lookup(d2, "sub"); err != nil || got != sub {
		t.Fatalf("moved dir = (%d, %v), want %d", got, err, sub)
	}
}

func testSetattr(t *testing.T, b vfs.Backend) {
	fh := create(t, b, vfs.RootFH, "f", []byte("0123456789"))
	// Truncate.
	if err := b.Setattr(fh, 4); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	got, size, eof, err := b.ReadAt(fh, 0, 64, 0)
	if err != nil || string(got) != "0123" || !eof || size != 4 {
		t.Fatalf("after truncate: %q size=%d eof=%v err=%v", got, size, eof, err)
	}
	// Extend: the new range reads as zeros.
	if err := b.Setattr(fh, 8); err != nil {
		t.Fatalf("extend: %v", err)
	}
	got, size, _, err = b.ReadAt(fh, 0, 64, 0)
	if err != nil || size != 8 || !bytes.Equal(got, []byte{'0', '1', '2', '3', 0, 0, 0, 0}) {
		t.Fatalf("after extend: %v size=%d err=%v", got, size, err)
	}
	// Old views survive both (copy-on-write applies to Setattr too).
	view, _, _, _ := b.ReadAt(fh, 0, 4, 0)
	if err := b.Setattr(fh, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Setattr(fh, 16); err != nil {
		t.Fatal(err)
	}
	if string(view) != "0123" {
		t.Fatalf("view mutated by Setattr: %q", view)
	}
	// Errors.
	if err := b.Setattr(vfs.RootFH, 0); !errors.Is(err, vfs.ErrIsDir) {
		t.Fatalf("Setattr on a dir: %v, want ErrIsDir", err)
	}
	if err := b.Setattr(fh+999, 0); err == nil {
		t.Fatal("Setattr on a stale handle succeeded")
	}
	if err := b.Setattr(fh, vfs.MaxFileSize+1); !errors.Is(err, vfs.ErrTooBig) {
		t.Fatalf("Setattr past MaxFileSize: %v, want ErrTooBig", err)
	}
}

// call drives one RPC through a service handler without sockets.
func call(t *testing.T, svc *nfsd.Service, proc uint32, args []byte) []byte {
	t.Helper()
	h := svc.InfoHandler()
	out, stat := h(rpcnet.CallInfo{}, proc, args, nil)
	if stat != sunrpc.AcceptSuccess {
		t.Fatalf("proc %s: accept stat %d", nfsproto.ProcName(proc), stat)
	}
	return out
}

func writeVia(t *testing.T, svc *nfsd.Service, fh nfsproto.FH, off uint64, data []byte, stable uint32) *nfsproto.WriteRes {
	t.Helper()
	out := call(t, svc, nfsproto.ProcWrite, (&nfsproto.WriteArgs{
		FH: fh, Offset: off, Count: uint32(len(data)), Stable: stable, Data: data,
	}).Marshal())
	res, err := nfsproto.UnmarshalWriteRes(out)
	if err != nil || res.Status != nfsproto.OK {
		t.Fatalf("WRITE: status=%d err=%v", res.Status, err)
	}
	return res
}

// testStabilityRouting checks the stability contract through the full
// dispatch stack: with a gather window open, UNSTABLE writes are
// acknowledged UNSTABLE (deferred), synchronous stabilities come back
// FILE_SYNC, and with no window everything is write-through.
func testStabilityRouting(t *testing.T, b vfs.Backend) {
	fh := create(t, b, vfs.RootFH, "f", make([]byte, 64*1024))

	gathered := nfsd.New(b, nfsd.Config{Gather: wgather.Config{Window: time.Minute}})
	defer gathered.Close()
	if res := writeVia(t, gathered, fh, 0, []byte("unstable"), nfsproto.WriteUnstable); res.Committed != nfsproto.WriteUnstable {
		t.Fatalf("gathered UNSTABLE write acked %s", nfsproto.StableName(res.Committed))
	}
	if res := writeVia(t, gathered, fh, 8192, []byte("datasync"), nfsproto.WriteDataSync); res.Committed != nfsproto.WriteFileSync {
		t.Fatalf("DATA_SYNC write acked %s, want FILE_SYNC", nfsproto.StableName(res.Committed))
	}
	if res := writeVia(t, gathered, fh, 16384, []byte("filesync"), nfsproto.WriteFileSync); res.Committed != nfsproto.WriteFileSync {
		t.Fatalf("FILE_SYNC write acked %s", nfsproto.StableName(res.Committed))
	}

	through := nfsd.New(b, nfsd.Config{})
	defer through.Close()
	if res := writeVia(t, through, fh, 0, []byte("unstable"), nfsproto.WriteUnstable); res.Committed != nfsproto.WriteFileSync {
		t.Fatalf("write-through UNSTABLE write acked %s, want FILE_SYNC", nfsproto.StableName(res.Committed))
	}
}

// testVerifierReboot checks verifier semantics and FH stability: the
// verifier is constant across writes and COMMIT, changes exactly on
// Reboot, and handles issued before the reboot still name the same
// file afterwards.
func testVerifierReboot(t *testing.T, b vfs.Backend) {
	payload := []byte("survives reboots")
	fh := create(t, b, vfs.RootFH, "f", payload)
	svc := nfsd.New(b, nfsd.Config{Gather: wgather.Config{Window: time.Minute}})
	defer svc.Close()

	v0 := svc.WriteVerifier()
	res := writeVia(t, svc, fh, 0, []byte("S"), nfsproto.WriteUnstable)
	if res.Verf != v0 {
		t.Fatalf("write verifier %x, service verifier %x", res.Verf, v0)
	}
	out := call(t, svc, nfsproto.ProcCommit, (&nfsproto.CommitArgs{FH: fh}).Marshal())
	cres, err := nfsproto.UnmarshalCommitRes(out)
	if err != nil || cres.Status != nfsproto.OK || cres.Verf != v0 {
		t.Fatalf("COMMIT: status=%d verf=%x err=%v, want verf %x", cres.Status, cres.Verf, err, v0)
	}

	svc.Reboot()
	if svc.WriteVerifier() == v0 {
		t.Fatal("verifier unchanged across Reboot")
	}
	// FH stability: the pre-reboot handle still reads the same file.
	rout := call(t, svc, nfsproto.ProcRead, (&nfsproto.ReadArgs{FH: fh, Offset: 0, Count: 64}).Marshal())
	rres, err := nfsproto.UnmarshalReadRes(rout)
	if err != nil || rres.Status != nfsproto.OK {
		t.Fatalf("READ after reboot: status=%d err=%v", rres.Status, err)
	}
	want := append([]byte("S"), payload[1:]...)
	if !bytes.Equal(rres.Data, want) {
		t.Fatalf("READ after reboot = %q, want %q", rres.Data, want)
	}
}

// testDirReboot checks directory-handle stability across Reboot
// through the dispatch stack: a directory handle issued before the
// verifier changed still serves LOOKUP and READDIR afterwards.
func testDirReboot(t *testing.T, b vfs.Backend) {
	dir := mkdir(t, b, vfs.RootFH, "d")
	fh := create(t, b, dir, "f", []byte("x"))
	svc := nfsd.New(b, nfsd.Config{Gather: wgather.Config{Window: time.Minute}})
	defer svc.Close()

	svc.Reboot()

	lout := call(t, svc, nfsproto.ProcLookup, (&nfsproto.LookupArgs{Dir: dir, Name: "f"}).Marshal())
	lres, err := nfsproto.UnmarshalLookupRes(lout)
	if err != nil || lres.Status != nfsproto.OK || lres.FH != fh {
		t.Fatalf("LOOKUP after reboot = (%d, status %d, %v), want %d", lres.FH, lres.Status, err, fh)
	}
	rout := call(t, svc, nfsproto.ProcReaddir, (&nfsproto.ReaddirArgs{Dir: dir, Count: 4096}).Marshal())
	rres, err := nfsproto.UnmarshalReaddirRes(rout)
	if err != nil || rres.Status != nfsproto.OK || len(rres.Entries) != 1 || rres.Entries[0].Name != "f" {
		t.Fatalf("READDIR after reboot: status=%d entries=%v err=%v", rres.Status, rres.Entries, err)
	}
}
