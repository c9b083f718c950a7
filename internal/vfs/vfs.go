// Package vfs defines the storage-backend contract behind the live NFS
// dispatch layer (internal/nfsd). A Backend is everything the protocol
// layer needs from storage — a hierarchical namespace (directories are
// first-class objects with their own file handles), attributes, access
// checks, reads, writes, durability and space accounting — expressed
// over file handles, so the same dispatch code (proc switch, counters,
// read-ahead heuristics, write gathering, trace taps) serves any
// store: the in-memory memfs, the ZCAV disk-backed zonefs, or anything
// written later.
//
// Three contracts matter beyond the method signatures:
//
// Copy-on-write read views: the slice ReadAt returns is a stable
// read-only view of the file at the moment of the call. Later WriteAt
// calls must never mutate bytes a returned view can see — overlapping
// writes copy to a fresh segment, appends only touch indices past
// every view. The zero-copy reply pipeline depends on this: a READ
// payload is appended straight from the view into the pooled wire
// buffer, after the handler returned.
//
// Stability: WriteAt lands data in the backend's page cache only. The
// data is durable when Commit returns for a covering range. The nfsd
// layer's write-gathering engine decides when Commit is called (per
// the RFC 1813 stable_how the client asked for and the gather window);
// the backend decides what durability costs. FHs — of files and of
// directories — are stable across a server reboot (nfsd.Service.
// Reboot): a handle issued before the verifier changed still names the
// same object afterwards.
//
// Readdir paging: every directory carries a monotonic cookie space and
// a cookie verifier. Each entry is assigned a cookie when it is linked
// into the directory, and Readdir(dir, cookie, ...) returns entries
// with cookies strictly greater than the given one, in ascending
// cookie order — so a multi-page scan resumes exactly where it left
// off. Entries created mid-scan land at the cookie frontier and are
// picked up by later pages without disturbing earlier ones; removing
// an entry (including renaming it away) bumps the directory's
// verifier, and a resumed scan presenting the old verifier gets
// ErrBadCookie — the client must restart from cookie 0. A fresh scan
// (cookie 0) never checks the verifier.
package vfs

import (
	"errors"

	"nfstricks/internal/nfsproto"
	"nfstricks/internal/obs"
)

// RootFH is the file handle of the root directory every backend
// exports. The root is an ordinary directory object: Getattr, Access
// and Readdir answer for it like any other handle.
const RootFH nfsproto.FH = 1

// MaxFileSize bounds a file's length (4 GB). Write offsets come off
// the wire, so without this cap a crafted WRITE could demand an absurd
// allocation or overflow offset+len arithmetic into a slice-bounds
// panic.
const MaxFileSize = 1 << 32

// MaxCreateSize bounds the initial size a live CREATE may request
// (the backend must materialize the zeroes somewhere; this keeps one
// crafted RPC from demanding gigabytes).
const MaxCreateSize = 256 << 20

// Sentinel errors backends report and the dispatch layer maps to
// nfsstat3 codes.
var (
	// ErrStale marks an unknown or no-longer-valid file handle.
	ErrStale = errors.New("vfs: stale file handle")
	// ErrTooBig marks a write that would grow a file past MaxFileSize.
	ErrTooBig = errors.New("vfs: write exceeds max file size")
	// ErrNoSpace marks a backend out of room (zonefs: the placement
	// region's LBA range is exhausted).
	ErrNoSpace = errors.New("vfs: no space left on backend")
	// ErrNoEnt marks a name that does not exist in the directory.
	ErrNoEnt = errors.New("vfs: no such entry")
	// ErrExist marks a create/mkdir target name already in use when
	// the operation does not replace (Mkdir never replaces).
	ErrExist = errors.New("vfs: entry exists")
	// ErrNotDir marks a handle used as a directory that names a file.
	ErrNotDir = errors.New("vfs: not a directory")
	// ErrIsDir marks a directory handle where a file was required
	// (data-path ops, Remove-replacing-a-dir targets, ...).
	ErrIsDir = errors.New("vfs: is a directory")
	// ErrNotEmpty marks an attempt to remove a non-empty directory.
	ErrNotEmpty = errors.New("vfs: directory not empty")
	// ErrBadCookie marks a Readdir resume cookie whose verifier no
	// longer matches the directory — an entry was removed since the
	// scan started, so the cookie may skip or repeat entries. Restart
	// from cookie 0.
	ErrBadCookie = errors.New("vfs: stale readdir cookie")
	// ErrInval marks a structurally invalid namespace operation, e.g.
	// renaming a directory into its own subtree.
	ErrInval = errors.New("vfs: invalid operation")
)

// statuses pairs each sentinel with the nfsstat3 code it travels as on
// the wire: the server maps errors to codes (Status) and the client
// maps codes back (StatusErr) from this one table.
var statuses = []struct {
	err    error
	status uint32
}{
	{ErrNoEnt, nfsproto.ErrNoEnt},
	{ErrExist, nfsproto.ErrExist},
	{ErrNotDir, nfsproto.ErrNotDir},
	{ErrIsDir, nfsproto.ErrIsDir},
	{ErrNotEmpty, nfsproto.ErrNotEmpty},
	{ErrBadCookie, nfsproto.ErrBadCookie},
	{ErrInval, nfsproto.ErrInval},
	{ErrTooBig, nfsproto.ErrFBig},
	{ErrNoSpace, nfsproto.ErrNoSpc},
	{ErrStale, nfsproto.ErrStale},
}

// Status returns the nfsstat3 code for a backend error: the code of the
// first sentinel err matches, NFS3ERR_IO for anything else. It is kept
// out of line so the nfsd handlers, which call it only on their error
// paths, keep small stack frames: every request runs on a goroutine of
// its own, and, inlined into them, the loop grew them enough to cost the
// metadata benchmark throughput.
//
//go:noinline
func Status(err error) uint32 {
	for _, s := range statuses {
		if errors.Is(err, s.err) {
			return s.status
		}
	}
	return nfsproto.ErrIO
}

// StatusErr returns the sentinel an nfsstat3 code stands for, or nil
// when the code has none.
func StatusErr(status uint32) error {
	for _, s := range statuses {
		if s.status == status {
			return s.err
		}
	}
	return nil
}

// DirEntryBytes is the nominal on-store size of one directory entry.
// A directory's Attr.Size is entries × DirEntryBytes, and zonefs sizes
// a directory's entry blocks by it (128 entries per 8 KB block).
const DirEntryBytes = 64

// Attr is the attribute set the contract carries for an object: its
// size (for a directory, a nominal entries×per-entry-bytes figure) and
// whether it is a directory.
type Attr struct {
	Size int64
	Dir  bool
}

// DirEntry is one Readdir result entry.
type DirEntry struct {
	FH     nfsproto.FH
	Name   string
	Cookie uint64
	Attr   Attr
}

// ReaddirPage is one page of a directory scan. Cookieverf is the
// verifier the page's cookies are valid under; a client resuming with
// any of these cookies must present it. EOF reports that the page
// reached the end of the directory (an empty page with EOF set is a
// completed scan).
type ReaddirPage struct {
	Entries    []DirEntry
	Cookieverf uint64
	EOF        bool
}

// Backend is a hierarchical file store behind the live dispatch layer.
// Implementations must be safe for concurrent use by multiple
// goroutines; ReadAt on distinct files should not serialize (the
// dispatch hot path holds no global lock of its own).
type Backend interface {
	// Create adds a file under dir with the given contents, replacing
	// any previous *file* of that name (replacing a directory is
	// ErrIsDir), and returns its handle. Errors: ErrStale, ErrNotDir,
	// ErrIsDir, ErrNoSpace.
	Create(dir nfsproto.FH, name string, data []byte) (nfsproto.FH, error)

	// Lookup resolves name under dir. Errors: ErrStale, ErrNotDir,
	// ErrNoEnt.
	Lookup(dir nfsproto.FH, name string) (nfsproto.FH, Attr, error)

	// Mkdir creates an empty directory under dir. Unlike Create it
	// never replaces: an existing entry of either kind is ErrExist.
	Mkdir(dir nfsproto.FH, name string) (nfsproto.FH, error)

	// Readdir returns up to maxEntries entries of dir with cookies
	// strictly greater than cookie, in ascending cookie order (see the
	// package comment for the paging contract). maxEntries <= 0 means
	// no limit. Errors: ErrStale, ErrNotDir, ErrBadCookie.
	Readdir(dir nfsproto.FH, cookie, cookieverf uint64, maxEntries int) (ReaddirPage, error)

	// Remove unlinks name from dir and returns the removed object's
	// handle (so the dispatch layer can drop per-file state keyed on
	// it). A directory must be empty (ErrNotEmpty). Errors: ErrStale,
	// ErrNotDir, ErrNoEnt, ErrNotEmpty.
	Remove(dir nfsproto.FH, name string) (nfsproto.FH, error)

	// Rename moves fromDir/fromName to toDir/toName, atomically
	// replacing a file target (replaced is its handle, 0 when the
	// target did not exist). Replacing a directory target is ErrIsDir
	// (even an empty one — the reduced contract keeps replacement to
	// files); renaming a directory to a file target is ErrNotDir per
	// RFC 1813. Errors: ErrStale, ErrNotDir, ErrNoEnt, ErrIsDir,
	// ErrExist.
	Rename(fromDir nfsproto.FH, fromName string, toDir nfsproto.FH, toName string) (replaced nfsproto.FH, err error)

	// Setattr sets a file's size, truncating or zero-extending.
	// Errors: ErrStale, ErrIsDir, ErrTooBig, ErrNoSpace.
	Setattr(fh nfsproto.FH, size uint64) error

	// Getattr returns an object's current attributes; ok is false for
	// handles the backend does not know.
	Getattr(fh nfsproto.FH) (Attr, bool)

	// Access reports which of the requested ACCESS3 mask bits the
	// backend grants on fh; ok is false for stale handles.
	Access(fh nfsproto.FH, mask uint32) (granted uint32, ok bool)

	// ReadAt returns up to count bytes at off as a stable
	// copy-on-write view (see the package comment), plus the file's
	// current size and an EOF flag. ahead is the read-ahead window, in
	// blocks, the sequentiality heuristic recommends beyond this
	// request; backends without a prefetch notion ignore it.
	ReadAt(fh nfsproto.FH, off uint64, count uint32, ahead int) (data []byte, size uint64, eof bool, err error)

	// WriteAt stores data at off in the backend's page cache,
	// extending the file as needed (gaps read as zeros). Durability is
	// deferred to Commit.
	WriteAt(fh nfsproto.FH, off uint64, data []byte) error

	// Commit makes [off, off+count) — or the whole file when count is
	// 0 — durable. The dispatch layer's gathering engine calls this on
	// COMMIT, on synchronous-stability writes, and when the gather
	// window expires.
	Commit(fh nfsproto.FH, off uint64, count uint32) error

	// Fsstat reports the store's total and free capacity in bytes.
	Fsstat() (totalBytes, freeBytes uint64)
}

// SizedCreator is an optional Backend capability: create a
// zero-filled file of the given size without the caller materializing
// the zeroes. The dispatch layer uses it to serve CREATE with one
// allocation instead of a payload copy.
type SizedCreator interface {
	// CreateSized is Create for a zero-filled file of size bytes.
	CreateSized(dir nfsproto.FH, name string, size uint64) (nfsproto.FH, error)
}

// SpanReader is an optional Backend capability: ReadAt with a latency
// span the backend attributes its internal stage costs to — a
// disk-backed backend reports time actually slept for simulated disk
// service as obs.StageDisk, carving it out of the caller's backend
// stage. The dispatch layer detects the capability once at mount and
// uses it whenever a request carries a span; ReadAtSpan with a nil span
// must behave exactly like ReadAt.
type SpanReader interface {
	// ReadAtSpan is Backend.ReadAt with stage attribution onto sp.
	ReadAtSpan(fh nfsproto.FH, off uint64, count uint32, ahead int, sp *obs.Span) (data []byte, size uint64, eof bool, err error)
}

// FileAccess is the ACCESS3 grant every current backend gives on a
// regular file: read and write (modify/extend), no execute.
func FileAccess(mask uint32) uint32 {
	return mask & (nfsproto.AccessRead | nfsproto.AccessModify | nfsproto.AccessExtend)
}

// DirAccess is the grant on a directory: lookup, read (readdir) and
// namespace mutation (create/remove entries), no execute.
func DirAccess(mask uint32) uint32 {
	return mask & (nfsproto.AccessRead | nfsproto.AccessLookup |
		nfsproto.AccessModify | nfsproto.AccessExtend | nfsproto.AccessDelete)
}

// RootAccess is the grant on the root directory (alias of DirAccess
// now that the root is an ordinary directory; kept for PR 1–5 call
// sites).
func RootAccess(mask uint32) uint32 { return DirAccess(mask) }
