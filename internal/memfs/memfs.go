// Package memfs is the in-memory storage backend for the live
// (real-socket) NFS server: a hierarchical vfs.Backend holding real
// data bytes with copy-on-write read views, plus the live NFS client
// and its biod-style write-behind pipeline. The protocol work — proc
// dispatch, nfsheur read-ahead heuristics, write gathering, tracing —
// lives in internal/nfsd, which mounts an FS with
// nfsd.New(fs, nfsd.Config{...}) and serves it with nfsd.NewServer.
package memfs

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"nfstricks/internal/nfsproto"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/vfs"
)

// RootFH is the file handle of the root directory.
const RootFH = vfs.RootFH

// LocalFHBound splits the handle space: ordinary Creates mint handles
// strictly below it, and everything at or above it belongs to external
// placement (the cluster-wide allocator starts here — see
// cluster.fhAllocBase). Keeping the two ranges disjoint is what lets a
// store accept placed handles without its own allocator ever minting a
// colliding one. 2³² local creates exhaust tens of GB of object
// headers long before the counter can reach the bound.
const LocalFHBound nfsproto.FH = 1 << 32

// MaxFileSize bounds a file's length (4 GB); see vfs.MaxFileSize.
const MaxFileSize = vfs.MaxFileSize

// ErrTooBig is returned by Write for offsets or lengths that would grow
// a file past MaxFileSize.
var ErrTooBig = vfs.ErrTooBig

// dirent is one directory entry: the object it names and the readdir
// cookie assigned when it was linked in (see the vfs paging contract).
type dirent struct {
	fh     nfsproto.FH
	cookie uint64
}

// dirState is a directory's namespace: its entries, the monotonic
// cookie allocator, and the cookie verifier (bumped when an entry is
// removed, which is the only mutation that can invalidate an
// in-progress scan's resume cookies).
type dirState struct {
	entries    map[string]dirent
	nextCookie uint64
	verf       uint64
	// order lists every linked name in ascending cookie order — append
	// order, since cookies only grow — so Readdir resumes a scan by
	// binary search instead of sorting the directory. A slot whose name
	// was unlinked (or re-linked under a newer cookie) is stale; dead
	// counts stale slots, which are dropped once they are half of order.
	order []dirSlot
	dead  int
}

// dirSlot is one position in a directory's cookie order.
type dirSlot struct {
	cookie uint64
	name   string
}

// chunkSize is the size of one file chunk: nfsproto.MaxData, the
// largest READ or WRITE payload, so an aligned READ lies in one chunk
// and an aligned WRITE touches at most one.
const chunkSize = nfsproto.MaxData

// object is one store object. Exactly one of the two roles applies:
// dir == nil makes it a regular file of size bytes; dir != nil makes it
// a directory (size and chunks stay zero).
//
// A file's bytes live in a table of chunks: chunks[i] holds the bytes
// at [i*chunkSize, (i+1)*chunkSize). A nil or missing entry is a hole,
// and the bytes of a chunk past its len read as zeros up to the
// chunk's extent, so growing a file allocates nothing. The bytes below
// a chunk's len are immutable: readers receive sub-slice views of
// them, so a write that touches them copies that one chunk and swaps
// the pointer. Bytes between a chunk's len and its cap have never been
// in a view, so an append fills them in place; truncation caps the
// boundary chunk's capacity so a later append cannot revive dropped
// bytes an old view still holds. A file that holds no data, however
// large, has no table.
type object struct {
	size   uint64
	chunks [][]byte
	dir    *dirState
}

func newDir() *object {
	return &object{dir: &dirState{entries: make(map[string]dirent), nextCookie: 1}}
}

// newFile returns a file holding data. With own, its chunks are capped
// views of data itself, which the file takes over; otherwise each
// chunk is a copy.
func newFile(data []byte, own bool) *object {
	o := &object{size: uint64(len(data))}
	if len(data) > 0 {
		o.chunks = make([][]byte, (len(data)+chunkSize-1)/chunkSize)
	}
	for i := range o.chunks {
		c := data[i*chunkSize : min((i+1)*chunkSize, len(data))]
		if own {
			c = c[:len(c):len(c)]
		} else {
			c = bytes.Clone(c)
		}
		o.chunks[i] = c
	}
	return o
}

// chunk returns chunk i of a file (nil for a hole).
func (o *object) chunk(i int) []byte {
	if i < len(o.chunks) {
		return o.chunks[i]
	}
	return nil
}

// setChunk stores c as chunk i, extending the table with holes.
func (o *object) setChunk(i int, c []byte) {
	if i >= len(o.chunks) {
		o.chunks = append(o.chunks, make([][]byte, i+1-len(o.chunks))...)
	}
	o.chunks[i] = c
}

// FS is a hierarchical in-memory file store. The root directory exists
// from construction at vfs.RootFH.
type FS struct {
	mu     sync.RWMutex
	objs   map[nfsproto.FH]*object
	nextFH nfsproto.FH
}

// NewFS returns a store holding only an empty root directory.
func NewFS() *FS {
	fs := &FS{
		objs:   make(map[nfsproto.FH]*object),
		nextFH: RootFH + 1,
	}
	fs.objs[RootFH] = newDir()
	return fs
}

// dirAt resolves fh to a directory object (caller holds fs.mu).
func (fs *FS) dirAt(fh nfsproto.FH) (*object, error) {
	o, ok := fs.objs[fh]
	if !ok {
		return nil, fmt.Errorf("%w: %d", vfs.ErrStale, fh)
	}
	if o.dir == nil {
		return nil, fmt.Errorf("%w: %d", vfs.ErrNotDir, fh)
	}
	return o, nil
}

// link adds name→fh to d with a fresh cookie (caller holds fs.mu).
func (fs *FS) link(d *dirState, name string, fh nfsproto.FH) {
	d.entries[name] = dirent{fh: fh, cookie: d.nextCookie}
	d.order = append(d.order, dirSlot{cookie: d.nextCookie, name: name})
	d.nextCookie++
}

// unlink removes name from d and bumps the verifier — resume cookies
// issued before the removal may now skip or repeat, so outstanding
// scans must restart (caller holds fs.mu).
func (d *dirState) unlink(name string) {
	delete(d.entries, name)
	d.verf++
	d.dead++
	if 2*d.dead > len(d.order) {
		live := d.order[:0]
		for _, sl := range d.order {
			if e, ok := d.entries[sl.name]; ok && e.cookie == sl.cookie {
				live = append(live, sl)
			}
		}
		clear(d.order[len(live):])
		d.order, d.dead = live, 0
	}
}

// Create adds a file under dir with a copy of data as its contents,
// replacing any previous file of that name, and returns its handle
// (vfs.Backend).
func (fs *FS) Create(dir nfsproto.FH, name string, data []byte) (nfsproto.FH, error) {
	return fs.install(dir, name, newFile(data, false))
}

// CreateSized adds a zero-filled file of size bytes (vfs.SizedCreator):
// one hole, no payload allocated.
func (fs *FS) CreateSized(dir nfsproto.FH, name string, size uint64) (nfsproto.FH, error) {
	return fs.install(dir, name, &object{size: size})
}

// CreateAt installs a file at a caller-chosen handle, replacing any
// previous file of that name. This is the placement primitive a
// sharded cluster needs: handles come from a cluster-wide allocator
// (so consistent hashing can route them) and must survive migration to
// another store byte-for-byte. Placing a handle below LocalFHBound
// (a shard-local handle arriving by migration) bumps the local counter
// past it so ordinary Creates never collide with it; a handle at or
// above the bound lives in the cluster allocator's reserved range and
// must not drag the local counter up into that range. An existing
// object at fh under a different name is ErrExist. The file takes over
// data: the caller must not modify it afterwards.
func (fs *FS) CreateAt(dir nfsproto.FH, name string, fh nfsproto.FH, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.dirAt(dir)
	if err != nil {
		return err
	}
	if old, ok := d.dir.entries[name]; ok {
		if fs.objs[old.fh].dir != nil {
			return fmt.Errorf("%w: %s", vfs.ErrIsDir, name)
		}
		delete(fs.objs, old.fh)
		d.dir.unlink(name)
	}
	if _, taken := fs.objs[fh]; taken {
		return fmt.Errorf("%w: fh %d", vfs.ErrExist, fh)
	}
	if fh < LocalFHBound && fh >= fs.nextFH {
		fs.nextFH = fh + 1
	}
	fs.objs[fh] = newFile(data, true)
	fs.link(d.dir, name, fh)
	return nil
}

// install registers the file f as dir/name.
func (fs *FS) install(dir nfsproto.FH, name string, f *object) (nfsproto.FH, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.dirAt(dir)
	if err != nil {
		return 0, err
	}
	if old, ok := d.dir.entries[name]; ok {
		if fs.objs[old.fh].dir != nil {
			return 0, fmt.Errorf("%w: %s", vfs.ErrIsDir, name)
		}
		delete(fs.objs, old.fh)
		d.dir.unlink(name)
	}
	fh := fs.nextFH
	fs.nextFH++
	fs.objs[fh] = f
	fs.link(d.dir, name, fh)
	return fh, nil
}

// Lookup resolves name under dir (vfs.Backend). A miss returns the bare
// vfs.ErrNoEnt sentinel: clients probe for names that do not exist, and
// no caller reads the name back out of the error.
func (fs *FS) Lookup(dir nfsproto.FH, name string) (nfsproto.FH, vfs.Attr, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	d, err := fs.dirAt(dir)
	if err != nil {
		return 0, vfs.Attr{}, err
	}
	e, ok := d.dir.entries[name]
	if !ok {
		return 0, vfs.Attr{}, vfs.ErrNoEnt
	}
	return e.fh, fs.objs[e.fh].attr(), nil
}

// attr reports an object's contract attributes (caller holds fs.mu).
func (o *object) attr() vfs.Attr {
	if o.dir != nil {
		return vfs.Attr{Size: int64(len(o.dir.entries)) * vfs.DirEntryBytes, Dir: true}
	}
	return vfs.Attr{Size: int64(o.size)}
}

// Mkdir creates an empty directory under dir; an existing entry of
// either kind is ErrExist (vfs.Backend).
func (fs *FS) Mkdir(dir nfsproto.FH, name string) (nfsproto.FH, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.dirAt(dir)
	if err != nil {
		return 0, err
	}
	if _, ok := d.dir.entries[name]; ok {
		return 0, fmt.Errorf("%w: %s", vfs.ErrExist, name)
	}
	fh := fs.nextFH
	fs.nextFH++
	fs.objs[fh] = newDir()
	fs.link(d.dir, name, fh)
	return fh, nil
}

// Readdir returns up to maxEntries entries of dir with cookies
// strictly greater than cookie, ascending; maxEntries 0 returns them
// all (vfs.Backend). A page costs O(log n + maxEntries), not a sort of
// the directory.
func (fs *FS) Readdir(dir nfsproto.FH, cookie, cookieverf uint64, maxEntries int) (vfs.ReaddirPage, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	d, err := fs.dirAt(dir)
	if err != nil {
		return vfs.ReaddirPage{}, err
	}
	if cookie != 0 && cookieverf != d.dir.verf {
		return vfs.ReaddirPage{}, fmt.Errorf("%w: verf %d != %d", vfs.ErrBadCookie, cookieverf, d.dir.verf)
	}
	page := vfs.ReaddirPage{Cookieverf: d.dir.verf, EOF: true}
	order := d.dir.order
	i := sort.Search(len(order), func(i int) bool { return order[i].cookie > cookie })
	for ; i < len(order); i++ {
		e, ok := d.dir.entries[order[i].name]
		if !ok || e.cookie != order[i].cookie {
			continue
		}
		if maxEntries > 0 && len(page.Entries) == maxEntries {
			page.EOF = false
			break
		}
		page.Entries = append(page.Entries, vfs.DirEntry{
			FH: e.fh, Name: order[i].name, Cookie: e.cookie, Attr: fs.objs[e.fh].attr()})
	}
	return page, nil
}

// Remove unlinks dir/name and returns the removed handle; a directory
// must be empty (vfs.Backend).
func (fs *FS) Remove(dir nfsproto.FH, name string) (nfsproto.FH, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.dirAt(dir)
	if err != nil {
		return 0, err
	}
	e, ok := d.dir.entries[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", vfs.ErrNoEnt, name)
	}
	o := fs.objs[e.fh]
	if o.dir != nil && len(o.dir.entries) > 0 {
		return 0, fmt.Errorf("%w: %s", vfs.ErrNotEmpty, name)
	}
	delete(fs.objs, e.fh)
	d.dir.unlink(name)
	return e.fh, nil
}

// Rename moves fromDir/fromName to toDir/toName, atomically replacing
// a file target (vfs.Backend).
func (fs *FS) Rename(fromDir nfsproto.FH, fromName string, toDir nfsproto.FH, toName string) (nfsproto.FH, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fd, err := fs.dirAt(fromDir)
	if err != nil {
		return 0, err
	}
	td, err := fs.dirAt(toDir)
	if err != nil {
		return 0, err
	}
	src, ok := fd.dir.entries[fromName]
	if !ok {
		return 0, fmt.Errorf("%w: %s", vfs.ErrNoEnt, fromName)
	}
	if fromDir == toDir && fromName == toName {
		return 0, nil // RFC 1813: renaming an entry onto itself succeeds
	}
	srcObj := fs.objs[src.fh]
	if srcObj.dir != nil && fs.inSubtree(src.fh, toDir) {
		return 0, fmt.Errorf("%w: rename dir into own subtree", vfs.ErrInval)
	}
	var replaced nfsproto.FH
	if tgt, ok := td.dir.entries[toName]; ok {
		tgtObj := fs.objs[tgt.fh]
		if tgtObj.dir != nil {
			return 0, fmt.Errorf("%w: %s", vfs.ErrIsDir, toName)
		}
		if srcObj.dir != nil {
			return 0, fmt.Errorf("%w: %s", vfs.ErrNotDir, toName)
		}
		delete(fs.objs, tgt.fh)
		td.dir.unlink(toName)
		replaced = tgt.fh
	}
	fd.dir.unlink(fromName)
	fs.link(td.dir, toName, src.fh)
	return replaced, nil
}

// inSubtree reports whether fh equals root or lies under the directory
// root (caller holds fs.mu). Guard against the cycle a rename of a
// directory into its own subtree would create.
func (fs *FS) inSubtree(root, fh nfsproto.FH) bool {
	if root == fh {
		return true
	}
	o := fs.objs[root]
	if o == nil || o.dir == nil {
		return false
	}
	for _, e := range o.dir.entries {
		if fs.inSubtree(e.fh, fh) {
			return true
		}
	}
	return false
}

// Setattr sets a file's size, truncating or zero-extending
// (vfs.Backend). Extension allocates nothing: the new bytes are a hole.
func (fs *FS) Setattr(fh nfsproto.FH, size uint64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	o, ok := fs.objs[fh]
	if !ok {
		return fmt.Errorf("%w: %d", vfs.ErrStale, fh)
	}
	if o.dir != nil {
		return fmt.Errorf("%w: %d", vfs.ErrIsDir, fh)
	}
	if size > MaxFileSize {
		return fmt.Errorf("%w (setattr size=%d)", ErrTooBig, size)
	}
	if size < o.size {
		o.truncate(size)
	}
	o.size = size
	return nil
}

// truncate drops a file's bytes at and past n (caller holds fs.mu).
// The chunks wholly past n leave the table; the boundary chunk is
// resliced with its capacity capped, so the dropped bytes stay
// untouched for outstanding read views and a later in-place append
// cannot revive them.
func (o *object) truncate(n uint64) {
	keep := int((n + chunkSize - 1) / chunkSize)
	if keep < len(o.chunks) {
		clear(o.chunks[keep:])
		o.chunks = o.chunks[:keep]
	}
	if r := int(n % chunkSize); r > 0 && keep == len(o.chunks) && len(o.chunks[keep-1]) > r {
		o.chunks[keep-1] = o.chunks[keep-1][:r:r]
	}
}

// Read returns up to count bytes at off from the file, never fewer
// than the file holds there. A range stored in one chunk comes back as
// a stable read-only view of that chunk, not a copy: later Writes never
// mutate it (copy-on-write), so the only payload copy on the READ
// reply path is the append into the wire buffer. A range that spans
// chunks or reaches a hole comes back as one copy. Callers must not
// modify the returned bytes.
func (fs *FS) Read(fh nfsproto.FH, off uint64, count uint32) (data []byte, eof bool, err error) {
	data, _, eof, err = fs.readAt(fh, off, count)
	return data, eof, err
}

// readAt is Read plus the file's current size, fetched under a single
// lock acquisition — the READ hot path needs both.
func (fs *FS) readAt(fh nfsproto.FH, off uint64, count uint32) (data []byte, size uint64, eof bool, err error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.objs[fh]
	if !ok {
		return nil, 0, false, fmt.Errorf("%w: %d", vfs.ErrStale, fh)
	}
	if f.dir != nil {
		return nil, 0, false, fmt.Errorf("%w: %d", vfs.ErrIsDir, fh)
	}
	size = f.size
	if off >= size {
		return nil, size, true, nil
	}
	end := min(off+uint64(count), size)
	return f.read(off, end), size, end == size, nil
}

// read returns a file's bytes at [off, end), end <= size (caller holds
// fs.mu): a view when they lie below one chunk's len, else a copy with
// holes zeroed. Views are built with a full slice expression so they
// cannot reach a chunk's spare capacity, which in-place appends may
// fill.
func (o *object) read(off, end uint64) []byte {
	i := off / chunkSize
	base := i * chunkSize
	if c := o.chunk(int(i)); end-base <= uint64(len(c)) {
		return c[off-base : end-base : end-base]
	}
	out := make([]byte, end-off)
	for ; i*chunkSize < end; i++ {
		base := i * chunkSize
		c := o.chunk(int(i))
		if from, to := max(off, base), min(end, base+uint64(len(c))); from < to {
			copy(out[from-off:], c[from-base:to-base])
		}
	}
	return out
}

// Write stores data at off, extending the file as needed. It copies
// only the chunks the range touches (see the object type), so the cost
// of an overwrite is the size of the write, not of the file.
func (fs *FS) Write(fh nfsproto.FH, off uint64, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.objs[fh]
	if !ok {
		return fmt.Errorf("%w: %d", vfs.ErrStale, fh)
	}
	if f.dir != nil {
		return fmt.Errorf("%w: %d", vfs.ErrIsDir, fh)
	}
	if off > MaxFileSize || uint64(len(data)) > MaxFileSize-off {
		return fmt.Errorf("%w (off=%d len=%d)", ErrTooBig, off, len(data))
	}
	end := off + uint64(len(data))
	size := max(f.size, end)
	for p := off; p < end; {
		i := p / chunkSize
		base := i * chunkSize
		hi := min(end-base, chunkSize)
		f.setChunk(int(i), f.writeChunk(int(i), int(p-base), int(hi), data[p-off:base+hi-off], size))
		p = base + hi
	}
	f.size = size
	return nil
}

// writeChunk returns chunk i with src stored at [lo, hi) within it, in
// a file that will be size bytes long (caller holds fs.mu). A write
// wholly in the chunk's spare capacity fills it in place; any other
// write copies the chunk. In a file larger than one chunk the copy gets
// the full chunkSize. A small file's one chunk doubles its capacity
// when a write extends it (amortized O(1) appends) and stays exact
// when one does not.
func (o *object) writeChunk(i, lo, hi int, src []byte, size uint64) []byte {
	old := o.chunk(i)
	if lo >= len(old) && hi <= cap(old) {
		c := old[:hi]
		clear(c[len(old):lo])
		copy(c[lo:], src)
		return c
	}
	n := max(len(old), hi)
	capacity := n
	switch {
	case size > chunkSize:
		capacity = chunkSize
	case n > len(old):
		capacity = min(chunkSize, max(n, 2*cap(old)))
	}
	c := make([]byte, n, capacity)
	copy(c, old)
	copy(c[lo:], src)
	return c
}

// Size returns an object's length (for a directory, its nominal
// entries × vfs.DirEntryBytes size).
func (fs *FS) Size(fh nfsproto.FH) (int64, bool) {
	a, ok := fs.Getattr(fh)
	return a.Size, ok
}

// The vfs.Backend surface: FS's native methods pre-date the interface;
// the adapters below complete it.

// nominalTotalBytes is the capacity FSSTAT advertises for the
// unbounded in-memory store (1 TB — honest enough for clients that
// divide by it).
const nominalTotalBytes = 1 << 40

// Getattr returns an object's current attributes (vfs.Backend).
func (fs *FS) Getattr(fh nfsproto.FH) (vfs.Attr, bool) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	o, ok := fs.objs[fh]
	if !ok {
		return vfs.Attr{}, false
	}
	return o.attr(), true
}

// Access grants read/modify/extend on files and the directory mask on
// directories (vfs.Backend).
func (fs *FS) Access(fh nfsproto.FH, mask uint32) (uint32, bool) {
	a, ok := fs.Getattr(fh)
	if !ok {
		return 0, false
	}
	if a.Dir {
		return vfs.DirAccess(mask), true
	}
	return vfs.FileAccess(mask), true
}

// ReadAt is the vfs.Backend read: Read plus the file's current size.
// The in-memory store has no prefetch notion, so the read-ahead hint
// is ignored.
func (fs *FS) ReadAt(fh nfsproto.FH, off uint64, count uint32, ahead int) (data []byte, size uint64, eof bool, err error) {
	return fs.readAt(fh, off, count)
}

// WriteAt stores data at off (vfs.Backend).
func (fs *FS) WriteAt(fh nfsproto.FH, off uint64, data []byte) error {
	return fs.Write(fh, off, data)
}

// Commit is a no-op beyond handle validation: the page cache is the
// store, so data is as durable as it ever gets the moment WriteAt
// returns (vfs.Backend).
func (fs *FS) Commit(fh nfsproto.FH, off uint64, count uint32) error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if _, ok := fs.objs[fh]; !ok {
		return fmt.Errorf("%w: %d", vfs.ErrStale, fh)
	}
	return nil
}

// Fsstat reports a nominal 1 TB capacity less the bytes in use
// (vfs.Backend).
func (fs *FS) Fsstat() (total, free uint64) {
	fs.mu.RLock()
	var used uint64
	for _, o := range fs.objs {
		used += o.size
	}
	fs.mu.RUnlock()
	total = nominalTotalBytes
	if used > total {
		return total, 0
	}
	return total, total - used
}

// Client is a minimal NFS client over rpcnet for the live service.
// Safe for concurrent use by multiple goroutines: calls issued
// concurrently are pipelined over the one connection (rpcnet.Client
// demultiplexes replies by XID).
type Client struct {
	rpc *rpcnet.Client
	// retry, when non-nil, carries every call through the unified
	// retransmission layer (same-XID retransmits, Jacobson RTO,
	// exponential backoff) instead of single-shot Call.
	retry *rpcnet.Retrier
}

// DialClient connects to a live service at addr over network
// ("udp"/"tcp"). Calls are single-shot: a lost datagram surfaces as
// rpcnet.ErrReplyTimeout after the client timeout. Use DialClientRetry
// for a fault-tolerant path.
func DialClient(network, addr string) (*Client, error) {
	rc, err := rpcnet.Dial(network, addr, nfsproto.Program, nfsproto.Version3)
	if err != nil {
		return nil, err
	}
	return &Client{rpc: rc}, nil
}

// DialClientRetry is DialClient with the unified retry layer on every
// call: retransmission under the same XID (so a server-side duplicate
// request cache recognizes retries), RTT-estimated timeouts,
// exponential backoff and a major timeout after policy.MaxTransmits
// rounds.
func DialClientRetry(network, addr string, policy rpcnet.RetryPolicy) (*Client, error) {
	rc, err := rpcnet.Dial(network, addr, nfsproto.Program, nfsproto.Version3)
	if err != nil {
		return nil, err
	}
	return &Client{rpc: rc, retry: rc.NewRetrier(policy)}, nil
}

// Retrier exposes the client's retry layer (nil for a plain
// DialClient) — its Stats carry retransmit/major-timeout counts.
func (c *Client) Retrier() *rpcnet.Retrier { return c.retry }

// call routes one RPC through the retry layer when configured.
func (c *Client) call(proc uint32, args []byte) ([]byte, error) {
	if c.retry != nil {
		return c.retry.Call(proc, args)
	}
	return c.rpc.Call(proc, args)
}

// Close releases the transport.
func (c *Client) Close() error { return c.rpc.Close() }

// statusErr wraps a non-OK nfsstat3 so callers can branch on the code
// (errors.Is against the matching vfs sentinel where one exists).
type statusErr struct {
	op     string
	status uint32
}

func (e *statusErr) Error() string {
	return fmt.Sprintf("memfs: %s: status %d", e.op, e.status)
}

func (e *statusErr) Is(target error) bool {
	sentinel := vfs.StatusErr(e.status)
	return sentinel != nil && target == sentinel
}

func statusError(op string, status uint32) error {
	return &statusErr{op: op, status: status}
}

// Lookup resolves a name under dir and returns the handle and size.
func (c *Client) Lookup(dir nfsproto.FH, name string) (nfsproto.FH, int64, error) {
	body, err := c.call(nfsproto.ProcLookup,
		(&nfsproto.LookupArgs{Dir: dir, Name: name}).Marshal())
	if err != nil {
		return 0, 0, err
	}
	res, err := nfsproto.UnmarshalLookupRes(body)
	if err != nil {
		return 0, 0, err
	}
	if res.Status != nfsproto.OK {
		return 0, 0, statusError(fmt.Sprintf("lookup %q", name), res.Status)
	}
	var size int64
	if res.Attrs != nil {
		size = int64(res.Attrs.Size)
	}
	return res.FH, size, nil
}

// LookupPath resolves a "/"-separated path from the root.
func (c *Client) LookupPath(path string) (nfsproto.FH, int64, error) {
	fh, size := nfsproto.FH(RootFH), int64(0)
	for _, part := range strings.Split(path, "/") {
		if part == "" {
			continue
		}
		var err error
		fh, size, err = c.Lookup(fh, part)
		if err != nil {
			return 0, 0, err
		}
	}
	return fh, size, nil
}

// Read fetches count bytes at off.
func (c *Client) Read(fh nfsproto.FH, off uint64, count uint32) ([]byte, bool, error) {
	body, err := c.call(nfsproto.ProcRead,
		(&nfsproto.ReadArgs{FH: fh, Offset: off, Count: count}).Marshal())
	if err != nil {
		return nil, false, err
	}
	res, err := nfsproto.UnmarshalReadRes(body)
	if err != nil {
		return nil, false, err
	}
	if res.Status != nfsproto.OK {
		return nil, false, statusError("read", res.Status)
	}
	return res.Data, res.EOF, nil
}

// Write stores data at off with FILE_SYNC stability: the data is on
// stable storage when the call returns.
func (c *Client) Write(fh nfsproto.FH, off uint64, data []byte) error {
	_, err := c.WriteStable(fh, off, data, nfsproto.WriteFileSync)
	return err
}

// WriteStable stores data at off with the given stability level and
// returns the full reply (achieved stability, write verifier).
func (c *Client) WriteStable(fh nfsproto.FH, off uint64, data []byte, stable uint32) (*nfsproto.WriteRes, error) {
	body, err := c.call(nfsproto.ProcWrite,
		(&nfsproto.WriteArgs{FH: fh, Offset: off, Count: uint32(len(data)),
			Stable: stable, Data: data}).Marshal())
	if err != nil {
		return nil, err
	}
	res, err := nfsproto.UnmarshalWriteRes(body)
	if err != nil {
		return nil, err
	}
	if res.Status != nfsproto.OK {
		return nil, statusError("write", res.Status)
	}
	return res, nil
}

// WriteUnstable stores data at off with UNSTABLE stability — the
// server may buffer it until a COMMIT — and returns the server's write
// verifier. If a later Commit returns a different verifier, the server
// restarted in between and this write may be lost: re-send it.
func (c *Client) WriteUnstable(fh nfsproto.FH, off uint64, data []byte) (verf uint64, err error) {
	res, err := c.WriteStable(fh, off, data, nfsproto.WriteUnstable)
	if err != nil {
		return 0, err
	}
	return res.Verf, nil
}

// Commit flushes [off, off+count) — or the whole file when count is
// 0 — to stable storage and returns the server's write verifier.
func (c *Client) Commit(fh nfsproto.FH, off uint64, count uint32) (verf uint64, err error) {
	body, err := c.call(nfsproto.ProcCommit,
		(&nfsproto.CommitArgs{FH: fh, Offset: off, Count: count}).Marshal())
	if err != nil {
		return 0, err
	}
	res, err := nfsproto.UnmarshalCommitRes(body)
	if err != nil {
		return 0, err
	}
	if res.Status != nfsproto.OK {
		return 0, statusError("commit", res.Status)
	}
	return res.Verf, nil
}

// Access asks the server which of the mask's ACCESS3 bits it grants
// on fh.
func (c *Client) Access(fh nfsproto.FH, mask uint32) (granted uint32, err error) {
	body, err := c.call(nfsproto.ProcAccess,
		(&nfsproto.AccessArgs{FH: fh, Access: mask}).Marshal())
	if err != nil {
		return 0, err
	}
	res, err := nfsproto.UnmarshalAccessRes(body)
	if err != nil {
		return 0, err
	}
	if res.Status != nfsproto.OK {
		return 0, statusError("access", res.Status)
	}
	return res.Access, nil
}

// Fsstat fetches the server's total and free capacity in bytes.
func (c *Client) Fsstat(fh nfsproto.FH) (total, free uint64, err error) {
	body, err := c.call(nfsproto.ProcFsstat,
		(&nfsproto.FsstatArgs{FH: fh}).Marshal())
	if err != nil {
		return 0, 0, err
	}
	res, err := nfsproto.UnmarshalFsstatRes(body)
	if err != nil {
		return 0, 0, err
	}
	if res.Status != nfsproto.OK {
		return 0, 0, statusError("fsstat", res.Status)
	}
	return res.Tbytes, res.Fbytes, nil
}

// Create makes a zero-filled file of the given size under dir and
// returns its handle.
func (c *Client) Create(dir nfsproto.FH, name string, size uint64) (nfsproto.FH, error) {
	body, err := c.call(nfsproto.ProcCreate,
		(&nfsproto.CreateArgs{Dir: dir, Name: name, Size: size}).Marshal())
	if err != nil {
		return 0, err
	}
	res, err := nfsproto.UnmarshalCreateRes(body)
	if err != nil {
		return 0, err
	}
	if res.Status != nfsproto.OK {
		return 0, statusError(fmt.Sprintf("create %q", name), res.Status)
	}
	return res.FH, nil
}

// Mkdir creates a directory under dir and returns its handle.
func (c *Client) Mkdir(dir nfsproto.FH, name string) (nfsproto.FH, error) {
	body, err := c.call(nfsproto.ProcMkdir,
		(&nfsproto.MkdirArgs{Dir: dir, Name: name}).Marshal())
	if err != nil {
		return 0, err
	}
	res, err := nfsproto.UnmarshalMkdirRes(body)
	if err != nil {
		return 0, err
	}
	if res.Status != nfsproto.OK {
		return 0, statusError(fmt.Sprintf("mkdir %q", name), res.Status)
	}
	return res.FH, nil
}

// Remove unlinks name under dir (a directory must be empty).
func (c *Client) Remove(dir nfsproto.FH, name string) error {
	body, err := c.call(nfsproto.ProcRemove,
		(&nfsproto.RemoveArgs{Dir: dir, Name: name}).Marshal())
	if err != nil {
		return err
	}
	res, err := nfsproto.UnmarshalRemoveRes(body)
	if err != nil {
		return err
	}
	if res.Status != nfsproto.OK {
		return statusError(fmt.Sprintf("remove %q", name), res.Status)
	}
	return nil
}

// Rename moves fromDir/fromName to toDir/toName.
func (c *Client) Rename(fromDir nfsproto.FH, fromName string, toDir nfsproto.FH, toName string) error {
	body, err := c.call(nfsproto.ProcRename,
		(&nfsproto.RenameArgs{FromDir: fromDir, FromName: fromName,
			ToDir: toDir, ToName: toName}).Marshal())
	if err != nil {
		return err
	}
	res, err := nfsproto.UnmarshalRenameRes(body)
	if err != nil {
		return err
	}
	if res.Status != nfsproto.OK {
		return statusError(fmt.Sprintf("rename %q", fromName), res.Status)
	}
	return nil
}

// Setattr sets a file's size (truncate or zero-extend).
func (c *Client) Setattr(fh nfsproto.FH, size uint64) error {
	body, err := c.call(nfsproto.ProcSetattr,
		(&nfsproto.SetattrArgs{FH: fh, Size: size}).Marshal())
	if err != nil {
		return err
	}
	res, err := nfsproto.UnmarshalSetattrRes(body)
	if err != nil {
		return err
	}
	if res.Status != nfsproto.OK {
		return statusError("setattr", res.Status)
	}
	return nil
}

// Getattr fetches an object's attributes.
func (c *Client) Getattr(fh nfsproto.FH) (nfsproto.Fattr, error) {
	body, err := c.call(nfsproto.ProcGetattr,
		(&nfsproto.GetattrArgs{FH: fh}).Marshal())
	if err != nil {
		return nfsproto.Fattr{}, err
	}
	res, err := nfsproto.UnmarshalGetattrRes(body)
	if err != nil {
		return nfsproto.Fattr{}, err
	}
	if res.Status != nfsproto.OK {
		return nfsproto.Fattr{}, statusError("getattr", res.Status)
	}
	return res.Attrs, nil
}

// Readdir fetches one page of dir: entries with cookies greater than
// cookie, valid under cookieverf (0/0 starts a fresh scan). count is
// the reply-size budget in bytes. A stale verifier surfaces as an
// error matching vfs.ErrBadCookie — restart from 0/0.
func (c *Client) Readdir(dir nfsproto.FH, cookie, cookieverf uint64, count uint32) (*nfsproto.ReaddirRes, error) {
	body, err := c.call(nfsproto.ProcReaddir,
		(&nfsproto.ReaddirArgs{Dir: dir, Cookie: cookie, Cookieverf: cookieverf,
			Count: count}).Marshal())
	if err != nil {
		return nil, err
	}
	res, err := nfsproto.UnmarshalReaddirRes(body)
	if err != nil {
		return nil, err
	}
	if res.Status != nfsproto.OK {
		return nil, statusError("readdir", res.Status)
	}
	return res, nil
}

// readdirAllRestarts bounds full-scan restarts after ErrBadCookie in
// ReaddirAll; under sustained concurrent removal a scan could
// otherwise livelock.
const readdirAllRestarts = 8

// ErrReaddirRestarts is returned (wrapped) when ReaddirAll exhausts its
// restart budget: the directory mutated under every attempted scan.
// Callers distinguish this livelock from a transport or protocol
// failure with errors.Is.
var ErrReaddirRestarts = errors.New("memfs: readdir scan restart limit exceeded")

// ReaddirAll pages through dir with the given per-page reply budget
// and returns every entry. If a page resume hits a stale cookie
// verifier (an entry was removed mid-scan) the whole scan restarts
// from cookie 0, a bounded number of times — the RFC 1813 client
// recovery for NFS3ERR_BAD_COOKIE.
func (c *Client) ReaddirAll(dir nfsproto.FH, count uint32) ([]nfsproto.DirEntry, error) {
	var lastErr error
	for attempt := 0; attempt <= readdirAllRestarts; attempt++ {
		var all []nfsproto.DirEntry
		var cookie, verf uint64
		for {
			res, err := c.Readdir(dir, cookie, verf, count)
			if err != nil {
				if errors.Is(err, vfs.ErrBadCookie) {
					lastErr = err
					all = nil
					break // restart from scratch
				}
				return nil, err
			}
			all = append(all, res.Entries...)
			verf = res.Cookieverf
			if len(res.Entries) > 0 {
				cookie = res.Entries[len(res.Entries)-1].Cookie
			}
			if res.EOF {
				return all, nil
			}
			if len(res.Entries) == 0 {
				return nil, fmt.Errorf("memfs: readdir: empty page without EOF")
			}
		}
	}
	return nil, fmt.Errorf("%w: %d restarts: %w",
		ErrReaddirRestarts, readdirAllRestarts, lastErr)
}

// writeBehindTimeout bounds each reply wait inside WriteBehind; an
// expired wait hands the write to the retry layer (see settleOldest),
// so it is a retransmit interval, not a failure deadline.
const writeBehindTimeout = time.Second

// writeBehindPolicy is the retry policy a WriteBehind builds when its
// client has none: the bounds the old private retransmit loop used
// (three retries after the first transmission), expressed through the
// unified layer.
var writeBehindPolicy = rpcnet.RetryPolicy{
	MaxTransmits: 4,
	InitialRTO:   writeBehindTimeout,
}

// WriteBehind is a biod-style write-behind pipeline over one file: it
// issues UNSTABLE writes asynchronously (via the client's Go API, so a
// single goroutine's writes reach the transport in program order),
// keeps at most Window requests in flight, and retains every
// uncommitted write's data until a COMMIT confirms it reached stable
// storage under an unchanged write verifier. If the verifier changes —
// the server restarted and may have dropped buffered writes — Commit
// re-sends the retained writes with FILE_SYNC, exactly the recovery
// RFC 1813 prescribes for the asynchronous write path.
//
// WriteBehind is not safe for concurrent use; it models one writing
// process (the kernel would run one biod pipeline per dirty file).
type WriteBehind struct {
	c      *Client
	fh     nfsproto.FH
	window int
	// retry settles timed-out writes: the client's own retry layer when
	// it has one, else a pipeline-private retrier with the write-behind
	// defaults. WRITE is idempotent, so retransmission is always safe.
	retry *rpcnet.Retrier

	inflight []pendingWrite // issued, reply not yet consumed
	retained []retainedWrite
	verf     uint64
	haveVerf bool
	stale    bool // a reply carried a different verifier
	err      error
}

// pendingWrite is one in-flight UNSTABLE write. data aliases the
// retained copy, so a retransmission needs no further copy.
type pendingWrite struct {
	p    *rpcnet.Pending
	off  uint64
	data []byte
}

// retainedWrite holds a write's data until a COMMIT confirms it.
type retainedWrite struct {
	off  uint64
	data []byte
}

// NewWriteBehind starts a write-behind pipeline on fh with the given
// in-flight window (<= 0 means 8).
func (c *Client) NewWriteBehind(fh nfsproto.FH, window int) *WriteBehind {
	if window <= 0 {
		window = 8
	}
	retry := c.retry
	if retry == nil {
		retry = c.rpc.NewRetrier(writeBehindPolicy)
	}
	return &WriteBehind{c: c, fh: fh, window: window, retry: retry}
}

// Write issues one UNSTABLE write of data at off, blocking only when
// the in-flight window is full (it then settles the oldest reply). The
// data is copied, so the caller may reuse the slice.
func (w *WriteBehind) Write(off uint64, data []byte) error {
	if w.err != nil {
		return w.err
	}
	if len(w.inflight) >= w.window {
		w.settleOldest()
		if w.err != nil {
			return w.err
		}
	}
	kept := append([]byte(nil), data...)
	w.retained = append(w.retained, retainedWrite{off: off, data: kept})
	args := &nfsproto.WriteArgs{FH: w.fh, Offset: off, Count: uint32(len(data)),
		Stable: nfsproto.WriteUnstable, Data: data}
	w.inflight = append(w.inflight, pendingWrite{
		p: w.c.rpc.Go(nfsproto.ProcWrite, args.Marshal()), off: off, data: kept})
	return nil
}

// settleOldest consumes the oldest in-flight reply, recording the
// verifier it carried. A reply wait that times out triggers the
// classic NFS-over-UDP recovery: WRITEs are idempotent, so the write
// is handed to the unified retry layer — same-XID retransmissions with
// backoff until a reply or a major timeout. A dropped request or reply
// datagram costs a retransmit interval, not the pipeline.
func (w *WriteBehind) settleOldest() {
	pw := w.inflight[0]
	w.inflight = w.inflight[1:]
	body, err := pw.p.Wait(writeBehindTimeout)
	if err != nil && errors.Is(err, rpcnet.ErrReplyTimeout) {
		args := &nfsproto.WriteArgs{FH: w.fh, Offset: pw.off,
			Count: uint32(len(pw.data)), Stable: nfsproto.WriteUnstable,
			Data: pw.data}
		body, err = w.retry.Call(nfsproto.ProcWrite, args.Marshal())
	}
	if err != nil {
		w.err = err
		return
	}
	res, err := nfsproto.UnmarshalWriteRes(body)
	if err != nil {
		w.err = err
		return
	}
	if res.Status != nfsproto.OK {
		w.err = fmt.Errorf("memfs: write-behind at %d: status %d", pw.off, res.Status)
		return
	}
	w.observeVerf(res.Verf)
}

// observeVerf folds one reply's verifier into the pipeline's view.
func (w *WriteBehind) observeVerf(verf uint64) {
	if w.haveVerf && verf != w.verf {
		w.stale = true
	}
	w.verf, w.haveVerf = verf, true
}

// Flush settles every in-flight write (without committing).
func (w *WriteBehind) Flush() error {
	for len(w.inflight) > 0 && w.err == nil {
		w.settleOldest()
	}
	return w.err
}

// Commit drains the pipeline, COMMITs the file and verifies the write
// verifier: if any reply (or the COMMIT itself) reported a verifier
// different from the one the retained writes were issued under, the
// server may have dropped them, so they are re-sent with FILE_SYNC
// before returning. On success the retained set is released and the
// server's current verifier returned.
func (w *WriteBehind) Commit() (verf uint64, err error) {
	if err := w.Flush(); err != nil {
		return 0, err
	}
	verf, err = w.c.Commit(w.fh, 0, 0)
	if err != nil {
		return 0, err
	}
	if w.stale || (w.haveVerf && verf != w.verf) {
		// Verifier changed: every uncommitted write may be lost.
		// Re-send stable (no second COMMIT needed) and clear the flag.
		for _, r := range w.retained {
			if _, err := w.c.WriteStable(w.fh, r.off, r.data, nfsproto.WriteFileSync); err != nil {
				return 0, fmt.Errorf("memfs: write-behind rewrite at %d: %w", r.off, err)
			}
		}
		w.stale = false
	}
	w.retained = nil
	w.verf, w.haveVerf = verf, true
	return verf, nil
}

// Retained reports how many writes are held awaiting COMMIT
// confirmation (diagnostics for tests and benchmarks).
func (w *WriteBehind) Retained() int { return len(w.retained) }
