package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/vfs"
)

// write-commit inputs: fixed-size files rewritten in batches of
// UNSTABLE 8 KB writes through one memfs.WriteBehind pipeline per file,
// each batch COMMITted and then read back, on one connection.
const (
	wcFiles        = 2
	wcFileSize     = 4 << 20
	wcBatch        = 32 // writes per batch (256 KB)
	wcInFlight     = 8  // write-behind window
	wcGatherWindow = 2 * time.Millisecond
	wcPoolBlocks   = 64
)

// wcFile is one rewritten file: its pipeline, the benchmark's model of
// its contents, and where the next batch starts.
type wcFile struct {
	fh    nfsproto.FH
	wb    *memfs.WriteBehind
	image []byte
	next  uint64
	gen   uint32
}

type writeCommit struct {
	srv   *liveServer
	tr    *tracer
	c     *memfs.Client
	files []*wcFile
	pool  [][]byte // seeded block contents
	seed  int64
	turn  int    // file the next batch goes to
	block []byte // scratch for one write's payload

	sent       int64 // bytes handed to WRITE
	readbacks  int64
	mismatches int64
	firstErr   string
}

func (w *writeCommit) setup(cfg config, tr *tracer) error {
	w.tr, w.seed = tr, cfg.seed
	srv, err := startServer(liveConfig{gatherWindow: wcGatherWindow}, tr)
	if err != nil {
		return err
	}
	w.srv = srv
	for i := 0; i < wcPoolBlocks; i++ {
		w.pool = append(w.pool, seededBytes(cfg.seed, 1000+uint64(i), readSize))
	}
	w.block = make([]byte, readSize)
	c, err := memfs.DialClient("tcp", srv.addr)
	if err != nil {
		return err
	}
	w.c = c
	for i := 0; i < wcFiles; i++ {
		fh, err := srv.fs.CreateSized(vfs.RootFH, fmt.Sprintf("wc%02d", i), wcFileSize)
		if err != nil {
			return err
		}
		w.files = append(w.files, &wcFile{fh: fh, wb: c.NewWriteBehind(fh, wcInFlight),
			image: make([]byte, wcFileSize)})
	}
	// Warm-up: sixteen batches, eight per file.
	for i := 0; i < 16; i++ {
		if _, _, err := w.batch(); err != nil {
			return err
		}
	}
	return nil
}

// payload builds the block written at (file, off, gen): a seeded pool
// block stamped with its coordinates, so every write carries distinct
// bytes and a misplaced or stale block cannot pass the read-back.
func (w *writeCommit) payload(file int, off uint64, gen uint32) []byte {
	k := (uint64(w.seed)*31 + uint64(file)*7 + off/readSize + uint64(gen)*13) % wcPoolBlocks
	b := w.block
	copy(b, w.pool[k])
	binary.LittleEndian.PutUint64(b[0:], off)
	binary.LittleEndian.PutUint32(b[8:], uint32(file))
	binary.LittleEndian.PutUint32(b[12:], gen)
	return b
}

// batch writes wcBatch blocks to the next file through its pipeline,
// COMMITs, and reads every block back. It returns the batch latency
// (first WRITE to COMMIT reply) and the read-back latencies, in µs.
func (w *writeCommit) batch() (float64, []float64, error) {
	fi := w.turn
	f := w.files[fi]
	w.turn = (w.turn + 1) % len(w.files)
	start := f.next
	t0 := nowNS()
	for k := 0; k < wcBatch; k++ {
		off := f.next
		data := w.payload(fi, off, f.gen)
		if w.tr.recording() {
			e0 := nowNS()
			(&nfsproto.WriteArgs{FH: f.fh, Offset: off, Count: readSize,
				Stable: nfsproto.WriteUnstable, Data: data}).Marshal()
			w.tr.codec(kindEncode, nfsproto.ProcWrite, e0, nowNS())
		}
		if err := f.wb.Write(off, data); err != nil {
			return 0, nil, err
		}
		copy(f.image[off:], data)
		w.sent += readSize
		f.next += readSize
		if f.next >= wcFileSize {
			f.next = 0
			f.gen++
		}
	}
	if w.tr.recording() {
		e0 := nowNS()
		(&nfsproto.CommitArgs{FH: f.fh}).Marshal()
		w.tr.codec(kindEncode, nfsproto.ProcCommit, e0, nowNS())
	}
	if _, err := f.wb.Commit(); err != nil {
		return 0, nil, err
	}
	batchUS := float64(nowNS()-t0) / 1e3

	reads := make([]float64, 0, wcBatch)
	off := start
	for k := 0; k < wcBatch; k++ {
		if w.tr.recording() {
			e0 := nowNS()
			(&nfsproto.ReadArgs{FH: f.fh, Offset: off, Count: readSize}).Marshal()
			w.tr.codec(kindEncode, nfsproto.ProcRead, e0, nowNS())
		}
		r0 := nowNS()
		got, _, err := w.c.Read(f.fh, off, readSize)
		r1 := nowNS()
		if err != nil {
			return 0, nil, err
		}
		w.tr.client(nfsproto.ProcRead, 0, r0, r0, r1, r1)
		reads = append(reads, float64(r1-r0)/1e3)
		w.readbacks++
		if !bytes.Equal(got, f.image[off:off+readSize]) {
			w.mismatches++
			if w.firstErr == "" {
				w.firstErr = fmt.Sprintf("fh %d off %d: read-back differs from the written pattern", f.fh, off)
			}
		}
		off = (off + readSize) % wcFileSize
	}
	return batchUS, reads, nil
}

func (w *writeCommit) measure(d time.Duration) (phase, error) {
	var p phase
	var reads []float64
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		c0 := nowNS()
		us, rb, err := w.batch()
		// One batch is wcBatch WRITEs, a COMMIT and wcBatch READs.
		p.attempted += 2*wcBatch + 1
		if err != nil {
			p.elapsed = time.Since(start)
			return p, err
		}
		p.lat = append(p.lat, us)
		p.rates = append(p.rates, wcBatch/(float64(nowNS()-c0)/1e9))
		reads = append(reads, rb...)
		p.ops += wcBatch
	}
	p.elapsed = time.Since(start)
	p.figures = append([]figure{
		{"write_mb_s", float64(p.ops) * readSize / 1e6 / p.elapsed.Seconds(), "MB/s"},
	}, tails("write_batch", "ms", p.lat, 1e3)...)
	p.figures = append(p.figures, tails("readback", "us", reads, 1)...)
	return p, nil
}

func (w *writeCommit) layers() map[string]float64 { return serviceLayers(w.srv.svc) }

func (w *writeCommit) finish() []check {
	w.c.Close()
	images := make([][]byte, len(w.files))
	stored := make([][]byte, len(w.files))
	for i, f := range w.files {
		images[i] = f.image
		stored[i], _, _ = w.srv.fs.Read(f.fh, 0, wcFileSize)
	}
	dirty := w.srv.svc.WriteStats().DirtyBytes
	written := w.srv.svc.Stats().BytesWritten
	w.srv.close()
	return []check{
		checkReplies(w.readbacks, w.mismatches, w.firstErr),
		checkImages(images, stored),
		pass("no dirty bytes after the last COMMIT", dirty == 0, "engine holds %d dirty bytes", dirty),
		checkTally("bytes sent equal svc.Stats().BytesWritten", w.sent, written),
	}
}
