package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"nfstricks/internal/nfsproto"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/vfs"
)

// read-seq inputs: a file set that fits in memory, read sequentially
// in 8 KB READs by two closed-loop connections. The set is 8 MB: with
// 32 MB, making it (the seeded bytes and memfs's copy, page faults and
// all) was the noisiest part of set-up, taking 117 to 192 ms in six
// processes in a row.
const (
	readSeqFiles    = 8
	readSeqFileSize = 1 << 20
	readSize        = 8 << 10
	readSeqConns    = 2
)

// seqFile is one served file and the bytes the benchmark generated for
// it from the seed (kept apart from the server's copy).
type seqFile struct {
	fh   nfsproto.FH
	want []byte
}

// seqReader is one connection's closed-loop reader. It reads its files
// (every readSeqConns-th one) front to back, then starts over.
type seqReader struct {
	conn  int32
	c     *rpcnet.Client
	files []int
	file  int // index into files
	off   uint64
	args  []byte

	replies    int64
	bytes      int64
	mismatches int64
	eofErrs    int64
	firstErr   string
}

type readSeq struct {
	srv     *liveServer
	tr      *tracer
	files   []seqFile
	readers []*seqReader
}

// seededBytes fills n bytes from a PCG stream keyed by (seed, stream).
func seededBytes(seed int64, stream uint64, n int) []byte {
	r := rand.New(rand.NewPCG(uint64(seed), stream))
	b := make([]byte, n)
	for i := 0; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.Uint64())
	}
	return b
}

func (w *readSeq) setup(cfg config, tr *tracer) error {
	w.tr = tr
	srv, err := startServer(liveConfig{}, tr)
	if err != nil {
		return err
	}
	w.srv = srv
	for i := 0; i < readSeqFiles; i++ {
		data := seededBytes(cfg.seed, uint64(i), readSeqFileSize)
		fh, err := srv.fs.Create(vfs.RootFH, fmt.Sprintf("seq%02d", i), data)
		if err != nil {
			return err
		}
		w.files = append(w.files, seqFile{fh: fh, want: data})
	}
	for c := 0; c < readSeqConns; c++ {
		cl, err := srv.dial()
		if err != nil {
			return err
		}
		r := &seqReader{conn: int32(c), c: cl}
		for i := c; i < readSeqFiles; i += readSeqConns {
			r.files = append(r.files, i)
		}
		w.readers = append(w.readers, r)
	}
	// Warm-up: each connection reads each of its files once.
	for _, r := range w.readers {
		for n := 0; n < len(r.files)*readSeqFileSize/readSize; n++ {
			if _, err := r.readOne(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// readOne issues the reader's next READ, checks the reply against the
// generated bytes and returns the client-observed latency in µs.
func (r *seqReader) readOne(w *readSeq) (float64, error) {
	f := &w.files[r.files[r.file]]
	off := r.off
	t0 := nowNS()
	r.args = (&nfsproto.ReadArgs{FH: f.fh, Offset: off, Count: readSize}).AppendTo(r.args[:0])
	t1 := nowNS()
	body, err := r.c.Call(nfsproto.ProcRead, r.args)
	t2 := nowNS()
	if err != nil {
		return 0, err
	}
	res, err := nfsproto.UnmarshalReadRes(body)
	t3 := nowNS()
	if err != nil {
		return 0, err
	}
	w.tr.client(nfsproto.ProcRead, r.conn, t0, t1, t2, t3)
	if res.Status != nfsproto.OK {
		return 0, fmt.Errorf("READ %d@%d: status %d", f.fh, off, res.Status)
	}
	r.replies++
	r.bytes += int64(len(res.Data))
	end := off + readSize
	if !bytes.Equal(res.Data, f.want[off:end]) {
		r.mismatches++
		if r.firstErr == "" {
			r.firstErr = fmt.Sprintf("fh %d off %d: reply differs from the seeded bytes", f.fh, off)
		}
	}
	if res.EOF != (end == uint64(len(f.want))) {
		r.eofErrs++
	}
	r.off = end
	if r.off >= uint64(len(f.want)) {
		r.off = 0
		r.file = (r.file + 1) % len(r.files)
	}
	return float64(t3-t0) / 1e3, nil
}

func (w *readSeq) measure(d time.Duration) (phase, error) {
	var wg sync.WaitGroup
	lats := make([][]float64, len(w.readers))
	ats := make([][]int64, len(w.readers))
	var at []int64
	errs := make([]error, len(w.readers))
	counts := make([]int64, len(w.readers))
	start := time.Now()
	deadline := start.Add(d)
	for i, r := range w.readers {
		wg.Add(1)
		go func(i int, r *seqReader) {
			defer wg.Done()
			lat := make([]float64, 0, 1<<16)
			at := make([]int64, 0, 1<<16)
			for time.Now().Before(deadline) {
				us, err := r.readOne(w)
				counts[i]++
				if err != nil {
					errs[i] = err
					return
				}
				lat = append(lat, us)
				at = append(at, nowNS())
			}
			lats[i], ats[i] = lat, at
		}(i, r)
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start)}
	for i := range w.readers {
		p.attempted += counts[i]
		if errs[i] != nil {
			return p, errs[i]
		}
		p.lat = append(p.lat, lats[i]...)
		at = append(at, ats[i]...)
	}
	p.ops = int64(len(p.lat))
	p.rates = windowRates(at, 10)
	mbs := float64(p.ops) * readSize / 1e6 / p.elapsed.Seconds()
	p.figures = append([]figure{{"read_mb_s", mbs, "MB/s"}}, tails("read", "us", p.lat, 1)...)
	return p, nil
}

func (w *readSeq) layers() map[string]float64 { return serviceLayers(w.srv.svc) }

func (w *readSeq) finish() []check {
	var replies, tally, mism, eof int64
	first := ""
	for _, r := range w.readers {
		replies += r.replies
		tally += r.bytes
		mism += r.mismatches
		eof += r.eofErrs
		if first == "" {
			first = r.firstErr
		}
		r.c.Close()
	}
	served := w.srv.svc.Stats().BytesRead
	w.srv.close()
	return []check{
		checkReplies(replies, mism, first),
		checkEOF(replies, eof),
		checkTally("client bytes read equal svc.Stats().BytesRead", tally, served),
	}
}

// windowRates splits the span of the completion times at into n equal
// windows and returns each window's completions per second.
func windowRates(at []int64, n int) []float64 {
	if len(at) < 2 {
		return nil
	}
	lo, hi := at[0], at[0]
	for _, t := range at {
		lo, hi = min(lo, t), max(hi, t)
	}
	width := (hi - lo) / int64(n)
	if width <= 0 {
		return nil
	}
	counts := make([]int64, n)
	for _, t := range at {
		counts[min(int((t-lo)/width), n-1)]++
	}
	rates := make([]float64, n)
	for i, c := range counts {
		rates[i] = float64(c) / (float64(width) / 1e9)
	}
	return rates
}

// epoch anchors nowNS.
var epoch = time.Now()

// nowNS is a monotonic clock in nanoseconds.
func nowNS() int64 { return int64(time.Since(epoch)) }
