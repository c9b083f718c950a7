// Package readahead implements the sequentiality heuristics the paper
// studies: the FreeBSD 4.x default (reset on any out-of-order request),
// the paper's SlowDown heuristic (§6.2), a hard-wired "Always
// Read-ahead" reference, and the cursor-based heuristic for stride
// access patterns (§7). Heuristics are pure state machines over a
// per-file State record; the nfsheur table (package nfsheur) decides
// which files get to keep such a record at all.
package readahead

import "sync"

// SeqMax is the ceiling on the sequentiality count. The paper notes the
// count "is never allowed to grow higher than 127, due to the
// implementation of the lower levels of the operating system"
// (FreeBSD's IO_SEQMAX).
const SeqMax = 127

// JitterWindow is how far an offset may deviate from the predicted one
// and still be treated as request-reordering jitter rather than a
// non-sequential access: "within 64k (eight 8k NFS blocks)" (§6.2).
const JitterWindow = 64 * 1024

// DefaultCursors is the per-file cursor limit for the cursor heuristic.
// The paper uses "a small and constant number of cursors" per file
// handle (§8); eight covers its 8-stride experiments.
const DefaultCursors = 8

// State is the per-file-handle sequentiality record: the information
// FreeBSD keeps in an nfsheur slot. Cursors is used only by the Cursor
// heuristic. Frontier tracks how far (in blocks) prefetch has been
// issued for the stream, so the read path issues read-ahead in large
// clustered bursts instead of one block at a time.
type State struct {
	NextOff  uint64 // predicted offset of the next sequential read
	SeqCount int    // current sequentiality count (0..SeqMax)
	Frontier uint64 // prefetch frontier in blocks
	Cursors  []Cursor
}

// Cursor is one tracked sequential sub-stream within a file (§7): its
// own predicted offset, sequentiality count and prefetch frontier, plus
// an LRU stamp.
type Cursor struct {
	NextOff  uint64
	SeqCount int
	Frontier uint64
	lastUse  int64
}

// Reset returns the state to the "newly observed file" condition the
// table installs on (re)insertion: seqcount starts at 1.
func (s *State) Reset() {
	s.NextOff = 0
	s.SeqCount = 1
	s.Frontier = 0
	s.Cursors = s.Cursors[:0]
}

// Heuristic computes the sequentiality count to use for a read and
// updates the per-file state. The stateless heuristics (Default,
// SlowDown, Always) are safe for concurrent use; CursorHeuristic keeps
// cross-call state and is not — concurrent servers give each lock
// domain its own instance via Fork.
type Heuristic interface {
	// Name identifies the heuristic, e.g. "slowdown".
	Name() string
	// Update records a read of length bytes at offset off against s and
	// returns the seqcount the server should use for read-ahead sizing.
	Update(s *State, off, length uint64) int
	// Frontier returns the prefetch frontier of the stream the most
	// recent Update matched. It must be called immediately after Update
	// on the same state (the cursor heuristic remembers which cursor
	// matched). The caller reads and advances the frontier as it issues
	// read-ahead.
	Frontier(s *State) *uint64
}

// Forker is implemented by heuristics that carry cross-call state and
// therefore must not be shared between goroutines: Fork returns a fresh
// instance with the same configuration but no accumulated state.
type Forker interface {
	Fork() Heuristic
}

// Fork returns a heuristic equivalent to h that is safe to use from one
// additional lock domain: Forker implementations are copied, known
// stateless ones are returned as-is, and unknown implementations are
// wrapped in a lock (see ForkN).
func Fork(h Heuristic) Heuristic {
	return ForkN(h, 1)[0]
}

// ForkN returns n heuristics for n independent lock domains (e.g. the
// shards of an nfsheur table): Forker implementations are forked per
// domain, the known-stateless heuristics are shared as-is, and any
// other implementation — possibly stateful, from outside this package —
// is shared behind one mutex, preserving the serialized-but-safe
// behavior such heuristics had when servers held a single global lock.
func ForkN(h Heuristic, n int) []Heuristic {
	out := make([]Heuristic, n)
	switch h.(type) {
	case Default, SlowDown, Always:
		for i := range out {
			out[i] = h
		}
		return out
	}
	if f, ok := h.(Forker); ok {
		for i := range out {
			out[i] = f.Fork()
		}
		return out
	}
	l := &lockedHeuristic{h: h}
	for i := range out {
		out[i] = l
	}
	return out
}

// lockedHeuristic serializes calls to an unknown heuristic
// implementation. Note the Frontier-follows-Update pairing is only
// meaningful per goroutine; interleaved callers get each call
// individually serialized, nothing more.
type lockedHeuristic struct {
	mu sync.Mutex
	h  Heuristic
}

func (l *lockedHeuristic) Name() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.h.Name()
}

func (l *lockedHeuristic) Update(s *State, off, length uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.h.Update(s, off, length)
}

func (l *lockedHeuristic) Frontier(s *State) *uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.h.Frontier(s)
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// Default is the FreeBSD 4.x heuristic the paper starts from: an access
// at exactly the predicted offset increments seqcount; any other access
// resets it to 1 — so "read-ahead can be disabled by a small percentage
// of out-of-order requests" (§1).
type Default struct{}

// Name implements Heuristic.
func (Default) Name() string { return "default" }

// Frontier implements Heuristic.
func (Default) Frontier(s *State) *uint64 { return &s.Frontier }

// Update implements Heuristic.
func (Default) Update(s *State, off, length uint64) int {
	if off == s.NextOff {
		s.SeqCount++
		if s.SeqCount > SeqMax {
			s.SeqCount = SeqMax
		}
	} else {
		s.SeqCount = 1
	}
	s.NextOff = off + length
	return s.SeqCount
}

// SlowDown is the paper's §6.2 heuristic: "allow the sequentiality index
// to rise in the same manner as the ordinary heuristic, but fall less
// rapidly." Exact matches increment; offsets within JitterWindow of the
// prediction leave the count unchanged (it may just be jitter); larger
// jumps halve it — additive-increase/multiplicative-decrease, as the
// paper's analogy to TCP congestion control suggests.
type SlowDown struct{}

// Name implements Heuristic.
func (SlowDown) Name() string { return "slowdown" }

// Frontier implements Heuristic.
func (SlowDown) Frontier(s *State) *uint64 { return &s.Frontier }

// Update implements Heuristic.
func (SlowDown) Update(s *State, off, length uint64) int {
	updateSlowDown(&s.NextOff, &s.SeqCount, off, length)
	return s.SeqCount
}

// updateSlowDown is the shared AIMD step, also used per-cursor.
func updateSlowDown(nextOff *uint64, seqCount *int, off, length uint64) {
	switch {
	case off == *nextOff:
		*seqCount++
		if *seqCount > SeqMax {
			*seqCount = SeqMax
		}
		*nextOff = off + length
	case absDiff(off, *nextOff) <= JitterWindow:
		// Possibly reordering jitter: leave the count alone. Track the
		// farthest point seen so the stream can re-synchronize once the
		// reordered requests have all arrived.
		if off+length > *nextOff {
			*nextOff = off + length
		}
	default:
		*seqCount /= 2
		if *seqCount < 1 {
			*seqCount = 1
		}
		*nextOff = off + length
	}
}

// Always hard-wires the maximum count: the paper's "Always Read-ahead"
// upper-bound configuration (§6.1).
type Always struct{}

// Name implements Heuristic.
func (Always) Name() string { return "always" }

// Frontier implements Heuristic.
func (Always) Frontier(s *State) *uint64 { return &s.Frontier }

// Update implements Heuristic.
func (Always) Update(s *State, off, length uint64) int {
	s.NextOff = off + length
	s.SeqCount = SeqMax
	return SeqMax
}

// CursorHeuristic detects sequential sub-streams within one file (§7):
// stride readers and concurrent readers of a shared file. Each read is
// matched (within JitterWindow, like SlowDown) against a small set of
// per-file cursors; an unmatched read allocates a cursor, recycling the
// least recently used one past the limit. Truly random access creates
// cursors whose counts never grow, so no extra read-ahead is performed.
type CursorHeuristic struct {
	// MaxCursors limits cursors per file (DefaultCursors if zero).
	MaxCursors int

	clock   int64
	lastIdx int // cursor the most recent Update matched or created
}

// Name implements Heuristic.
func (c *CursorHeuristic) Name() string { return "cursor" }

// Fork implements Forker: a fresh heuristic with the same cursor limit
// and no clock/match state, for per-shard use by concurrent servers.
func (c *CursorHeuristic) Fork() Heuristic {
	return &CursorHeuristic{MaxCursors: c.MaxCursors}
}

// Frontier implements Heuristic. It returns the frontier of the cursor
// the immediately preceding Update call touched, falling back to the
// whole-file frontier if the state has no cursors (never the case after
// an Update).
func (c *CursorHeuristic) Frontier(s *State) *uint64 {
	if c.lastIdx >= 0 && c.lastIdx < len(s.Cursors) {
		return &s.Cursors[c.lastIdx].Frontier
	}
	return &s.Frontier
}

// Update implements Heuristic.
func (c *CursorHeuristic) Update(s *State, off, length uint64) int {
	maxCur := c.MaxCursors
	if maxCur <= 0 {
		maxCur = DefaultCursors
	}
	c.clock++

	// Find the closest cursor within the match window.
	best := -1
	var bestDist uint64
	for i := range s.Cursors {
		d := absDiff(off, s.Cursors[i].NextOff)
		if d <= JitterWindow && (best == -1 || d < bestDist) {
			best, bestDist = i, d
		}
	}
	if best >= 0 {
		cur := &s.Cursors[best]
		updateSlowDown(&cur.NextOff, &cur.SeqCount, off, length)
		cur.lastUse = c.clock
		c.lastIdx = best
		return cur.SeqCount
	}

	// No match: start a new cursor, recycling the LRU slot when full.
	nc := Cursor{NextOff: off + length, SeqCount: 1, lastUse: c.clock}
	if len(s.Cursors) < maxCur {
		s.Cursors = append(s.Cursors, nc)
		c.lastIdx = len(s.Cursors) - 1
		return nc.SeqCount
	}
	lru := 0
	for i := 1; i < len(s.Cursors); i++ {
		if s.Cursors[i].lastUse < s.Cursors[lru].lastUse {
			lru = i
		}
	}
	s.Cursors[lru] = nc
	c.lastIdx = lru
	return nc.SeqCount
}

// DefaultMaxWindow is the NFS servers' default cap on one READ's
// read-ahead window, in blocks (32 blocks = 256 KB).
const DefaultMaxWindow = 32

// Window converts a sequentiality count into a read-ahead window in
// blocks, capped at maxBlocks. It mirrors how FreeBSD feeds seqcount
// into cluster_read: more confidence, more read-ahead; a count of zero
// or one asks for no speculation beyond the demanded block.
func Window(seqCount, maxBlocks int) int {
	if seqCount <= 1 {
		return 0
	}
	w := seqCount
	if w > maxBlocks {
		w = maxBlocks
	}
	return w
}
