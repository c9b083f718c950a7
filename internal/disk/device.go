package disk

import (
	"time"

	"nfstricks/internal/sim"
)

// Request is one disk command: a contiguous sector run to read or write.
type Request struct {
	LBA     int64
	Sectors int
	Write   bool
	// Done is invoked (in kernel event context) when the command
	// completes.
	Done func(*Request)

	queuedAt time.Duration // when the device accepted the command
}

// Pos implements iosched.Item.
func (r *Request) Pos() int64 { return r.LBA }

// end returns the LBA just past the request.
func (r *Request) end() int64 { return r.LBA + int64(r.Sectors) }

// segment tracks one sequential stream in the drive's buffer, emulating
// the multi-segment read cache real drives use. The head can only be in
// one place, so a stream's buffer fills exclusively while the drive
// idles on that stream (firmware keeps reading the current track after
// a command completes). Returning to a stream whose buffer has run dry
// costs a mechanical reposition.
type segment struct {
	next    int64 // LBA the stream's consumed data has reached
	fill    int64 // sectors buffered (prefetched) beyond next
	lastUse int64 // LRU clock
}

// maxSkipSectors is how far ahead of a tracked stream a request may land
// and still be treated as the same stream (the media passes over the
// gap). 128 KB covers file-system metadata holes and small strides.
const maxSkipSectors = 256

// NumSegments is the number of concurrent sequential streams the drive's
// buffer can track.
const NumSegments = 8

// segBufSectors caps one segment's prefetch buffer (256 KB — a slice of
// the drive's 2-4 MB cache).
const segBufSectors = 512

// Stats aggregates device-level counters.
type Stats struct {
	Commands     int64
	SectorsMoved int64
	Streamed     int64 // continued the stream under the head (media rate)
	CacheHits    int64 // served from a segment's prefetch buffer
	Repositions  int64 // paid seek + rotational latency
	Reordered    int64 // TCQ serviced a command ahead of an older one
	BusyTime     time.Duration
}

// Device is a simulated drive. Commands are accepted via Start and
// complete asynchronously via Request.Done. With TCQ enabled the device
// queues up to QueueDepth commands and services them in
// shortest-positioning-time-first order with an aging bonus (bounded
// starvation); with TCQ disabled it services strictly in arrival order,
// leaving scheduling decisions to the host.
type Device struct {
	k   *sim.Kernel
	m   *Model
	tcq bool

	queue    []*Request
	busy     bool
	headCyl  int
	lastEnd  int64
	segments []*segment
	curSeg   *segment // stream the head is physically positioned on
	lastSeg  *segment // stream most recently serviced (gets idle prefetch)
	idleFrom time.Duration
	useClock int64

	stats Stats
}

// NewDevice returns an idle device for model m bound to kernel k. TCQ
// starts enabled if the model supports it (FreeBSD's default behaviour).
func NewDevice(k *sim.Kernel, m *Model) *Device {
	return &Device{k: k, m: m, tcq: m.SupportsTCQ, lastEnd: -1}
}

// Model returns the device's performance model.
func (d *Device) Model() *Model { return d.m }

// SetTCQ enables or disables the tagged command queue. Disabling it on a
// model without TCQ support is a no-op (it is already off).
func (d *Device) SetTCQ(on bool) { d.tcq = on && d.m.SupportsTCQ }

// TCQ reports whether the tagged command queue is active.
func (d *Device) TCQ() bool { return d.tcq }

// QueueDepth reports how many commands the device will accept at once.
func (d *Device) QueueDepth() int {
	if d.tcq {
		return d.m.QueueDepth
	}
	return 1
}

// Stats returns a copy of the device counters.
func (d *Device) Stats() Stats { return d.stats }

// HeadLBA reports the approximate current head position as an LBA (the
// end of the last serviced command), for host schedulers.
func (d *Device) HeadLBA() int64 {
	if d.lastEnd < 0 {
		return 0
	}
	return d.lastEnd
}

// Start accepts a command. The caller (host driver) is responsible for
// respecting QueueDepth; the device itself queues without limit.
func (d *Device) Start(r *Request) {
	if r.Sectors <= 0 {
		panic("disk: request with no sectors")
	}
	r.queuedAt = d.k.Now()
	d.queue = append(d.queue, r)
	if !d.busy {
		d.creditIdlePrefetch()
		d.serviceNext()
	}
}

// creditIdlePrefetch converts the time the drive sat idle into prefetch
// buffer for the most recently serviced stream: firmware keeps reading
// ahead of the last access while it waits for the next command. This is
// what makes latency-bound multi-stream workloads (like the paper's
// synchronous stride reads) run at buffer speed, while a saturated
// drive switching between streams pays a reposition on every switch.
func (d *Device) creditIdlePrefetch() {
	if d.lastSeg == nil {
		return
	}
	idle := d.k.Now() - d.idleFrom
	if idle <= 0 {
		return
	}
	rate := d.m.MediaRateAt(d.lastSeg.next) // bytes/sec
	gained := int64(float64(idle) / float64(time.Second) * rate / SectorSize)
	d.lastSeg.fill += gained
	if d.lastSeg.fill > segBufSectors {
		d.lastSeg.fill = segBufSectors
	}
}

// serviceNext picks the next queued command, computes its service time,
// and schedules its completion.
func (d *Device) serviceNext() {
	idx := 0
	if d.tcq && len(d.queue) > 1 {
		idx = d.pickTCQ()
	}
	if idx != 0 {
		d.stats.Reordered++
	}
	r := d.queue[idx]
	d.queue = append(d.queue[:idx], d.queue[idx+1:]...)

	svc := d.serviceTime(r, true)
	d.busy = true
	d.stats.Commands++
	d.stats.SectorsMoved += int64(r.Sectors)
	d.stats.BusyTime += svc
	d.k.Schedule(svc, func() {
		d.headCyl = d.m.Geo.CylinderOf(r.end() - 1)
		d.lastEnd = r.end()
		d.busy = false
		d.idleFrom = d.k.Now()
		if r.Done != nil {
			r.Done(r)
		}
		if len(d.queue) > 0 && !d.busy {
			d.serviceNext()
		}
	})
}

// findSegment returns the tracked stream that request r continues, or
// nil.
func (d *Device) findSegment(r *Request) *segment {
	for _, s := range d.segments {
		if r.LBA >= s.next && r.LBA-s.next <= maxSkipSectors {
			return s
		}
	}
	return nil
}

// serviceTime computes the time to execute r from the current head
// state. When commit is true the segment table and hit/miss stats are
// updated; the TCQ picker calls it with commit=false to cost candidates.
func (d *Device) serviceTime(r *Request, commit bool) time.Duration {
	seg := d.findSegment(r)
	span := int64(0)
	if seg != nil {
		span = r.end() - seg.next
	}

	switch {
	case seg != nil && seg == d.curSeg:
		// The head is on this stream: keep streaming at media rate over
		// the gap (if any) and the requested sectors.
		t := d.m.CommandOverhead/2 + d.m.TransferTime(seg.next, int(span))
		if commit {
			d.useClock++
			seg.next = r.end()
			seg.fill = 0
			seg.lastUse = d.useClock
			d.lastSeg = seg
			d.stats.Streamed++
		}
		return t

	case seg != nil && span <= seg.fill:
		// The data was prefetched into this stream's buffer while the
		// drive idled on it earlier: serve at the host interface rate
		// with no mechanical work. The head does not move.
		bytes := float64(r.Sectors) * SectorSize
		t := d.m.CommandOverhead/2 +
			time.Duration(bytes/d.m.InterfaceRate()*float64(time.Second))
		if commit {
			d.useClock++
			seg.next = r.end()
			seg.fill -= span
			seg.lastUse = d.useClock
			d.lastSeg = seg
			d.stats.CacheHits++
		}
		return t
	}

	// Reposition: seek, rotational latency, media transfer.
	cyl := d.m.Geo.CylinderOf(r.LBA)
	t := d.m.CommandOverhead + d.m.SeekTime(d.headCyl, cyl)
	if commit {
		// Rotational latency: uniformly distributed target angle.
		t += time.Duration(d.k.Rand().Int63n(int64(d.m.RevTime())))
	} else {
		t += d.m.avgRotational()
	}
	t += d.m.TransferTime(r.LBA, r.Sectors)
	if commit {
		d.useClock++
		if seg != nil {
			seg.next = r.end()
			seg.fill = 0
			seg.lastUse = d.useClock
			d.curSeg = seg
		} else {
			d.curSeg = d.touchSegment(r)
		}
		d.lastSeg = d.curSeg
		d.stats.Repositions++
	}
	return t
}

// touchSegment records r as the head of a (possibly new) tracked stream,
// recycling the least recently used slot when full.
func (d *Device) touchSegment(r *Request) *segment {
	if len(d.segments) < NumSegments {
		s := &segment{next: r.end(), lastUse: d.useClock}
		d.segments = append(d.segments, s)
		return s
	}
	lru := d.segments[0]
	for _, s := range d.segments[1:] {
		if s.lastUse < lru.lastUse {
			lru = s
		}
	}
	lru.next = r.end()
	lru.fill = 0
	lru.lastUse = d.useClock
	return lru
}

// pickTCQ chooses the queued command with the lowest effective
// positioning cost, where cost is discounted by age (starvation bound).
// This emulates on-disk firmware schedulers, which the paper observes to
// be fairer than the host's elevator at the price of breaking up long
// sequential runs.
func (d *Device) pickTCQ() int {
	now := d.k.Now()
	best := 0
	bestCost := float64(0)
	for i, r := range d.queue {
		cost := float64(d.positioningCost(r))
		age := float64(now - r.queuedAt)
		cost -= age * d.m.TCQAging
		if i == 0 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	return best
}

// positioningCost estimates the mechanical delay (excluding transfer) to
// begin servicing r.
func (d *Device) positioningCost(r *Request) time.Duration {
	if seg := d.findSegment(r); seg != nil {
		if seg == d.curSeg || r.end()-seg.next <= seg.fill {
			return d.m.TransferTime(seg.next, int(r.LBA-seg.next))
		}
	}
	cyl := d.m.Geo.CylinderOf(r.LBA)
	return d.m.SeekTime(d.headCyl, cyl) + d.m.avgRotational()
}
