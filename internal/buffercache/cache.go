// Package buffercache implements a block buffer cache over a disk
// driver: LRU replacement, coalescing of duplicate in-flight reads, and
// clustered asynchronous read-ahead. It plays the role of the FreeBSD
// buffer cache + cluster_read machinery in the paper's server: the
// sequentiality heuristics upstream only decide *how much* read-ahead to
// request; this package turns that into large contiguous disk commands.
package buffercache

import (
	"container/list"

	"nfstricks/internal/disk"
	"nfstricks/internal/sim"
)

// BlockSize is the file-system and NFS block size (8 KB, the paper's
// request granularity).
const BlockSize = 8192

// SectorsPerBlock is BlockSize expressed in disk sectors.
const SectorsPerBlock = BlockSize / disk.SectorSize

// MaxClusterBlocks caps how many blocks a single disk command may cover
// (64 KB, FreeBSD's MAXPHYS-era clustering for this hardware class).
const MaxClusterBlocks = 8

// Stats aggregates cache counters.
type Stats struct {
	Hits       int64 // reads satisfied from cache
	Misses     int64 // reads that had to touch the disk
	InFlight   int64 // reads that joined an already-issued fetch
	ReadAheads int64 // blocks fetched speculatively
	Clusters   int64 // disk commands issued
	Evictions  int64
	Writes     int64
}

// Cache is a block cache keyed by LBA. All methods must be called from
// simulation context (process or event callback as documented).
type Cache struct {
	k        *sim.Kernel
	dr       *disk.Driver
	capacity int // in blocks

	lru      *list.List              // of int64 LBA, front = most recent
	entries  map[int64]*list.Element // lba -> lru element
	inflight map[int64]*sim.Event    // lba -> completion event

	stats Stats
}

// New returns a cache of capacityBlocks blocks backed by dr.
func New(k *sim.Kernel, dr *disk.Driver, capacityBlocks int) *Cache {
	if capacityBlocks < 1 {
		capacityBlocks = 1
	}
	return &Cache{
		k:        k,
		dr:       dr,
		capacity: capacityBlocks,
		lru:      list.New(),
		entries:  make(map[int64]*list.Element),
		inflight: make(map[int64]*sim.Event),
	}
}

// Driver returns the underlying disk driver.
func (c *Cache) Driver() *disk.Driver { return c.dr }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Len reports the number of cached blocks.
func (c *Cache) Len() int { return c.lru.Len() }

// Contains reports whether the block at lba is resident.
func (c *Cache) Contains(lba int64) bool {
	_, ok := c.entries[lba]
	return ok
}

// Flush drops every cached block (the paper's "defeating the cache"
// step between benchmark runs). In-flight fetches are left to complete;
// their blocks will be inserted when they land.
func (c *Cache) Flush() {
	c.lru.Init()
	c.entries = make(map[int64]*list.Element)
}

// Read returns once the block at lba is resident, blocking p on a disk
// fetch if needed. It counts as a demand (non-speculative) access.
func (c *Cache) Read(p *sim.Proc, lba int64) {
	if el, ok := c.entries[lba]; ok {
		c.lru.MoveToFront(el)
		c.stats.Hits++
		return
	}
	if ev, ok := c.inflight[lba]; ok {
		c.stats.InFlight++
		ev.Wait(p)
		return
	}
	c.stats.Misses++
	ev := c.issue(lba, 1)
	ev.Wait(p)
}

// ReadAhead ensures the n blocks starting at lba are resident or being
// fetched, issuing clustered disk commands for the gaps. It never
// blocks; safe from both processes and event callbacks.
func (c *Cache) ReadAhead(lba int64, n int) {
	c.FetchSpan(lba, n, 0)
}

// FetchSpan is ReadAhead over a span whose first demand blocks are
// what the workload actually asked for: those count as hits/misses
// (in-flight joins included) while the tail counts as speculative
// read-ahead — but the whole span clusters together, so demand and
// read-ahead share disk commands exactly as cluster_read would issue
// them. It never blocks.
func (c *Cache) FetchSpan(lba int64, n, demand int) {
	runStart := int64(-1)
	runLen := 0
	flush := func() {
		if runLen == 0 {
			return
		}
		c.issue(runStart, runLen)
		runStart, runLen = -1, 0
	}
	for i := 0; i < n; i++ {
		b := lba + int64(i)*SectorsPerBlock
		speculative := i >= demand
		_, cached := c.entries[b]
		_, fetching := c.inflight[b]
		if cached || fetching {
			if !speculative {
				if cached {
					c.stats.Hits++
				} else {
					c.stats.InFlight++
				}
			}
			flush()
			continue
		}
		if speculative {
			c.stats.ReadAheads++
		} else {
			c.stats.Misses++
		}
		if runLen == 0 {
			runStart = b
		}
		runLen++
		if runLen == MaxClusterBlocks {
			flush()
		}
	}
	flush()
}

// Install marks the block at lba resident without any disk traffic —
// a dirty page entering the cache from a write system call rather than
// a fetch. The block is subject to normal LRU eviction; durability is
// the caller's problem (Write, or zonefs's Commit, issues the actual
// disk command).
func (c *Cache) Install(lba int64) {
	c.insert(lba)
}

// Write installs the block at lba as dirty and schedules an asynchronous
// write-through to disk (enough fidelity for the paper's read-dominated
// workloads and the WRITE extension).
func (c *Cache) Write(lba int64) {
	c.stats.Writes++
	c.insert(lba)
	c.dr.Submit(&disk.Request{LBA: lba, Sectors: SectorsPerBlock, Write: true})
}

// issue submits one clustered read of n blocks at lba and registers the
// in-flight entries. It returns the completion event.
func (c *Cache) issue(lba int64, n int) *sim.Event {
	ev := sim.NewEvent(c.k)
	for i := 0; i < n; i++ {
		c.inflight[lba+int64(i)*SectorsPerBlock] = ev
	}
	c.stats.Clusters++
	c.dr.Submit(&disk.Request{
		LBA:     lba,
		Sectors: n * SectorsPerBlock,
		Done: func(r *disk.Request) {
			for i := 0; i < n; i++ {
				b := lba + int64(i)*SectorsPerBlock
				delete(c.inflight, b)
				c.insert(b)
			}
			ev.Fire()
		},
	})
	return ev
}

// insert adds lba to the cache, evicting from the LRU tail if full.
func (c *Cache) insert(lba int64) {
	if el, ok := c.entries[lba]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.entries[lba] = c.lru.PushFront(lba)
	for c.lru.Len() > c.capacity {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.entries, tail.Value.(int64))
		c.stats.Evictions++
	}
}
