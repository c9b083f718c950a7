// Fault injection for the live RPC path. The paper's UDP-vs-TCP
// comparisons are really comparisons of failure behaviour — what
// happens when a datagram is lost and the client retransmits — but a
// loopback socket never loses anything. FaultInjector makes the live
// transports lossy on purpose: a deterministic, seeded policy plugged
// into the server's two wire directions (requests in, replies out),
// deciding per message whether to drop, delay, duplicate or truncate a
// datagram (UDP) or to stall mid-record or reset the connection (TCP),
// with per-direction counters
// so every experiment can report exactly what faults were injected —
// the controlled fault load the benchmarking-crimes literature demands
// instead of "we ran it on a busy network".

package rpcnet

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FaultConfig parameterizes a FaultInjector. All probabilities are per
// message (a datagram on UDP, a record on TCP), applied independently
// in each direction the injector is wired into. The zero value injects
// nothing.
type FaultConfig struct {
	// Seed makes the decision sequence reproducible (0 = seed 1).
	// Decisions are drawn in message-arrival order; under concurrency
	// the interleaving of messages is the scheduler's, but a single
	// serialized stream replays bit-identically.
	Seed int64

	// UDP datagram faults.
	DropProb     float64       // lose the datagram entirely
	DupProb      float64       // deliver/send it twice
	DelayProb    float64       // hold it for DelayMin..DelayMax (also reorders)
	DelayMin     time.Duration // default 1ms
	DelayMax     time.Duration // default 4*DelayMin
	TruncateProb float64       // cut the datagram short: garbage on the wire

	// TCP record faults.
	StallProb float64       // pause mid-record for Stall (a congested path)
	Stall     time.Duration // default 50ms
	ResetProb float64       // close the connection instead of completing the record
}

// enabled reports whether any fault has nonzero probability.
func (c FaultConfig) enabled() bool {
	return c.DropProb > 0 || c.DupProb > 0 || c.DelayProb > 0 ||
		c.TruncateProb > 0 || c.StallProb > 0 || c.ResetProb > 0
}

// Directions for FaultStats: inbound is the requests the server
// receives, outbound the replies it sends.
const (
	DirIn = iota
	DirOut
)

// FaultStats counts injected faults in one direction. Messages counts
// every message the injector examined, faulted or not.
type FaultStats struct {
	Messages  int64
	Drops     int64
	Dups      int64
	Delays    int64
	Truncates int64
	Stalls    int64
	Resets    int64
}

// Total sums the injected faults (Messages excluded).
func (s FaultStats) Total() int64 {
	return s.Drops + s.Dups + s.Delays + s.Truncates + s.Stalls + s.Resets
}

// String renders the counters compactly.
func (s FaultStats) String() string {
	return fmt.Sprintf("msgs=%d drop=%d dup=%d delay=%d trunc=%d stall=%d reset=%d",
		s.Messages, s.Drops, s.Dups, s.Delays, s.Truncates, s.Stalls, s.Resets)
}

// faultCounters is the atomic backing of one direction's FaultStats.
type faultCounters struct {
	messages, drops, dups, delays, truncates, stalls, resets atomic.Int64
}

func (c *faultCounters) snapshot() FaultStats {
	return FaultStats{
		Messages:  c.messages.Load(),
		Drops:     c.drops.Load(),
		Dups:      c.dups.Load(),
		Delays:    c.delays.Load(),
		Truncates: c.truncates.Load(),
		Stalls:    c.stalls.Load(),
		Resets:    c.resets.Load(),
	}
}

// FaultInjector draws per-message fault decisions from a seeded stream.
// The server consults it from every connection and datagram handler; the
// decision stream is serialized under a mutex, the counters are
// atomics. Safe for concurrent use.
type FaultInjector struct {
	cfg FaultConfig

	mu  sync.Mutex
	rng *rand.Rand

	dirs [2]faultCounters
}

// NewFaultInjector builds an injector for cfg (nil-safe to not build:
// every rpcnet hook treats a nil *FaultInjector as a perfect network).
func NewFaultInjector(cfg FaultConfig) *FaultInjector {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	if cfg.DelayMin <= 0 {
		cfg.DelayMin = time.Millisecond
	}
	if cfg.DelayMax < cfg.DelayMin {
		cfg.DelayMax = 4 * cfg.DelayMin
	}
	if cfg.Stall <= 0 {
		cfg.Stall = 50 * time.Millisecond
	}
	return &FaultInjector{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Config returns the injector's (defaulted) configuration.
func (f *FaultInjector) Config() FaultConfig { return f.cfg }

// Stats returns one direction's counters (DirIn or DirOut).
func (f *FaultInjector) Stats(dir int) FaultStats {
	if f == nil {
		return FaultStats{}
	}
	return f.dirs[dir&1].snapshot()
}

// faultAction is one message's fate. The zero value delivers the
// message untouched.
type faultAction struct {
	drop     bool
	dup      bool
	delay    time.Duration
	truncate int // new length, -1 = intact
	stall    time.Duration
	reset    bool
}

// datagram decides a UDP message's fate. size is the datagram length
// (bounds the truncation point).
func (f *FaultInjector) datagram(dir, size int) faultAction {
	act := faultAction{truncate: -1}
	if f == nil {
		return act
	}
	c := &f.dirs[dir&1]
	c.messages.Add(1)
	f.mu.Lock()
	// One draw per configured fault class, in fixed order, so the
	// decision stream depends only on the seed and message count.
	if f.cfg.DropProb > 0 && f.rng.Float64() < f.cfg.DropProb {
		act.drop = true
	}
	if f.cfg.DupProb > 0 && f.rng.Float64() < f.cfg.DupProb {
		act.dup = true
	}
	if f.cfg.DelayProb > 0 && f.rng.Float64() < f.cfg.DelayProb {
		span := f.cfg.DelayMax - f.cfg.DelayMin
		act.delay = f.cfg.DelayMin
		if span > 0 {
			act.delay += time.Duration(f.rng.Int63n(int64(span)))
		}
	}
	if f.cfg.TruncateProb > 0 && size > 0 && f.rng.Float64() < f.cfg.TruncateProb {
		act.truncate = f.rng.Intn(size)
	}
	f.mu.Unlock()
	if act.drop {
		// A dropped message is dropped; the other decisions were still
		// drawn (the stream shape must not depend on outcomes).
		act.dup, act.delay, act.truncate = false, 0, -1
		c.drops.Add(1)
		return act
	}
	if act.dup {
		c.dups.Add(1)
	}
	if act.delay > 0 {
		c.delays.Add(1)
	}
	if act.truncate >= 0 {
		c.truncates.Add(1)
	}
	return act
}

// record decides a TCP record's fate.
func (f *FaultInjector) record(dir int) faultAction {
	act := faultAction{truncate: -1}
	if f == nil {
		return act
	}
	c := &f.dirs[dir&1]
	c.messages.Add(1)
	f.mu.Lock()
	if f.cfg.ResetProb > 0 && f.rng.Float64() < f.cfg.ResetProb {
		act.reset = true
	}
	if f.cfg.StallProb > 0 && f.rng.Float64() < f.cfg.StallProb {
		act.stall = f.cfg.Stall
	}
	f.mu.Unlock()
	if act.reset {
		act.stall = 0
		c.resets.Add(1)
		return act
	}
	if act.stall > 0 {
		c.stalls.Add(1)
	}
	return act
}

// ParseFaultSpec parses a comma-separated fault specification, the CLI
// syntax of -fault:
//
//	drop=0.05,dup=0.01,delay=0.02:1ms-5ms,trunc=0.01,stall=0.05:20ms,reset=0.001
//
// Each clause is fault=probability; delay and stall accept an optional
// :duration suffix (delay takes a min-max range). An empty string is a
// perfect network.
func ParseFaultSpec(spec string) (FaultConfig, error) {
	var cfg FaultConfig
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, clause := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(clause), "=")
		if !ok {
			return cfg, fmt.Errorf("rpcnet: fault clause %q: want fault=prob", clause)
		}
		val, extra, hasExtra := strings.Cut(val, ":")
		p, err := strconv.ParseFloat(val, 64)
		if err != nil || p < 0 || p > 1 {
			return cfg, fmt.Errorf("rpcnet: fault %s: bad probability %q", name, val)
		}
		switch name {
		case "drop":
			cfg.DropProb = p
		case "dup":
			cfg.DupProb = p
		case "delay":
			cfg.DelayProb = p
			if hasExtra {
				lo, hi, isRange := strings.Cut(extra, "-")
				if cfg.DelayMin, err = time.ParseDuration(lo); err != nil {
					return cfg, fmt.Errorf("rpcnet: fault delay: bad duration %q", lo)
				}
				if isRange {
					if cfg.DelayMax, err = time.ParseDuration(hi); err != nil {
						return cfg, fmt.Errorf("rpcnet: fault delay: bad duration %q", hi)
					}
				}
				hasExtra = false
			}
		case "trunc":
			cfg.TruncateProb = p
		case "stall":
			cfg.StallProb = p
			if hasExtra {
				if cfg.Stall, err = time.ParseDuration(extra); err != nil {
					return cfg, fmt.Errorf("rpcnet: fault stall: bad duration %q", extra)
				}
				hasExtra = false
			}
		case "reset":
			cfg.ResetProb = p
		default:
			return cfg, fmt.Errorf("rpcnet: unknown fault %q (want drop, dup, delay, trunc, stall or reset)", name)
		}
		if hasExtra {
			return cfg, fmt.Errorf("rpcnet: fault %s takes no :%s suffix", name, extra)
		}
	}
	return cfg, nil
}
