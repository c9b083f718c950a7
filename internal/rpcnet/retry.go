// The unified client retry layer. NFS-over-UDP's reliability IS this
// loop: the transport never retransmits, so the RPC client must —
// resend the same call under the same XID, back off exponentially, and
// give up ("major timeout", the kernel client's term) after enough
// rounds. The initial wait comes from a Jacobson-style RTT estimator
// (srtt/rttvar, RTO = srtt + 4·rttvar) with Karn's rule (never sample
// RTT from a call that was retransmitted — the reply's provenance is
// ambiguous), so a fast loopback path retries in milliseconds while a
// slow path isn't spammed. Same-XID retransmission is the contract the
// server's duplicate request cache matches on; this layer replaces the
// ad-hoc retransmit loop that used to live inside memfs.WriteBehind.

package rpcnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"nfstricks/internal/obs"
)

// ErrMajorTimeout marks a call abandoned after RetryPolicy.MaxTransmits
// transmissions went unanswered. It wraps the final round's error, so
// errors.Is also matches ErrReplyTimeout (lossy/silent path) or
// ErrSendFailed (dead server) — whichever ended the call.
var ErrMajorTimeout = errors.New("rpcnet: major timeout")

// RetryPolicy parameterizes a Retrier. The zero value gets kernel-ish
// defaults: 5 transmissions, 500ms initial RTO before any RTT sample,
// RTO clamped to [100ms, 10s], 10% jitter.
type RetryPolicy struct {
	// MaxTransmits is the total number of transmissions per call (the
	// original plus retransmissions) before a major timeout.
	MaxTransmits int
	// InitialRTO is used until the estimator has an RTT sample.
	InitialRTO time.Duration
	// MinRTO and MaxRTO clamp every wait, estimated or backed off.
	MinRTO, MaxRTO time.Duration
	// Jitter spreads each wait uniformly over [rto, rto*(1+Jitter)] so
	// concurrent losers don't retransmit in lockstep.
	Jitter float64
	// Seed makes the jitter sequence reproducible (0 = seed 1).
	Seed int64
}

func (p RetryPolicy) filled() RetryPolicy {
	if p.MaxTransmits <= 0 {
		p.MaxTransmits = 5
	}
	if p.InitialRTO <= 0 {
		p.InitialRTO = 500 * time.Millisecond
	}
	if p.MinRTO <= 0 {
		p.MinRTO = 100 * time.Millisecond
	}
	if p.MaxRTO <= 0 {
		p.MaxRTO = 10 * time.Second
	}
	if p.MaxRTO < p.MinRTO {
		p.MaxRTO = p.MinRTO
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	return p
}

// RetryStats counts a Retrier's activity.
type RetryStats struct {
	Calls         int64 // calls issued through the retrier
	Retransmits   int64 // extra transmissions beyond the first
	MajorTimeouts int64 // calls abandoned after MaxTransmits
	SendFailures  int64 // transmissions that died at the socket
}

// String renders the counters compactly.
func (s RetryStats) String() string {
	return fmt.Sprintf("calls=%d retrans=%d major=%d sendfail=%d",
		s.Calls, s.Retransmits, s.MajorTimeouts, s.SendFailures)
}

// Retrier performs RPCs with retransmission on one Client. Safe for
// concurrent use; concurrent calls pipeline exactly like Client.Call,
// each with its own retransmit schedule. The RTT estimate is shared —
// one path, one estimator.
type Retrier struct {
	c *Client
	p RetryPolicy

	mu           sync.Mutex
	rng          *rand.Rand
	srtt, rttvar time.Duration // 0 srtt = no sample yet

	calls, retransmits, majors, sendFails atomic.Int64
}

// NewRetrier wraps the client in a retry layer with the given policy.
func (c *Client) NewRetrier(p RetryPolicy) *Retrier {
	p = p.filled()
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	return &Retrier{c: c, p: p, rng: rand.New(rand.NewSource(seed))}
}

// Stats returns a snapshot of the retrier's counters.
func (r *Retrier) Stats() RetryStats {
	return RetryStats{
		Calls:         r.calls.Load(),
		Retransmits:   r.retransmits.Load(),
		MajorTimeouts: r.majors.Load(),
		SendFailures:  r.sendFails.Load(),
	}
}

// RegisterObs exposes the retrier's counters and its current
// (clamped) retransmission timeout in a metrics registry. The
// counters are CounterFuncs over the same atomics Stats() reads, so a
// scrape mid-experiment is exact; the RTO gauge is what the next
// fresh call would wait — srtt + 4·rttvar clamped to the policy
// window, or InitialRTO before the first sample. Fault-path cells
// register their retrier here so a run's retransmit story lands in
// /metrics next to the throughput it explains.
func (r *Retrier) RegisterObs(reg *obs.Registry) {
	reg.CounterFunc("rpcnet_retry_calls_total", r.calls.Load)
	reg.CounterFunc("rpcnet_retry_retransmits_total", r.retransmits.Load)
	reg.CounterFunc("rpcnet_retry_major_timeouts_total", r.majors.Load)
	reg.CounterFunc("rpcnet_retry_send_failures_total", r.sendFails.Load)
	reg.GaugeFunc("rpcnet_retry_rto_seconds", func() float64 {
		return r.initialRTO().Seconds()
	})
}

// RTT returns the estimator state: smoothed RTT and variance (both zero
// before the first sample).
func (r *Retrier) RTT() (srtt, rttvar time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.srtt, r.rttvar
}

// observe feeds one clean RTT sample to the Jacobson estimator.
func (r *Retrier) observe(rtt time.Duration) {
	r.mu.Lock()
	if r.srtt == 0 {
		r.srtt = rtt
		r.rttvar = rtt / 2
	} else {
		d := r.srtt - rtt
		if d < 0 {
			d = -d
		}
		r.rttvar = (3*r.rttvar + d) / 4
		r.srtt = (7*r.srtt + rtt) / 8
	}
	r.mu.Unlock()
}

// clamp bounds a wait to the policy window.
func (r *Retrier) clamp(d time.Duration) time.Duration {
	if d < r.p.MinRTO {
		return r.p.MinRTO
	}
	if d > r.p.MaxRTO {
		return r.p.MaxRTO
	}
	return d
}

// initialRTO computes a fresh call's first wait from the estimator.
func (r *Retrier) initialRTO() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.srtt == 0 {
		return r.clamp(r.p.InitialRTO)
	}
	return r.clamp(r.srtt + 4*r.rttvar)
}

// jittered spreads d over [d, d*(1+Jitter)].
func (r *Retrier) jittered(d time.Duration) time.Duration {
	if r.p.Jitter <= 0 {
		return d
	}
	r.mu.Lock()
	f := r.rng.Float64()
	r.mu.Unlock()
	return d + time.Duration(f*r.p.Jitter*float64(d))
}

// Call performs one RPC with retransmission: up to MaxTransmits sends
// of the same XID, waiting an RTT-estimated, exponentially backed-off,
// jittered interval after each. A send failure (ErrSendFailed — e.g.
// ECONNREFUSED from a restarting server) is retried on the same
// schedule rather than returned: on UDP it is no more final than a
// lost datagram. Exhaustion returns an error wrapping ErrMajorTimeout
// and the final round's cause.
func (r *Retrier) Call(proc uint32, args []byte) ([]byte, error) {
	r.calls.Add(1)
	c := r.c
	xid := c.xid.Add(1)
	ch, err := c.register(xid)
	if err != nil {
		return nil, err
	}
	rto := r.initialRTO()
	var lastCause error
	for attempt := 0; attempt < r.p.MaxTransmits; attempt++ {
		if attempt > 0 {
			r.retransmits.Add(1)
		}
		// Each transmission re-marshals the call: send recycles the
		// buffer after its write, but the XID — the identity the
		// server's DRC matches on — is the same every time.
		sent := time.Now()
		cause := c.send(c.marshalCallXID(xid, proc, args), nil)
		if cause != nil {
			if c.failed() != nil {
				// Closed, or a dead TCP stream: nothing can complete.
				c.abandon(xid, ch)
				return nil, cause
			}
			// The datagram died at the socket (the peer may be
			// rebooting): wait out the backoff a lost one would get.
			r.sendFails.Add(1)
		}
		t := acquireTimer(r.jittered(rto))
		select {
		case reply := <-ch:
			releaseTimer(t)
			// Terminal: a real reply, an RPC-level reject, or a dead
			// transport. The channel's one send is consumed — recycle.
			replyChans.Put(ch)
			if reply.err == nil && attempt == 0 {
				// Karn's rule: only calls answered on their first
				// transmission yield an RTT sample.
				r.observe(time.Since(sent))
			}
			return reply.body, reply.err
		case <-t.C:
			if cause == nil {
				cause = fmt.Errorf("%w: no reply within %v", ErrReplyTimeout, rto)
			}
			lastCause = cause
			rto = r.clamp(rto * 2)
		}
	}
	r.majors.Add(1)
	c.abandon(xid, ch)
	return nil, fmt.Errorf("%w after %d transmits: %w", ErrMajorTimeout, r.p.MaxTransmits, lastCause)
}
