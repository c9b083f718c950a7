package rpcnet

import (
	"net"
	"sync"
	"time"
)

// request is one received call on its way from a read loop to a worker:
// the pooled buffer holding it, the message, the injected inbound hold to
// apply before decoding, and the identity stamped on arrival.
type request struct {
	bp   *[]byte
	msg  []byte
	hold time.Duration
	ev   *TapEvent
	info CallInfo
	from *net.UDPAddr // datagram source; nil on TCP
}

// workers is the reused set of dispatch goroutines behind one read loop:
// each TCP connection has one, and the server one for all datagrams. A
// worker serves a request, then parks for the next, so the dispatch
// chain runs on a stack that has already grown instead of a fresh
// goroutine per request. The set has no bound: a request never waits for
// another request's dispatch, exactly as with a goroutine per request.
type workers struct {
	wg *sync.WaitGroup
	// idle is unbuffered, so a send succeeds only into a parked worker.
	idle  chan request
	serve func(request)
}

// newWorkers returns an empty set whose workers run serve and join wg
// (the server's), so Close drains in-flight requests: that is what lets
// a shutdown trust that the final stats and the capture tap saw every
// served RPC.
func newWorkers(wg *sync.WaitGroup, serve func(request)) *workers {
	return &workers{wg: wg, idle: make(chan request), serve: serve}
}

// dispatch hands r to a parked worker, or starts a new one when none is
// parked. Only the read loop that owns the set calls dispatch and stop;
// it holds its own count on wg, so the Add here cannot race a wait that
// already reached zero.
func (w *workers) dispatch(r request) {
	select {
	case w.idle <- r:
	default:
		w.wg.Add(1)
		go w.run(r)
	}
}

func (w *workers) run(r request) {
	defer w.wg.Done()
	for {
		w.serve(r)
		var ok bool
		if r, ok = <-w.idle; !ok {
			return
		}
	}
}

// stop lets every worker exit once its current request is served.
func (w *workers) stop() { close(w.idle) }
