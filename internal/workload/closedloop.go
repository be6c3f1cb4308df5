package workload

import (
	"fmt"

	"agilepkgc/internal/sim"
	"agilepkgc/internal/stats"
)

// ClosedLoopClient models a fixed population of synchronous client
// threads (sysbench threads, one mutilate connection in closed mode):
// each thread issues a request, waits for the response, thinks for a
// sampled delay, and repeats. Unlike the open-loop Generator, offered
// load self-throttles under server slowdown — the behaviour that
// distinguishes benchmark harnesses from production traffic.
//
// ClosedLoopClient is a Source: thread i issues its requests on
// connection i, and the sink's owner signals each response by handing
// the request back through Release, which is what sends the thread on
// req.Conn into its think time.
type ClosedLoopClient struct {
	eng     *sim.Engine
	rng     *stats.RNG
	service stats.Dist
	think   stats.Dist
	threads int
	memAcc  int

	sink func(*Request)

	nextID    uint64
	completed uint64
	stopped   bool

	// issueFns holds each thread's issue closure, created once by the
	// first Start so the steady-state think/issue cycle schedules
	// without allocating; nil until the threads are launched.
	issueFns []func()
	free     []*Request // handed back via Release, reused by later issues
}

// NewClosedLoopClient builds a client with the given thread count; sink
// receives each request at its issue instant.
func NewClosedLoopClient(eng *sim.Engine, threads int, service, think stats.Dist,
	memAccesses int, seed uint64, sink func(*Request)) *ClosedLoopClient {
	if sink == nil {
		panic("workload: nil sink")
	}
	if threads <= 0 {
		panic("workload: non-positive thread count")
	}
	return &ClosedLoopClient{
		eng:     eng,
		rng:     stats.NewRNG(seed),
		service: service,
		think:   think,
		threads: threads,
		memAcc:  memAccesses,
		sink:    sink,
	}
}

// Start launches every thread with an initial desynchronizing think on
// its first call and does nothing on later calls: a thread population
// has no arrival chain to restart, and it keeps issuing past until —
// closed-loop load ends only at Stop.
func (c *ClosedLoopClient) Start(until sim.Time) {
	if c.issueFns != nil {
		return
	}
	c.issueFns = make([]func(), c.threads)
	for i := range c.issueFns {
		conn := i
		c.issueFns[i] = func() { c.issue(conn) }
		c.eng.Schedule(c.sampleThink(), c.issueFns[i])
	}
}

// Stop prevents threads from issuing further requests after their
// current one completes.
func (c *ClosedLoopClient) Stop() { c.stopped = true }

// Completed returns the number of finished requests.
func (c *ClosedLoopClient) Completed() uint64 { return c.completed }

// Generated returns the number of issued requests.
func (c *ClosedLoopClient) Generated() uint64 { return c.nextID }

// Release is the completion signal: the response to req has reached
// its thread, which thinks and then issues again (unless stopped). The
// request goes back to the client's pool for reuse by a later issue, so
// the caller must not touch it afterwards.
//
//apcvet:poolput
//apcvet:noalloc
func (c *ClosedLoopClient) Release(req *Request) {
	conn := req.Conn
	c.free = append(c.free, req)
	c.completed++
	if c.stopped {
		return
	}
	c.eng.Schedule(c.sampleThink(), c.issueFns[conn])
}

//apcvet:noalloc
func (c *ClosedLoopClient) sampleThink() sim.Duration {
	d := sim.Duration(c.think.Sample(c.rng) * float64(sim.Second))
	if d < 0 {
		d = 0
	}
	return d
}

//apcvet:noalloc
func (c *ClosedLoopClient) issue(conn int) {
	if c.stopped {
		return
	}
	var req *Request
	if n := len(c.free); n > 0 {
		req = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		req = new(Request) //apcvet:alloc pool miss: warm-up until every thread's request is pooled
	}
	*req = Request{
		ID:          c.nextID,
		Arrival:     c.eng.Now(),
		Service:     sim.Duration(c.service.Sample(c.rng) * float64(sim.Second)),
		Conn:        conn,
		MemAccesses: c.memAcc,
	}
	c.nextID++
	c.sink(req)
}

// String describes the client.
func (c *ClosedLoopClient) String() string {
	return fmt.Sprintf("closed-loop(%d threads, service %v, think %v)",
		c.threads, c.service, c.think)
}

// SysbenchOLTP returns a closed-loop MySQL client shaped like the
// paper's sysbench setup: `threads` synchronous connections running the
// OLTP mix with a think time that sets the offered load.
func SysbenchOLTP(eng *sim.Engine, threads int, thinkMean float64, seed uint64,
	sink func(*Request)) *ClosedLoopClient {
	service := stats.Mixture{
		Components: []stats.Dist{
			stats.LogNormal{MeanV: 60e-6, Sigma: 0.5},
			stats.LogNormal{MeanV: 300e-6, Sigma: 0.6},
		},
		Weights: []float64{0.7, 0.3},
	}
	return NewClosedLoopClient(eng, threads, service,
		stats.Exponential{MeanV: thinkMean}, 10, seed, sink)
}
