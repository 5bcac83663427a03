// Package baseline implements the comparison system the paper motivates
// against (§I): a conventional server-based queue ("Apache ActiveMQ, IBM
// MQ, or JMS queues ... none of these implementations provides a queue
// that allows massively parallel accesses without requiring powerful
// servers"). A single server holds the queue; clients send it one message
// per request and get one reply. The server processes a bounded number of
// requests per round (its capacity) — the knob that makes the bottleneck
// measurable. Under a total load that grows with n, latency explodes once
// the load passes the capacity, while Skueue's batching keeps the cost at
// O(log n) (Corollary 16).
package baseline

import (
	"skueue/internal/dht"
	"skueue/internal/sim"
	"skueue/internal/xrand"
)

// request is a client's message to the server.
type request struct {
	Enq   bool
	Elem  dht.Element
	Born  int64
	Reply sim.NodeID
	ReqID uint64
}

// reply is the server's answer.
type reply struct {
	Elem   dht.Element
	Bottom bool
	Born   int64
}

// server is the central queue holder.
type server struct {
	capacity int
	backlog  []request
	fifo     []dht.Element
	done     func(born, now int64)
}

func (s *server) OnInit(ctx *sim.Context) {}

func (s *server) OnMessage(ctx *sim.Context, from sim.NodeID, payload any) {
	s.backlog = append(s.backlog, payload.(request))
}

// OnTimeout processes up to capacity requests per round, strictly FIFO in
// arrival order — the sequential semantics a single server gives for free.
func (s *server) OnTimeout(ctx *sim.Context) {
	n := s.capacity
	if n > len(s.backlog) {
		n = len(s.backlog)
	}
	for _, req := range s.backlog[:n] {
		if req.Enq {
			s.fifo = append(s.fifo, req.Elem)
			ctx.Send(req.Reply, reply{Born: req.Born})
			continue
		}
		rep := reply{Born: req.Born, Bottom: true}
		if len(s.fifo) > 0 {
			rep.Elem = s.fifo[0]
			rep.Bottom = false
			s.fifo = s.fifo[1:]
		}
		ctx.Send(req.Reply, rep)
	}
	s.backlog = s.backlog[n:]
}

// client issues requests on demand and records completion latency.
type client struct {
	server sim.NodeID
	done   func(born, now int64)
}

func (c *client) OnInit(ctx *sim.Context)    {}
func (c *client) OnTimeout(ctx *sim.Context) {}
func (c *client) OnMessage(ctx *sim.Context, from sim.NodeID, payload any) {
	rep := payload.(reply)
	c.done(rep.Born, ctx.Now())
}

// Cluster is a centralized-queue deployment mirroring the core.Cluster
// driver surface the harness needs.
type Cluster struct {
	eng      *sim.Engine
	serverID sim.NodeID
	clients  []sim.NodeID
	issued   int64
	finished int64
	sumLat   int64
	reqSeq   uint64
	seq      int64
}

// Config parameterizes the baseline.
type Config struct {
	Clients int
	// Capacity is the number of requests the server can process per round.
	Capacity int
	Seed     int64
}

// New builds the deployment: one server, Clients client nodes.
func New(cfg Config) *Cluster {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 16
	}
	cl := &Cluster{}
	cl.eng = sim.New(sim.Config{Seed: xrand.New(cfg.Seed).Fork("baseline").Int63()})
	done := func(born, now int64) {
		cl.finished++
		cl.sumLat += now - born
	}
	cl.serverID = cl.eng.Spawn(&server{capacity: cfg.Capacity, done: done})
	for i := 0; i < cfg.Clients; i++ {
		cl.clients = append(cl.clients, cl.eng.Spawn(&client{server: cl.serverID, done: done}))
	}
	return cl
}

// Enqueue sends an enqueue request from the given client.
func (cl *Cluster) Enqueue(i int) {
	cl.issued++
	cl.seq++
	cl.reqSeq++
	cl.eng.Inject(cl.clients[i], cl.serverID, request{
		Enq: true, Elem: dht.Element{Origin: int32(i), Seq: cl.seq},
		Born: cl.eng.Now(), Reply: cl.clients[i], ReqID: cl.reqSeq,
	})
}

// Dequeue sends a dequeue request from the given client.
func (cl *Cluster) Dequeue(i int) {
	cl.issued++
	cl.reqSeq++
	cl.eng.Inject(cl.clients[i], cl.serverID, request{
		Born: cl.eng.Now(), Reply: cl.clients[i], ReqID: cl.reqSeq,
	})
}

// Clients returns the number of client nodes.
func (cl *Cluster) Clients() int { return len(cl.clients) }

// Step advances one round.
func (cl *Cluster) Step() { cl.eng.Step() }

// Drain runs until every request was answered (or maxRounds elapse).
func (cl *Cluster) Drain(maxRounds int64) bool {
	return cl.eng.RunUntil(func() bool { return cl.finished >= cl.issued }, maxRounds)
}

// AvgRounds returns the mean rounds per finished request.
func (cl *Cluster) AvgRounds() float64 {
	if cl.finished == 0 {
		return 0
	}
	return float64(cl.sumLat) / float64(cl.finished)
}

// Issued and Finished return request counters.
func (cl *Cluster) Issued() int64   { return cl.issued }
func (cl *Cluster) Finished() int64 { return cl.finished }
