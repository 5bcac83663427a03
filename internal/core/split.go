package core

// Split is where the simulator's operations spend their rounds, summed over
// the operations a wave carried: Wait from birth to the first fire that takes
// the operation, Tree from that fire to the serve at its node (the aggregate
// up to the anchor and the serve back down), Route from the serve to its
// completion (the DHT request and its reply). Depth sums the tree edges
// between processes from the operation's node to the anchor at the serve:
// the tree term is about twice that, one round per edge each way, since an
// edge between the three nodes of one process costs none. Operations a
// stack combines at their node ride no wave and are not counted, and a
// networked member counts nothing.
type Split struct {
	Ops                      int64
	Wait, Tree, Route, Depth int64
}

// Means returns the four sums per operation.
func (s Split) Means() (wait, tree, route, depth float64) {
	if s.Ops == 0 {
		return 0, 0, 0, 0
	}
	n := float64(s.Ops)
	return float64(s.Wait) / n, float64(s.Tree) / n, float64(s.Route) / n, float64(s.Depth) / n
}

// opStamp is what the split knows of an operation under way: when it was
// first fired, and when and at what depth it was served.
type opStamp struct {
	fired, served, depth int64
}

// Split returns the rounds of the completed operations so far, split by
// where they went.
func (cl *Cluster) Split() Split { return cl.split }

// stampFire notes the first fire of each operation: a returned wave's
// operations keep the stamp of the fire that first took them.
func (cl *Cluster) stampFire(ops []Op, now int64) {
	if cl.eng == nil {
		return
	}
	if cl.stamps == nil {
		cl.stamps = make(map[uint64]opStamp)
	}
	for _, op := range ops {
		if _, ok := cl.stamps[op.ReqID]; !ok {
			cl.stamps[op.ReqID] = opStamp{fired: now}
		}
	}
}

// stampServe notes the serve of node n's operations.
func (cl *Cluster) stampServe(n *Node, ops []Op, now int64) {
	if cl.eng == nil || len(ops) == 0 {
		return
	}
	depth := cl.depthOf(n)
	for _, op := range ops {
		if s, ok := cl.stamps[op.ReqID]; ok {
			s.served, s.depth = now, depth
			cl.stamps[op.ReqID] = s
		}
	}
}

// noteDone adds a completed operation to the split.
func (cl *Cluster) noteDone(reqID uint64, born, done int64) {
	s, ok := cl.stamps[reqID]
	if !ok || s.served == 0 {
		return
	}
	delete(cl.stamps, reqID)
	cl.split.Ops++
	cl.split.Wait += s.fired - born
	cl.split.Tree += s.served - s.fired
	cl.split.Route += done - s.served
	cl.split.Depth += s.depth
}

// depthOf counts the tree edges between processes from n to the anchor; a
// joiner's first edge is the one to its relay.
func (cl *Cluster) depthOf(n *Node) int64 {
	var d int64
	for steps := 0; steps <= len(cl.nodes); steps++ {
		if n.anchorRole {
			return d
		}
		p, ok := n.parent()
		if n.churn.joining {
			p, ok = n.churn.relayVia, true
		}
		next, live := cl.nodes[p.ID]
		if !ok || !live {
			return d
		}
		if p.ID != n.sibL.ID && p.ID != n.sibM.ID && p.ID != n.sibR.ID {
			d++
		}
		n = next
	}
	return d
}
