package main

import (
	"fmt"
	"net"
	"path/filepath"
	"sync/atomic"

	"skueue/internal/server"
)

// connCounts totals the traffic of every connection a counting listener
// accepted. Each client session and each member-to-member link has
// exactly one accepted end inside this process, so bytes are the
// cluster's whole socket traffic; calls count the accepting side's
// Read and Write calls.
type connCounts struct {
	reads, writes, bytes atomic.Int64
}

// countingListener hands out connections that report into counts. It is
// what a traced run passes as server.Config.Listener.
type countingListener struct {
	net.Listener
	counts *connCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, counts: l.counts}, nil
}

type countingConn struct {
	net.Conn
	counts *connCounts
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.counts.reads.Add(1)
	c.counts.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.counts.writes.Add(1)
	c.counts.bytes.Add(int64(n))
	return n, err
}

// cluster is a set of in-process members on loopback, configured as
// skueue-server configures them when given no optional flag: default
// tick, journal group commit and snapshot cadence.
type cluster struct {
	srvs  []*server.Server
	addrs []string
}

// bootCluster starts members members. stateRoot, when non-empty, makes
// them durable with one state directory each beneath it. counts, when
// non-nil, is fed by every accepted connection.
func bootCluster(members int, stateRoot string, counts *connCounts) (*cluster, error) {
	cl := &cluster{}
	lis := make([]net.Listener, members)
	for i := range lis {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, open := range lis[:i] {
				open.Close()
			}
			return nil, err
		}
		cl.addrs = append(cl.addrs, l.Addr().String())
		lis[i] = l
		if counts != nil {
			lis[i] = countingListener{Listener: l, counts: counts}
		}
	}
	for i := range lis {
		cfg := server.Config{Listener: lis[i], Seed: 1, Index: i, Members: cl.addrs}
		if stateRoot != "" {
			cfg.StateDir = filepath.Join(stateRoot, fmt.Sprintf("m%d", i))
		}
		s, err := server.New(cfg)
		if err != nil {
			for _, rest := range lis[i+1:] {
				rest.Close()
			}
			cl.close()
			return nil, fmt.Errorf("starting member %d: %w", i, err)
		}
		cl.srvs = append(cl.srvs, s)
	}
	return cl, nil
}

func (cl *cluster) close() {
	for _, s := range cl.srvs {
		s.Close()
	}
}
