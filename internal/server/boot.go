package server

import (
	"errors"
	"fmt"
	"net"
	"time"

	"skueue/internal/batch"
	"skueue/internal/core"
	"skueue/internal/ldb"
	"skueue/internal/transport/tcp"
	"skueue/internal/wire"
)

// BootstrapPids returns the process IDs member index hosts in a bootstrap
// deployment of procs processes over members members (round-robin).
func BootstrapPids(index, members, procs int) []int32 {
	var out []int32
	for pid := index; pid < procs; pid += members {
		out = append(out, int32(pid))
	}
	return out
}

// defaultHeapLevels is the heap-mode priority-level count when the config
// leaves it 0.
const defaultHeapLevels = 4

// modeString renders the member's mode for the client protocol and the
// disk snapshot.
func (s *Server) modeString() string {
	switch s.mode {
	case batch.Stack:
		return "stack"
	case batch.Heap:
		return "heap"
	default:
		return "queue"
	}
}

// adoptMode installs a mode string received from the seed (join) or the
// snapshot (restore), plus the heap level count riding with it.
func (s *Server) adoptMode(mode string, heapLevels int) {
	s.cfg.Mode = mode
	s.mode = batch.Queue
	switch mode {
	case "stack":
		s.mode = batch.Stack
	case "heap":
		s.mode = batch.Heap
		if heapLevels < 1 {
			heapLevels = defaultHeapLevels
		}
		s.cfg.HeapLevels = heapLevels
	}
}

func (s *Server) coreConfig(procs int) core.Config {
	return core.Config{
		Processes:  procs,
		Seed:       s.cfg.Seed,
		Mode:       s.mode,
		HeapLevels: s.cfg.HeapLevels,
	}
}

// peerOptions assembles the transport options shared by every start path.
// AckGate is tied to StateDir: without durable snapshots there is nothing
// to gate acknowledgments on, and deliveries acknowledge immediately.
func (s *Server) peerOptions(index int32, pids []int32, boot int64) tcp.Options {
	opts := tcp.Options{
		Index:   index,
		Addr:    s.lis.Addr().String(),
		Pids:    pids,
		Seed:    s.cfg.Seed,
		Tick:    s.cfg.Tick,
		Logf:    s.logf,
		Boot:    boot,
		AckGate: s.cfg.StateDir != "",
		GiveUp:  s.cfg.GiveUp,
		OnDown:  s.peerDown,
		Shape:   s.cfg.Shape,
	}
	if s.cfg.StateDir != "" {
		opts.SendGate = s.gateSend
	}
	return opts
}

//skueue:owned-by startup -- runs before the transport starts; no other goroutine can see the server yet
func (s *Server) startBootstrap() error {
	if len(s.cfg.Members) == 0 {
		return errors.New("server: bootstrap needs at least one member address")
	}
	if s.cfg.Index < 0 || s.cfg.Index >= len(s.cfg.Members) {
		return fmt.Errorf("server: index %d outside member list", s.cfg.Index)
	}
	procs := s.cfg.Procs
	if procs == 0 {
		procs = len(s.cfg.Members)
	}
	if procs < len(s.cfg.Members) {
		return fmt.Errorf("server: %d procs cannot cover %d members", procs, len(s.cfg.Members))
	}
	myPids := BootstrapPids(s.cfg.Index, len(s.cfg.Members), procs)
	s.procsTotal = procs
	s.peer = tcp.New(s.peerOptions(int32(s.cfg.Index), myPids, 1))
	var book []wire.MemberInfo
	for i, addr := range s.cfg.Members {
		book = append(book, wire.MemberInfo{
			Index: int32(i), Addr: addr,
			Pids: BootstrapPids(i, len(s.cfg.Members), procs),
		})
	}
	s.peer.SetBook(book)
	cl, err := core.NewMember(s.coreConfig(procs), int32(s.cfg.Index), myPids, s.peer)
	if err != nil {
		return err
	}
	s.cl = cl
	s.nextIndex = int32(len(s.cfg.Members))
	s.nextPid = int32(procs)
	s.wireCallbacks()
	return nil
}

// joinGiveUp bounds how long the seed admission handshake keeps retrying
// before the member gives up with a clear error instead of hanging.
func (s *Server) joinGiveUp() time.Duration {
	if s.cfg.GiveUp > 0 {
		return s.cfg.GiveUp
	}
	return 15 * time.Second
}

// seedDialog performs one Hello + CliJoin exchange with the seed, every
// read and write bounded by deadline so a reachable-but-silent address
// cannot hang the member.
func seedDialog(addr string, req wire.CliJoin, deadline time.Time) (wire.CliJoinResp, error) {
	var resp wire.CliJoinResp
	nc, err := net.DialTimeout("tcp", addr, time.Until(deadline))
	if err != nil {
		return resp, err
	}
	nc.SetDeadline(deadline)
	conn := wire.NewConn(nc)
	defer conn.Close()
	if err := conn.Write(wire.Hello{Kind: "client"}); err != nil {
		return resp, err
	}
	if _, err := conn.Read(); err != nil { // HelloAck
		return resp, err
	}
	if err := conn.Write(req); err != nil {
		return resp, err
	}
	v, err := conn.Read()
	if err != nil {
		return resp, err
	}
	resp, ok := v.(wire.CliJoinResp)
	if !ok {
		return resp, fmt.Errorf("seed answered %T to join request", v)
	}
	return resp, nil
}

// askSeed retries the admission dialog with backoff until it succeeds, is
// rejected, or the join give-up timeout expires — the member then fails
// with a clear error rather than hanging on an unreachable seed.
func (s *Server) askSeed(req wire.CliJoin) (wire.CliJoinResp, error) {
	giveUp := s.joinGiveUp()
	deadline := time.Now().Add(giveUp)
	backoff := 100 * time.Millisecond
	var lastErr error
	for time.Now().Before(deadline) {
		resp, err := seedDialog(s.cfg.Join, req, deadline)
		if err == nil {
			if resp.Err != "" {
				return resp, fmt.Errorf("server: join rejected: %s", resp.Err)
			}
			return resp, nil
		}
		lastErr = err
		s.logf("server: seed %s not answering (%v); retrying", s.cfg.Join, err)
		time.Sleep(backoff)
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
	return wire.CliJoinResp{}, fmt.Errorf("server: seed %s unreachable after %v give-up timeout: %w",
		s.cfg.Join, giveUp, lastErr)
}

// startJoining performs the admission handshake with the seed member and
// enters the cluster through the JOIN protocol.
func (s *Server) startJoining() error {
	ack, err := s.askSeed(wire.CliJoin{Addr: s.lis.Addr().String()})
	if err != nil {
		return err
	}
	s.cfg.Seed = ack.Seed
	s.adoptMode(ack.Mode, int(ack.HeapLevels))
	s.peer = tcp.New(s.peerOptions(ack.Index, []int32{ack.Pid}, 1))
	s.peer.SetBook(ack.Book)
	cl, err := core.NewMember(s.coreConfig(0), ack.Index, nil, s.peer)
	if err != nil {
		return err
	}
	s.cl = cl
	s.wireCallbacks()
	pid, contact := ack.Pid, ack.Contact
	s.peer.Do(func() { cl.JoinRemote(pid, contact) })
	return nil
}

// admit handles a CliJoin: only the seed member assigns member indices and
// process IDs, and it broadcasts the updated address book before
// answering, so every member can route to the newcomer by the time its
// JOIN requests start flowing. A rejoin (fail-stop restart) keeps the
// member's existing assignment and only re-broadcasts its address.
func (s *Server) admit(m wire.CliJoin) wire.CliJoinResp {
	if s.peer.Me().Index != 0 {
		return wire.CliJoinResp{Err: "join via the seed member (index 0)"}
	}
	if m.Rejoin {
		if m.Index == 0 {
			return wire.CliJoinResp{Err: "the seed member cannot rejoin through itself"}
		}
		s.logf("server[0]: member %d rejoining from %s after restart", m.Index, m.Addr)
		s.peer.AddMember(wire.MemberInfo{Index: m.Index, Addr: m.Addr, Pids: m.Pids})
		s.peer.BroadcastBook()
		return wire.CliJoinResp{
			Index: m.Index,
			Seed:  s.cfg.Seed, Mode: s.modeString(), HeapLevels: int32(s.cfg.HeapLevels),
			Book: s.peer.Book(),
		}
	}
	s.mu.Lock()
	idx := s.nextIndex
	pid := s.nextPid
	s.nextIndex++
	s.nextPid++
	s.mu.Unlock()
	s.peer.AddMember(wire.MemberInfo{Index: idx, Addr: m.Addr, Pids: []int32{pid}})
	s.peer.BroadcastBook()
	return wire.CliJoinResp{
		Index: idx, Pid: pid,
		Seed: s.cfg.Seed, Mode: s.modeString(), HeapLevels: int32(s.cfg.HeapLevels),
		Book:    s.peer.Book(),
		Contact: core.NodeIDForProcess(s.peer.Me().Pids[0], ldb.Middle),
	}
}
