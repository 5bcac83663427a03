package core

import (
	"errors"
	"fmt"

	"skueue/internal/ldb"
	"skueue/internal/seqcheck"
	"skueue/internal/transport"
	"skueue/internal/xrand"
)

// This file is the member-mode constructor of Cluster: one operating-
// system process's share of a networked Skueue deployment, running over a
// transport.Network backend (in practice internal/transport/tcp) instead
// of the simulator.
//
// The trick that makes distributed bootstrap coordination-free is that
// the initial topology is a pure function of the shared seed: process
// pid's three virtual nodes live at the globally agreed addresses
// NodeIDForProcess(pid, kind) with labels ldb.ProcessPoints(labels, pid),
// so every member can compute the full bootstrap ring locally and wire
// just its own nodes — no leader election, no wiring messages. Later
// arrivals go through the paper's JOIN protocol (JoinRemote), exactly as
// a simulated joiner would, except the routed JOIN requests cross real
// sockets.

// NewMember builds the Cluster fragment a networked member hosts: the
// processes in localPids, wired against the deterministic bootstrap ring
// of cfg.Processes processes. The backend must also implement
// transport.Registry, because bootstrap node addresses are fixed.
//
// A member that joins after bootstrap passes no localPids (its process
// enters through JoinRemote); cfg.Processes then only documents the
// bootstrap size and may be zero.
func NewMember(cfg Config, memberIndex int32, localPids []int32, net transport.Network) (*Cluster, error) {
	reg, ok := net.(transport.Registry)
	if !ok {
		return nil, errors.New("core: member backend does not support fixed-address registration")
	}
	if memberIndex < 0 {
		return nil, fmt.Errorf("core: invalid member index %d", memberIndex)
	}
	for _, pid := range localPids {
		if pid < 0 || int(pid) >= cfg.Processes {
			return nil, fmt.Errorf("core: local pid %d outside bootstrap range [0,%d)", pid, cfg.Processes)
		}
	}
	RegisterWireTypes()
	cl := &Cluster{
		cfg:     cfg,
		net:     net,
		reg:     reg,
		labels:  xrand.NewHasher(cfg.Seed, "labels"),
		keyHash: xrand.NewHasher(cfg.Seed, "positions"),
		nodes:   make(map[transport.NodeID]*Node),
		hist:    &seqcheck.History{},
		reqBase: uint64(memberIndex+1) << ReqIDMemberShift,
		// Networked clusters allocate process IDs through the seed member
		// (see internal/server); the local counter is never consulted.
		nextProc: int32(cfg.Processes),
	}

	// Spawn only our share; the full bootstrap ring comes from the seed.
	for _, pid := range localPids {
		proc, _ := cl.spawnProcessAt(pid)
		proc.Joining = false
	}
	cl.wireBootstrapRing()
	return cl, nil
}

// JoinRemote spawns the local process pid in joining state and routes its
// three JOIN requests through contact, a node hosted by an existing member
// (§IV-A). The pid must have been allocated by the seed member so it is
// globally unique. It returns the local process index for Client().
func (cl *Cluster) JoinRemote(pid int32, contact transport.NodeID) int {
	_, prefs := cl.spawnProcessAt(pid)
	for _, ref := range prefs {
		cl.net.Send(ref.ID, contact, routedMsg{
			RS:    ldb.RouteState{Target: ref.Point.Label, BitsLeft: -1},
			Inner: joinReq{NewNode: ref},
		})
	}
	return len(cl.procs) - 1
}

// LocalProcs returns the indices (into Processes()) of the live processes
// this cluster actually hosts — in member mode, the ones client requests
// can be injected at.
func (cl *Cluster) LocalProcs() []int {
	var out []int
	for i, p := range cl.procs {
		if !p.Left {
			out = append(out, i)
		}
	}
	return out
}
