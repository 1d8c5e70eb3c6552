package syncgraph

import "strings"

// Synchronization cost accounting for SPI buffer protocols (paper §4).
// SPI_BBS applies when a buffer provably never exceeds a predetermined
// size: sender and receiver share read/write pointers. SPI_UBS applies when
// no static bound exists, and acknowledges every transfer.

// Protocol selects a buffer-synchronization protocol for an IPC edge.
type Protocol uint8

const (
	// BBS is bounded-buffer synchronization.
	BBS Protocol = iota
	// UBS is unbounded-buffer synchronization (acknowledgement-based).
	UBS
)

func (p Protocol) String() string {
	if p == BBS {
		return "SPI_BBS"
	}
	return "SPI_UBS"
}

// Per-transfer synchronization operation counts on a shared-memory target
// (Sriram & Bhattacharyya): BBS costs two synchronization accesses per
// transfer, UBS four.
const (
	BBSOpsPerTransfer = 2
	UBSOpsPerTransfer = 4
)

// MessagesPerTransfer returns the messages one logical transfer costs on a
// distributed-memory target: the data message, plus an acknowledgement for
// UBS (BBS back-pressure rides on the buffer's shared pointers).
func MessagesPerTransfer(p Protocol) int {
	if p == UBS {
		return 2
	}
	return 1
}

// CostSummary aggregates the per-iteration synchronization cost of a graph.
type CostSummary struct {
	// IPCEdges and SyncEdges count the live edges by kind.
	IPCEdges, SyncEdges int
	// SharedMemoryOps is the per-iteration synchronization access count on
	// a shared-memory target under the given per-edge protocols.
	SharedMemoryOps int
	// Messages is the per-iteration message count on a distributed-memory
	// target: one data message per IPC edge; for its feedback edge ("ack:"
	// + its label) one for a UBS ack and none for BBS back-pressure; one
	// per other sync edge (separate messages in the HDL SPI library, §4.1).
	Messages int
}

// Cost computes the synchronization cost of the live graph. protocols maps
// an IPC edge's label to its protocol; labels not present default to BBS.
func Cost(g *Graph, protocols map[string]Protocol) CostSummary {
	var s CostSummary
	for _, e := range g.Edges() {
		switch e.Kind {
		case IPCEdge:
			s.IPCEdges++
			if protocols[e.Label] == UBS {
				s.SharedMemoryOps += UBSOpsPerTransfer
			} else {
				s.SharedMemoryOps += BBSOpsPerTransfer
			}
			s.Messages++
		case SyncEdge:
			s.SyncEdges++
			s.SharedMemoryOps += BBSOpsPerTransfer
			if ipc, ok := strings.CutPrefix(e.Label, "ack:"); ok {
				s.Messages += MessagesPerTransfer(protocols[ipc]) - 1 // the transfer's ack, if any
			} else {
				s.Messages++
			}
		}
	}
	return s
}
