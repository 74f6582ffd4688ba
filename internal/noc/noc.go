// Package noc models the on-chip interconnect that connects the nodes,
// the (far-side) LLC, the MD3/directory, and the memory controller.
//
// The model is a crossbar: every endpoint-to-endpoint transfer costs one
// traversal with a fixed latency and an energy proportional to the number
// of 8-byte flits moved across the fabric's hops. What the paper's
// Figure 5 plots — and what this package accounts — is the number of
// messages sent, split into basic coherence/data traffic and D2M-specific
// traffic (MD2 spill/fill, NewMaster updates, ...).
package noc

import "d2m/internal/energy"

// Class is the size class of a message.
type Class uint8

const (
	// Ctrl is a control message: request, invalidation, ack, metadata
	// update. One 8-byte flit.
	Ctrl Class = iota
	// Data is a cacheline-carrying message: 8-byte header plus 64 bytes
	// of data, nine flits.
	Data
	// MD is a region-metadata-carrying message (MD2 spill/fill, GetMD
	// reply): header plus a 16-line region entry, three flits.
	MD
)

// Bytes returns the size of the message class on the wire.
func (c Class) Bytes() uint64 {
	switch c {
	case Ctrl:
		return 8
	case Data:
		return 72
	case MD:
		return 24
	default:
		return 8
	}
}

// Flits returns the number of 8-byte flits the class occupies.
func (c Class) Flits() uint64 { return (c.Bytes() + 7) / 8 }

// Category distinguishes basic traffic from D2M-specific traffic for the
// dark/light split of Figure 5.
type Category uint8

const (
	// Base is ordinary data/coherence traffic that any protocol sends.
	Base Category = iota
	// D2MOnly is traffic that only the split hierarchy generates
	// (metadata spill/fill, NewMaster location updates, ...).
	D2MOnly
)

// TraversalCycles is the one-way latency of crossing the interconnect
// between any two endpoints.
const TraversalCycles = 12

// Fabric accounts interconnect traffic and charges its energy.
type Fabric struct {
	meter *energy.Meter
	topo  Topology

	msgs      uint64
	d2mMsgs   uint64
	bytes     uint64
	dataBytes uint64
	hops      uint64
}

// NewFabricTopology returns a fabric charging energy against meter
// under topo (nil = crossbar). meter may be nil, in which case only
// traffic is counted.
func NewFabricTopology(meter *energy.Meter, topo Topology) *Fabric {
	if topo == nil {
		topo = Crossbar{}
	}
	return &Fabric{meter: meter, topo: topo}
}

// energyOpFlit aliases the meter operation used per flit-hop.
const energyOpFlit = energy.OpNoCFlit

// Messages returns the total number of messages sent.
func (f *Fabric) Messages() uint64 { return f.msgs }

// D2MMessages returns the number of D2M-specific messages.
func (f *Fabric) D2MMessages() uint64 { return f.d2mMsgs }

// Bytes returns total bytes moved.
func (f *Fabric) Bytes() uint64 { return f.bytes }

// DataBytes returns bytes moved by cacheline-carrying messages only (the
// paper's "data-only traffic").
func (f *Fabric) DataBytes() uint64 { return f.dataBytes }

// Reset zeroes the traffic counters (used when a measurement window
// starts after warmup).
func (f *Fabric) Reset() {
	f.msgs, f.d2mMsgs, f.bytes, f.dataBytes, f.hops = 0, 0, 0, 0, 0
}
