package fabric

import (
	"repro/internal/sim"
)

// PCIeBus models the accelerator attachment of the baseline
// "cluster with accelerators": a shared bus between the host CPU and
// one or more accelerator cards. The paper's criticism — "communication
// so far via main memory" and "PCIe bus turns out to be a bottleneck" —
// is captured by (a) an explicit host-staging copy at memory bandwidth
// before every transfer and (b) all cards of one host contending for
// the single bus resource.
type PCIeBus struct {
	Eng *sim.Engine
	P   Params
	// HostMemBandwidth is the rate of the staging copy through main
	// memory, bytes/second.
	HostMemBandwidth float64
	// Staged indicates whether transfers must be staged through host
	// memory (true for classic accelerator offload; false models a
	// hypothetical peer-to-peer path).
	Staged bool

	bus *sim.Resource
	// Stats
	Transfers   uint64
	BytesMoved  uint64
	StagingTime sim.Time

	// energy is the electrical model; transferJ accumulates as
	// transfers fire. A staged transfer pays the per-byte cost twice:
	// once for the host-memory copy, once for the bus crossing.
	energy    EnergyModel
	transferJ float64
}

// SetEnergyModel attaches an electrical model to the bus.
func (b *PCIeBus) SetEnergyModel(e EnergyModel) { b.energy = e }

// EnergyJoules returns the bus's accumulated energy: per-byte
// transfer charges plus the static draw of the single bus link.
func (b *PCIeBus) EnergyJoules() float64 {
	return b.transferJ + b.energy.IdleJ(1, b.Eng.Now())
}

// NewPCIeBus returns a bus with parameters p.
func NewPCIeBus(eng *sim.Engine, p Params, hostMemBW float64, staged bool) *PCIeBus {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &PCIeBus{
		Eng:              eng,
		P:                p,
		HostMemBandwidth: hostMemBW,
		Staged:           staged,
		bus:              sim.NewResource(eng, "pcie"),
	}
}

// Transfer moves size bytes between host and one attached accelerator
// (either direction; the bus is symmetric) and calls done when the last
// byte has landed.
func (b *PCIeBus) Transfer(size int, done func(at sim.Time, err error)) {
	if size < 0 {
		panic("fabric: negative PCIe transfer size")
	}
	b.Transfers++
	b.BytesMoved += uint64(size)
	if b.energy.PerByteJ != 0 {
		crossings := 1
		if b.Staged {
			crossings = 2 // staging copy through host memory, then the bus
		}
		b.transferJ += b.energy.TransferJ(size, crossings)
	}
	start := func() {
		b.Eng.After(b.P.SendOverhead, func() {
			b.bus.Acquire(b.P.serTime(size), func(_, _ sim.Time) {
				b.Eng.After(b.P.LinkLatency+b.P.RecvOverhead, func() {
					done(b.Eng.Now(), nil)
				})
			})
		})
	}
	if b.Staged && size > 0 {
		staging := sim.FromSeconds(float64(size) / b.HostMemBandwidth)
		b.StagingTime += staging
		b.Eng.After(staging, start)
	} else {
		start()
	}
}

// Utilisation returns the busy fraction of the bus.
func (b *PCIeBus) Utilisation() float64 { return b.bus.Utilisation() }
