package main

import (
	"context"
	"fmt"
	"time"

	"repro/deep"
	"repro/internal/fabric"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Shape of the torus_packet op: deep.TorusTraffic on a 16^3 booster
// torus at packet fidelity, sequential kernel.
const (
	torusEdge     = 16
	torusMessages = 20000
	torusBytes    = 4096
	torusWindowMS = 2
	torusWarmUps  = 1
)

// torusOutcome is what one op must reproduce exactly.
type torusOutcome struct {
	modelTime deep.ModelTime
	delivered float64 // bytes the fabric delivered
	messages  float64
	events    uint64
}

// torusPacket is the torus_packet workload: sequential sim.Engine
// dispatch plus the packet fabric path, nothing else.
type torusPacket struct {
	seed uint64
	env  *deep.Env
	ref  *torusOutcome // the first warm-up op's outcome

	// Exact counters of the last traced op, for layers.
	kernel sim.Stats
	net    fabric.Stats
}

func (w *torusPacket) setUp() error {
	m, err := deep.NewMachine(deep.WithBoosterTorus(torusEdge, torusEdge, torusEdge),
		deep.WithFidelity(deep.Packet), deep.WithSeed(w.seed))
	if err != nil {
		return err
	}
	w.env, w.ref = m.NewEnv(), nil
	for i := 0; i < torusWarmUps; i++ {
		if err := w.op(nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *torusPacket) tearDown() {}

// op holds every outcome, SDK or twin, to the first warm-up op's —
// which setUp ran through the SDK.
func (w *torusPacket) op(t *tracer) error {
	var got *torusOutcome
	var err error
	if t == nil {
		got, err = w.sdk()
	} else {
		got, err = w.twin(t)
	}
	if err != nil {
		return err
	}
	if w.ref == nil {
		w.ref = got
	} else if *got != *w.ref {
		return fmt.Errorf("torus outcome %+v, first op had %+v", *got, *w.ref)
	}
	return nil
}

// sdk is the op as a user runs it.
func (w *torusPacket) sdk() (*torusOutcome, error) {
	res, err := deep.Run(context.Background(), w.env,
		deep.TorusTraffic{Messages: torusMessages, Bytes: torusBytes, WindowMS: torusWindowMS})
	if err != nil {
		return nil, err
	}
	if !res.Verified {
		return nil, fmt.Errorf("torus traffic not verified: %v", res.Notes)
	}
	delivered, _ := res.Metric("delivered_bytes")
	messages, _ := res.Metric("messages")
	return &torusOutcome{res.ModelTime, delivered, messages, res.Kernel.ExecutedEvents}, nil
}

// twin repeats TorusTraffic's sequential path from the public layer
// functions with spans around each: the same seeded (start, src, dst)
// list injected into a machine.BoosterFabric on a fresh sim.Engine. The
// caller holds its outcome to the SDK's, so the split is of the same
// work.
func (w *torusPacket) twin(t *tracer) (*torusOutcome, error) {
	root := t.open("op", -1)
	inject := t.open("sim.inject", root)
	window := sim.Time(torusWindowMS * float64(sim.Millisecond))
	const nodes = torusEdge * torusEdge * torusEdge
	r := rng.New(w.seed)
	type item struct {
		start    sim.Time
		src, dst topology.NodeID
	}
	items := make([]item, torusMessages)
	for i := range items {
		items[i] = item{sim.Time(r.Intn(int(window))), topology.NodeID(r.Intn(nodes)), topology.NodeID(r.Intn(nodes))}
	}
	eng := sim.New()
	net, _ := machine.BoosterFabric(eng, torusEdge, torusEdge, torusEdge, fabric.FidelityPacket, w.seed)
	run := int32(-1) // opened below; the callbacks only fire inside it
	sendID, doneID := t.intern("fabric.send"), t.intern("fabric.delivered")
	deliveredAt := make([]sim.Time, torusMessages)
	for i, it := range items {
		eng.At(it.start, func() {
			s := t.begin(sendID, run)
			net.Send(it.src, it.dst, torusBytes, func(at sim.Time, err error) {
				d := t.begin(doneID, run)
				if err == nil {
					deliveredAt[i] = at
				}
				t.end(d)
			})
			t.end(s)
		})
	}
	t.end(inject)
	run = t.open("sim.run", root)
	eng.Run()
	t.end(run)
	t.end(root)

	for i, at := range deliveredAt {
		if at == 0 {
			return nil, fmt.Errorf("twin: message %d undelivered", i)
		}
	}
	w.kernel, w.net = eng.Stats(), net.Stats
	return &torusOutcome{deep.ModelTime(eng.Now().Seconds()), float64(net.Stats.BytesDelivered),
		float64(net.Stats.Messages), w.kernel.Executed}, nil
}

func (w *torusPacket) layers(b *tracedBlock, _ time.Duration) (map[string]float64, error) {
	events := float64(w.kernel.Executed)
	runSelf := b.t.perOp(b.self, "sim.run")
	for i := range runSelf {
		runSelf[i] *= 1e6 / events // ms per op -> ns per event
	}
	return map[string]float64{
		"sim.events_per_op":     events,
		"sim.max_queue_depth":   float64(w.kernel.MaxQueueDepth),
		"sim.ns_per_event":      median(runSelf),
		"sim.schedule_pop_ns":   probeSchedulePop(w.seed),
		"fabric.packet_send_ms": median(b.t.perOp(b.t.durations(), "fabric.send", "fabric.delivered")),
		"fabric.packets_per_op": float64(w.net.Packets),
		"fabric.retransmits":    float64(w.net.Retransmits),
	}, nil
}

// noopHandler is the cheapest event a model can schedule.
type noopHandler struct{}

func (noopHandler) OnEvent(sim.Time, int64, int64) {}

// probeSchedulePop times one Engine.Schedule plus its dispatch: a
// million no-op events at seeded times, scheduled in batches of 4096
// pending events and run dry.
func probeSchedulePop(seed uint64) float64 {
	const n, batch = 1 << 20, 4096
	eng := sim.New()
	r := rng.New(seed)
	delays := make([]sim.Time, batch)
	for i := range delays {
		delays[i] = sim.Time(r.Intn(10_000) + 1)
	}
	t0 := time.Now()
	for done := 0; done < n; done += batch {
		for _, d := range delays {
			eng.ScheduleAfter(d, noopHandler{}, 0, 0)
		}
		eng.Run()
	}
	return float64(time.Since(t0)) / n
}
