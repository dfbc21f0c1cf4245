package apps

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/cbp"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// The message-path pin: digests of everything the point-to-point path
// of internal/mpi decides — the makespan and every rank's final clock,
// traffic counters and output bits — captured from the tree before the
// resolved-peer communicator and the typed payload lane went in. Every
// receive names its source, so the digests do not depend on how
// the host interleaves the rank goroutines.

// pinSlot is what one process (a rank, or a spawned child) contributes.
type pinSlot struct {
	vt  sim.Time // the process's final clock
	st  mpi.Stats
	out []float64
}

type pinScenario struct {
	name  string
	ranks int
	slots int  // ranks plus spawned children
	spawn bool // uses Spawn: parents keep the identity placement
	body  func(c *mpi.Comm, place func(child int) int, slots []pinSlot) error
}

func pinStencil(c *mpi.Comm, _ func(int) int, slots []pinSlot) error {
	out, err := (&Stencil2D{NX: 32, NY: 64, Iters: 200}).Run(c)
	slots[c.Rank()] = pinSlot{c.Time(), c.Stats(), out}
	return err
}

func pinSpMV(c *mpi.Comm, _ func(int) int, slots []pinSlot) error {
	out, err := (&SpMV{NX: 24, NY: 48, Iters: 40}).Run(c)
	slots[c.Rank()] = pinSlot{c.Time(), c.Stats(), out}
	return err
}

// pinRing mixes payload kinds and sizes on one ring: []float64 of
// varying length, []int, a Sized wrapper and a nil token, blocking and
// nonblocking, beside an Allreduce and a Barrier per iteration.
func pinRing(c *mpi.Comm, _ func(int) int, slots []pinSlot) error {
	n, r := c.Size(), c.Rank()
	right, left := (r+1)%n, (r-1+n)%n
	acc := []float64{float64(r), 1}
	for it := 0; it < 60; it++ {
		c.Advance(sim.Time(1+(r*7+it)%5) * sim.Microsecond)
		buf := make([]float64, 1+(it*5+r)%33)
		for i := range buf {
			buf[i] = float64(r*1000+it) + float64(i)/64
		}
		c.Send(right, mpi.Tag(it), buf)
		buf[0] = -1 // the sender may reuse its buffer at once
		v, st := c.Recv(left, mpi.Tag(it))
		got := v.([]float64)
		if want := float64(left*1000 + it); got[0] != want || st.Bytes != 8*len(got) {
			return fmt.Errorf("ring it %d rank %d: got %v (%d B), want %v", it, r, got[0], st.Bytes, want)
		}
		acc[0] += got[len(got)-1]
		switch it % 4 {
		case 0:
			c.Send(left, 1000, []int{r, it})
			iv, _ := c.Recv(right, 1000)
			acc[1] += float64(iv.([]int)[0])
		case 1:
			c.Send(right, 1001, mpi.Sized{Data: r, Bytes: 4096})
			sv, sst := c.Recv(left, 1001)
			acc[1] += float64(mpi.Unwrap(sv).(int) + sst.Bytes)
		case 2:
			c.Send(right, 1002, nil)
			c.Recv(left, 1002)
		}
		acc = c.Allreduce(acc, mpi.OpSum)
		acc[0] = math.Mod(acc[0], 1e6)
		c.Barrier()
	}
	slots[r] = pinSlot{c.Time(), c.Stats(), acc}
	return nil
}

// pinSpawn starts four children with Place set; every child's start
// time and every parent-child message must be charged from the placed
// node.
func pinSpawn(c *mpi.Comm, place func(int) int, slots []pinSlot) error {
	n, r := c.Size(), c.Rank()
	cfg := mpi.DefaultSpawnConfig()
	cfg.Place = place
	inter := c.Spawn(n, cfg, func(child *mpi.Comm) error {
		cr := child.Rank()
		v, _ := child.Parent().Recv(cr, 5)
		work := v.([]float64)
		for i := range work {
			work[i] *= 2
		}
		child.Advance(20 * sim.Microsecond)
		sum := child.Allreduce(work, mpi.OpSum)
		child.Parent().Send(cr, 6, sum)
		slots[n+cr] = pinSlot{child.Time(), child.Stats(), sum}
		return nil
	})
	work := make([]float64, 128)
	for i := range work {
		work[i] = float64(r*128 + i)
	}
	inter.Send(r, 5, work)
	v, _ := inter.Recv(r, 6)
	slots[r] = pinSlot{c.Time(), c.Stats(), v.([]float64)}
	return nil
}

// pinInter exchanges head-to-head across an inter-communicator.
func pinInter(c *mpi.Comm, place func(int) int, slots []pinSlot) error {
	n, r := c.Size(), c.Rank()
	cfg := mpi.DefaultSpawnConfig()
	cfg.Place = place
	inter := c.Spawn(n, cfg, func(child *mpi.Comm) error {
		cr := child.Rank()
		mine := []float64{float64(100 + cr)}
		for it := 0; it < 10; it++ {
			child.Parent().Send(cr, mpi.Tag(it), mine)
			v, _ := child.Parent().Recv((cr+1)%n, mpi.Tag(it))
			mine = append(mine, v.([]float64)[0])
		}
		child.Parent().Barrier()
		slots[n+cr] = pinSlot{child.Time(), child.Stats(), mine}
		return nil
	})
	mine := []float64{float64(r)}
	for it := 0; it < 10; it++ {
		inter.Send((r-1+n)%n, mpi.Tag(it), mine)
		v, _ := inter.Recv(r, mpi.Tag(it))
		mine = append(mine, v.([]float64)[it])
	}
	inter.Barrier()
	slots[r] = pinSlot{c.Time(), c.Stats(), mine}
	return nil
}

var pinScenarios = []pinScenario{
	{name: "stencil", ranks: 16, slots: 16, body: pinStencil},
	{name: "spmv", ranks: 16, slots: 16, body: pinSpMV},
	{name: "ring", ranks: 16, slots: 16, body: pinRing},
	{name: "spawn", ranks: 4, slots: 8, spawn: true, body: pinSpawn},
	{name: "inter", ranks: 4, slots: 8, spawn: true, body: pinInter},
}

// pinDigests are the parent tree's values, keyed scenario/transport.
var pinDigests = map[string]uint64{
	"stencil/deep":  0xcdd471a8c6d36d8,
	"stencil/const": 0xbcb793a20121cad9,
	"spmv/deep":     0xe4c03f699b390a85,
	"spmv/const":    0xa2685e48cff52133,
	"ring/deep":     0x537579a7cf0d0adb,
	"ring/const":    0xdd618bbd83e1efd0,
	"spawn/deep":    0xe47a39c73e389d7a,
	"spawn/const":   0xe9ae6fa5f9d93d25,
	"inter/deep":    0xf7eb0d24ec419005,
	"inter/const":   0x70fe999fe294218c,
}

func pinDigest(makespan sim.Time, slots []pinSlot) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(makespan))
	for _, s := range slots {
		put(uint64(s.vt))
		put(s.st.SentMsgs)
		put(s.st.RecvMsgs)
		put(s.st.SentBytes)
		put(s.st.RecvBytes)
		put(uint64(len(s.out)))
		for _, v := range s.out {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

func TestMessagePathPinned(t *testing.T) {
	deepTr := cbp.NewDeepTransport(16, 16)
	transports := []struct {
		name  string
		tr    mpi.Transport
		opts  []mpi.Option
		place func(child int) int
	}{
		// Ranks on the boosters (spawning parents on the cluster, so a
		// lost Place would put the children beside them).
		{"deep", deepTr, []mpi.Option{mpi.WithPlacement(func(ep int) int { return deepTr.BoosterNode(ep % 16) })},
			func(child int) int { return deepTr.BoosterNode(3 * child) }},
		{"const", mpi.ConstTransport{Alpha: 900 * sim.Nanosecond, BetaPerB: 2, OSend: 300 * sim.Nanosecond, ORecv: 250 * sim.Nanosecond},
			nil, func(child int) int { return 100 + child }},
	}
	for _, sc := range pinScenarios {
		for _, tc := range transports {
			key := sc.name + "/" + tc.name
			opts := tc.opts
			if sc.spawn {
				opts = nil
			}
			slots := make([]pinSlot, sc.slots)
			makespan, err := mpi.NewWorld(tc.tr, opts...).Run(sc.ranks, func(c *mpi.Comm) error { return sc.body(c, tc.place, slots) })
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got, want := pinDigest(makespan, slots), pinDigests[key]; got != want {
				t.Errorf("%s: digest %#x (makespan %v), pinned %#x", key, got, makespan, want)
			}
		}
	}
}

// TestStencilAllocationBudget is the tier-1 budget on the message
// path: the bench's mpi_halo stencil (60 000 messages) on a warm
// process. Before the mailbox-owned buffers it took 180 213 mallocs
// and 17.6 MiB; what is left is per-run set-up (goroutine stacks, the
// grids, mailbox growth).
func TestStencilAllocationBudget(t *testing.T) {
	tr := cbp.NewDeepTransport(16, 16)
	place := mpi.WithPlacement(func(ep int) int { return tr.BoosterNode(ep % 16) })
	app := &Stencil2D{NX: 32, NY: 64, Iters: 2000}
	run := func() (mallocs, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := mpi.NewWorld(tr, place).Run(16, func(c *mpi.Comm) error {
			_, err := app.Run(c)
			return err
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	run()
	if mallocs, bytes := run(); mallocs > 2000 || bytes > 1<<20 {
		t.Fatalf("second stencil run: %d mallocs, %.2f MiB; budget 2000 mallocs, 1 MiB", mallocs, float64(bytes)/(1<<20))
	} else {
		t.Logf("second stencil run: %d mallocs, %.2f MiB", mallocs, float64(bytes)/(1<<20))
	}
}
