package mpi

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

func TestSpawnBasic(t *testing.T) {
	var childRan int64
	w := NewWorld(ZeroTransport{})
	_, err := w.Run(2, func(c *Comm) error {
		inter := c.Spawn(3, DefaultSpawnConfig(), func(child *Comm) error {
			atomic.AddInt64(&childRan, 1)
			if child.Size() != 3 {
				return fmt.Errorf("child world size %d", child.Size())
			}
			p := child.Parent()
			if p == nil {
				return fmt.Errorf("child has no parent intercomm")
			}
			if len(p.remote) != 2 {
				return fmt.Errorf("parent intercomm remote size %d", len(p.remote))
			}
			// Child rank 0 reports to parent rank 0.
			if child.Rank() == 0 {
				p.Send(0, 1, []int{12345})
			}
			return nil
		})
		if len(inter.remote) != 3 {
			return fmt.Errorf("parent side intercomm remote %d", len(inter.remote))
		}
		if c.Rank() == 0 {
			v, _ := inter.Recv(0, 1)
			if v.([]int)[0] != 12345 {
				return fmt.Errorf("intercomm payload %v", v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if childRan != 3 {
		t.Fatalf("children ran %d times", childRan)
	}
}

func TestSpawnBidirectionalTraffic(t *testing.T) {
	w := NewWorld(ZeroTransport{})
	_, err := w.Run(2, func(c *Comm) error {
		inter := c.Spawn(2, DefaultSpawnConfig(), func(child *Comm) error {
			p := child.Parent()
			// Each child echoes to the same-ranked parent.
			v, _ := p.Recv(child.Rank(), 3)
			p.Send(child.Rank(), 4, v)
			return nil
		})
		inter.Send(c.Rank(), 3, []float64{float64(c.Rank() * 11)})
		v, _ := inter.Recv(c.Rank(), 4)
		if got := AsFloat64s(v)[0]; got != float64(c.Rank()*11) {
			return fmt.Errorf("echo got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSpawnCostScalesWithProcesses(t *testing.T) {
	cfg := DefaultSpawnConfig()
	spawnTime := func(n int) sim.Time {
		w := NewWorld(ZeroTransport{})
		var rootTime sim.Time
		_, err := w.Run(1, func(c *Comm) error {
			inter := c.Spawn(n, cfg, func(child *Comm) error {
				child.Parent().Send(0, 1, nil)
				return nil
			})
			for i := 0; i < n; i++ {
				inter.Recv(AnySource, 1)
			}
			rootTime = c.Time()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rootTime
	}
	t4, t64 := spawnTime(4), spawnTime(64)
	wantDelta := sim.Time(60) * cfg.PerProcess
	if t64-t4 < wantDelta {
		t.Fatalf("spawn of 64 (%v) not ~%v dearer than 4 (%v)", t64, wantDelta, t4)
	}
}

func TestSpawnPlacement(t *testing.T) {
	// Children placed on distant nodes must show higher message cost.
	tr := ConstTransport{} // cost computed below via fabric transport instead
	_ = tr
	fabTr := NewFabricTransport(newTestTorus(), extollLike())
	w := NewWorld(fabTr)
	cfg := DefaultSpawnConfig()
	cfg.Place = func(child int) int { return 7 } // far corner of 2x2x2 torus
	_, err := w.Run(1, func(c *Comm) error {
		before := c.Time()
		inter := c.Spawn(1, cfg, func(child *Comm) error {
			child.Parent().Send(0, 1, make([]byte, 1<<20))
			return nil
		})
		_, _ = inter.Recv(0, 1)
		if c.Time() <= before {
			return fmt.Errorf("clock did not advance across spawn")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNestedSpawn(t *testing.T) {
	// Children can spawn grandchildren (the paper's dynamic model).
	var grand int64
	w := NewWorld(ZeroTransport{})
	_, err := w.Run(1, func(c *Comm) error {
		inter := c.Spawn(2, DefaultSpawnConfig(), func(child *Comm) error {
			// The grandchild spawn is collective over the child world:
			// both children together start one group of two.
			g := child.Spawn(2, DefaultSpawnConfig(), func(gc *Comm) error {
				atomic.AddInt64(&grand, 1)
				// Report to the same-ranked child.
				gc.Parent().Send(gc.Rank(), 9, nil)
				return nil
			})
			// Each child hears from the grandchild of its own rank.
			g.Recv(child.Rank(), 9)
			child.Parent().Send(0, 8, nil)
			return nil
		})
		inter.Recv(0, 8)
		inter.Recv(1, 8)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if grand != 2 {
		t.Fatalf("grandchildren = %d, want 2 (one collective spawn)", grand)
	}
}

func TestInterBarrier(t *testing.T) {
	w := NewWorld(ZeroTransport{})
	_, err := w.Run(2, func(c *Comm) error {
		inter := c.Spawn(2, DefaultSpawnConfig(), func(child *Comm) error {
			child.Parent().Barrier()
			return nil
		})
		inter.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSpawnValidation(t *testing.T) {
	w := NewWorld(ZeroTransport{})
	_, err := w.Run(1, func(c *Comm) error {
		defer func() { recover() }()
		c.Spawn(0, DefaultSpawnConfig(), func(*Comm) error { return nil })
		return fmt.Errorf("Spawn(0) accepted")
	})
	if err != nil {
		t.Fatal(err)
	}
}
