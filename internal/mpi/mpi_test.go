package mpi

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

func TestSendRecvBasic(t *testing.T) {
	_, err := Run(2, ZeroTransport{}, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			c.Send(1, 7, []float64{1, 2, 3})
		case 1:
			v, st := c.Recv(0, 7)
			f := v.([]float64)
			if len(f) != 3 || f[2] != 3 {
				return fmt.Errorf("payload %v", f)
			}
			if st.Source != 0 || st.Tag != 7 || st.Bytes != 24 {
				return fmt.Errorf("status %+v", st)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderingPerPair(t *testing.T) {
	_, err := Run(2, ZeroTransport{}, func(c *Comm) error {
		const n = 100
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 3, []int{i})
			}
			return nil
		}
		for i := 0; i < n; i++ {
			v, _ := c.Recv(0, 3)
			if got := v.([]int)[0]; got != i {
				return fmt.Errorf("message %d arrived as %d", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWildcards(t *testing.T) {
	_, err := Run(3, ZeroTransport{}, func(c *Comm) error {
		if c.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				v, st := c.Recv(AnySource, AnyTag)
				seen[st.Source] = true
				if v.([]int)[0] != st.Source {
					return fmt.Errorf("payload/source mismatch")
				}
			}
			if !seen[1] || !seen[2] {
				return fmt.Errorf("sources seen: %v", seen)
			}
			return nil
		}
		c.Send(0, Tag(c.Rank()), []int{c.Rank()})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagSelectivity(t *testing.T) {
	_, err := Run(2, ZeroTransport{}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 5, []int{5})
			c.Send(1, 9, []int{9})
			return nil
		}
		// Receive tag 9 first even though tag 5 arrived first.
		v9, _ := c.Recv(0, 9)
		v5, _ := c.Recv(0, 5)
		if v9.([]int)[0] != 9 || v5.([]int)[0] != 5 {
			return fmt.Errorf("tag matching broken: %v %v", v9, v5)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRankFailurePropagates(t *testing.T) {
	_, err := Run(2, ZeroTransport{}, func(c *Comm) error {
		if c.Rank() == 1 {
			return fmt.Errorf("deliberate failure")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("err = %v", err)
	}
}

func TestPanicBecomesError(t *testing.T) {
	_, err := Run(2, ZeroTransport{}, func(c *Comm) error {
		if c.Rank() == 0 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

// TestRunErrorsJoin: Run wraps a failed rank's error, returned or
// panicked, so that errors.Is finds it.
func TestRunErrorsJoin(t *testing.T) {
	sentinel := errors.New("boom")
	for name, fail := range map[string]func() error{
		"returned": func() error { return sentinel },
		"panicked": func() error { panic(sentinel) },
	} {
		_, err := Run(4, ZeroTransport{}, func(c *Comm) error {
			if c.Rank() == 3 {
				return fail()
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("%s: expected wrapped rank error, got %v", name, err)
		}
	}
}

func TestVirtualClockAdvances(t *testing.T) {
	tr := ConstTransport{
		Alpha:    10 * sim.Microsecond,
		BetaPerB: sim.Nanosecond,
		OSend:    sim.Microsecond,
		ORecv:    sim.Microsecond,
	}
	makespan, err := Run(2, tr, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, make([]byte, 1000))
			return nil
		}
		_, _ = c.Recv(0, 1)
		// osend(1us) + alpha(10us) + 1000B*1ns(1us) = 12us at receiver.
		want := 12 * sim.Microsecond
		if c.Time() != want {
			return fmt.Errorf("recv clock %v, want %v", c.Time(), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if makespan != 12*sim.Microsecond {
		t.Fatalf("makespan %v", makespan)
	}
}

func TestRecvOverheadDominatesWhenMessageEarly(t *testing.T) {
	tr := ConstTransport{ORecv: 5 * sim.Microsecond}
	_, err := Run(2, tr, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, nil)
			return nil
		}
		c.Advance(time100us())
		_, _ = c.Recv(0, 1)
		want := time100us() + 5*sim.Microsecond
		if c.Time() != want {
			return fmt.Errorf("clock %v, want %v", c.Time(), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func time100us() sim.Time { return 100 * sim.Microsecond }

func TestAdvanceNegativePanics(t *testing.T) {
	_, err := Run(1, ZeroTransport{}, func(c *Comm) error {
		defer func() { recover() }()
		c.Advance(-1)
		return fmt.Errorf("no panic")
	})
	if err != nil && !strings.Contains(err.Error(), "no panic") {
		t.Fatal(err)
	}
}

func TestStatsCounters(t *testing.T) {
	_, err := Run(2, ZeroTransport{}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, make([]byte, 100))
			s := c.Stats()
			if s.SentMsgs != 1 || s.SentBytes != 100 {
				return fmt.Errorf("sender stats %+v", s)
			}
			return nil
		}
		c.Recv(0, 1)
		s := c.Stats()
		if s.RecvMsgs != 1 || s.RecvBytes != 100 {
			return fmt.Errorf("receiver stats %+v", s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentPairsNoCrosstalk(t *testing.T) {
	const n = 8
	var total int64
	_, err := Run(n, ZeroTransport{}, func(c *Comm) error {
		partner := c.Rank() ^ 1
		for i := 0; i < 50; i++ {
			c.Send(partner, Tag(i%3), []int{c.Rank()*1000 + i})
			v, _ := c.Recv(partner, Tag(i%3))
			got := v.([]int)[0]
			if got/1000 != partner {
				return fmt.Errorf("crosstalk: rank %d got %d", c.Rank(), got)
			}
			atomic.AddInt64(&total, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != n*50 {
		t.Fatalf("exchanges = %d", total)
	}
}

func TestPayloadBytes(t *testing.T) {
	cases := []struct {
		v    any
		want int
	}{
		{nil, 0},
		{[]byte{1, 2, 3}, 3},
		{[]float64{1, 2}, 16},
		{[]float32{1}, 4},
		{[]int{1, 2, 3}, 24},
		{[]int32{1}, 4},
		{[]int64{1}, 8},
		{"hello", 5},
		{3.14, 8},
		{int(1), 8},
		{int64(1), 8},
		{uint64(1), 8},
		{float32(1), 4},
		{int32(1), 4},
		{uint32(1), 4},
		{true, 1},
		{int8(1), 1},
		{uint8(1), 1},
		{Sized{Data: "x", Bytes: 1 << 20}, 1 << 20},
	}
	for _, c := range cases {
		if got := PayloadBytes(c.v); got != c.want {
			t.Errorf("PayloadBytes(%T) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestPayloadBytesUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown payload type accepted")
		}
	}()
	PayloadBytes(struct{ X int }{})
}

func TestRunZeroRanksFails(t *testing.T) {
	if _, err := Run(0, ZeroTransport{}, func(*Comm) error { return nil }); err == nil {
		t.Fatal("Run(0) accepted")
	}
}

func TestFabricTransportCost(t *testing.T) {
	tr := NewFabricTransport(topology.NewTorus3D(4, 1, 1), extollLike())
	// Same node: zero network cost.
	if c := tr.Cost(0, 0, 1000); c != 0 {
		t.Fatalf("loopback cost %v", c)
	}
	// More hops cost more.
	if tr.Cost(0, 1, 0) >= tr.Cost(0, 2, 0) {
		t.Fatal("cost not increasing with distance")
	}
	// More bytes cost more.
	if tr.Cost(0, 1, 10) >= tr.Cost(0, 1, 1000000) {
		t.Fatal("cost not increasing with size")
	}
}
