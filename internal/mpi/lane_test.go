package mpi

import (
	"fmt"
	"strings"
	"testing"
)

func TestLaneAllocations(t *testing.T) {
	const runs = 200
	var typed, boxed float64
	_, err := Run(2, ZeroTransport{}, func(c *Comm) error {
		buf := make([]float64, 32)
		if c.Rank() == 1 {
			// Echo every ping of the typed phase: the warm-up and the runs.
			for i := 0; i < runs+1; i++ {
				c.RecvFloat64s(0, 1, buf)
				c.SendFloat64s(0, 2, buf)
			}
			return nil
		}
		typed = testing.AllocsPerRun(runs, func() {
			c.SendFloat64s(1, 1, buf)
			c.RecvFloat64s(1, 2, buf)
		})
		// One Send and one Recv: a message to oneself.
		boxed = testing.AllocsPerRun(runs, func() {
			c.Send(0, 3, buf)
			c.Recv(0, 3)
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if typed != 0 {
		t.Errorf("warm SendFloat64s+RecvFloat64s round trip: %v allocations, want 0", typed)
	}
	if boxed > 3 {
		t.Errorf("Send+Recv of a []float64: %v allocations, want <= 3", boxed)
	}
}

func TestSenderMayReuseBufferAtOnce(t *testing.T) {
	runN(t, 2, func(c *Comm) error {
		const rounds = 20
		if c.Rank() == 0 {
			buf := make([]float64, 4)
			for i := 0; i < rounds; i++ {
				for j := range buf {
					buf[j] = float64(i)
				}
				c.SendFloat64s(1, 1, buf)
				buf[0] = -1
				c.Send(1, 2, buf[1:])
				buf[1] = -1
			}
			return nil
		}
		into := make([]float64, 4)
		for i := 0; i < rounds; i++ {
			n, st := c.RecvFloat64s(0, 1, into)
			v, _ := c.Recv(0, 2)
			if n != 4 || st.Bytes != 32 || into[0] != float64(i) || v.([]float64)[0] != float64(i) {
				return fmt.Errorf("round %d: received %v (%d floats) and %v", i, into, n, v)
			}
		}
		return nil
	})
}

// TestRecvAnyKeepsItsSlice: a []float64 received through Recv belongs
// to the caller; no later message may land in it.
func TestRecvAnyKeepsItsSlice(t *testing.T) {
	runN(t, 2, func(c *Comm) error {
		const later = 10
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1, 1})
			for i := 0; i < later; i++ {
				c.SendFloat64s(1, 2, []float64{9, 9})
			}
			return nil
		}
		v, _ := c.Recv(0, 1)
		kept := v.([]float64)
		into := make([]float64, 2)
		for i := 0; i < later; i++ {
			if i%2 == 0 {
				c.RecvFloat64s(0, 2, into)
			} else {
				c.Recv(0, 2)
			}
		}
		if kept[0] != 1 || kept[1] != 1 {
			return fmt.Errorf("slice from Recv overwritten: %v", kept)
		}
		return nil
	})
}

// probe reports whether a message matching src and tag is queued on c,
// without receiving it.
func probe(c *Comm, src int, tag Tag) (Status, bool) {
	ep := c.ep
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if i := ep.match(c.ctx, src, tag); i >= 0 {
		return ep.box[i].status(), true
	}
	return Status{}, false
}

func TestEmptyNilAndProbedPayloads(t *testing.T) {
	runN(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{})
			c.Send(1, 2, nil)
			c.SendFloat64s(1, 3, nil)
			c.SendFloat64s(1, 4, []float64{1, 2, 3})
			return nil
		}
		v, st := c.Recv(0, 1)
		if f, ok := v.([]float64); !ok || len(f) != 0 || st.Bytes != 0 {
			return fmt.Errorf("empty []float64 arrived as %#v, %d bytes", v, st.Bytes)
		}
		if v, st := c.Recv(0, 2); v != nil || st.Bytes != 0 {
			return fmt.Errorf("nil payload arrived as %#v, %d bytes", v, st.Bytes)
		}
		if n, st := c.RecvFloat64s(0, 3, nil); n != 0 || st.Bytes != 0 {
			return fmt.Errorf("nil SendFloat64s arrived as %d floats, %d bytes", n, st.Bytes)
		}
		for {
			if st, ok := probe(c, AnySource, AnyTag); ok {
				if st != (Status{Source: 0, Tag: 4, Bytes: 24}) {
					return fmt.Errorf("probe of a typed message: %+v", st)
				}
				break
			}
		}
		if _, ok := probe(c, 0, 5); ok {
			return fmt.Errorf("probe matched a tag nobody sent")
		}
		into := make([]float64, 8)
		if n, _ := c.RecvFloat64s(0, 4, into); n != 3 || into[2] != 3 {
			return fmt.Errorf("received %d floats: %v", n, into)
		}
		return nil
	})
}

func TestRecvFloat64sMisusePanicsWithAddress(t *testing.T) {
	for _, tc := range []struct {
		want string
		send func(c *Comm)
	}{
		{"5 floats do not fit a buffer of 4", func(c *Comm) { c.SendFloat64s(1, 7, make([]float64, 5)) }},
		{"payload is []int, not []float64", func(c *Comm) { c.Send(1, 7, []int{1}) }},
		{"payload is <nil>, not []float64", func(c *Comm) { c.Send(1, 7, nil) }},
	} {
		_, err := Run(2, ZeroTransport{}, func(c *Comm) error {
			if c.Rank() == 0 {
				tc.send(c)
			} else {
				c.RecvFloat64s(0, 7, make([]float64, 4))
			}
			return nil
		})
		if err == nil {
			t.Fatalf("%s: no error", tc.want)
		}
		for _, want := range []string{"rank 1", "source 0", "tag 7", tc.want} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not say %q", err, want)
			}
		}
	}
}

// TestMailboxBuffersBounded drives one mailbox with bursts of mixed
// sizes and depths: every message must read back intact, no two live
// buffers may alias, and the mailbox must never own more buffers
// (queued plus free) than its deepest queue so far.
func TestMailboxBuffersBounded(t *testing.T) {
	runN(t, 1, func(c *Comm) error {
		ep, peak := c.ep, 0
		check := func(when string) error {
			if len(ep.box) > peak {
				peak = len(ep.box)
			}
			seen := map[*float64]bool{}
			bufs := append([][]float64(nil), ep.free...)
			for _, env := range ep.box {
				bufs = append(bufs, env.f64)
			}
			for _, b := range bufs {
				if b = b[:cap(b)]; len(b) > 0 {
					if seen[&b[0]] {
						return fmt.Errorf("%s: two live buffers share memory", when)
					}
					seen[&b[0]] = true
				}
			}
			if len(bufs) > peak {
				return fmt.Errorf("%s: mailbox owns %d buffers, peak depth %d", when, len(bufs), peak)
			}
			return nil
		}
		into := make([]float64, 64)
		for round := 0; round < 200; round++ {
			depth := 1 + (round*7)%5
			for m := 0; m < depth; m++ {
				msg := make([]float64, 1+(round*13+m*29)%64)
				for i := range msg {
					msg[i] = float64(round*1000 + m)
				}
				c.SendFloat64s(0, Tag(m), msg)
				if err := check("after send"); err != nil {
					return err
				}
			}
			for m := depth - 1; m >= 0; m-- { // out of order: match skips the queue's head
				n, _ := c.RecvFloat64s(0, Tag(m), into)
				if want := 1 + (round*13+m*29)%64; n != want || into[0] != float64(round*1000+m) || into[n-1] != into[0] {
					return fmt.Errorf("round %d message %d: %d floats (want %d), first %v", round, m, n, want, into[0])
				}
				if err := check("after receive"); err != nil {
					return err
				}
			}
		}
		if len(ep.free) != peak {
			return fmt.Errorf("%d free buffers after the run, peak depth %d", len(ep.free), peak)
		}
		// A buffer Recv hands out is the caller's, even an empty one.
		c.SendFloat64s(0, 0, nil)
		c.Recv(0, 0)
		if len(ep.free) != peak-1 {
			return fmt.Errorf("%d free buffers after an empty Recv, want %d", len(ep.free), peak-1)
		}
		return nil
	})
}
