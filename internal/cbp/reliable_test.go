package cbp

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
)

// transfer runs one reliable transfer over wires with the given
// manglers and returns the received payload and data-frame sends.
func transfer(t *testing.T, msg []byte, dataMangler, ackMangler func(int, []byte) []byte,
	cfg ReliableConfig) ([]byte, int) {
	t.Helper()
	data := NewWire(1024, dataMangler)
	ack := NewWire(1024, ackMangler)
	type sendResult struct {
		sends int
		err   error
	}
	done := make(chan sendResult, 1)
	go func() {
		sends, err := SendReliable(data, ack, 1, 2, msg, cfg)
		done <- sendResult{sends, err}
	}()
	got, err := RecvReliable(data, ack)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("send: %v", res.err)
	}
	data.Close() // release the receiver's linger goroutine
	return got, res.sends
}

// lossFree is the configuration of the loss-free cases: a retransmit
// timer no scheduler stall reaches, so nothing is resent behind an ACK
// that is merely late and the exact send counts hold on a loaded host.
func lossFree() ReliableConfig {
	cfg := DefaultReliableConfig()
	cfg.Timeout = time.Minute
	return cfg
}

func TestReliableLossless(t *testing.T) {
	msg := []byte("across the booster interface")
	got, sends := transfer(t, msg, nil, nil, lossFree())
	if !bytes.Equal(got, msg) {
		t.Fatalf("payload mismatch: %q", got)
	}
	if sends != 1 {
		t.Fatalf("lossless transfer used %d sends", sends)
	}
}

func TestReliableMultiFrame(t *testing.T) {
	r := rng.New(1)
	msg := make([]byte, 3*MaxPayload+777)
	for i := range msg {
		msg[i] = byte(r.Uint64())
	}
	got, sends := transfer(t, msg, nil, nil, lossFree())
	if !bytes.Equal(got, msg) {
		t.Fatal("multi-frame payload mismatch")
	}
	if sends != 4 {
		t.Fatalf("sends = %d, want 4", sends)
	}
}

func TestReliableEmptyMessage(t *testing.T) {
	got, _ := transfer(t, nil, nil, nil, DefaultReliableConfig())
	if len(got) != 0 {
		t.Fatalf("empty message arrived as %d bytes", len(got))
	}
}

// dropList drops the listed send ordinals (1-based).
func dropList(drops ...int) func(int, []byte) []byte {
	set := map[int]bool{}
	for _, d := range drops {
		set[d] = true
	}
	return func(attempt int, buf []byte) []byte {
		if set[attempt] {
			return nil
		}
		return buf
	}
}

func TestReliableRecoversDroppedDataFrame(t *testing.T) {
	msg := make([]byte, 4*MaxPayload)
	for i := range msg {
		msg[i] = byte(i)
	}
	// Drop the second data frame's first transmission: the receiver
	// NACKs when frame 3 arrives out of order.
	got, sends := transfer(t, msg, dropList(2), nil, DefaultReliableConfig())
	if !bytes.Equal(got, msg) {
		t.Fatal("payload mismatch after data drop")
	}
	if sends <= 4 {
		t.Fatalf("no retransmission recorded: %d sends", sends)
	}
}

func TestReliableRecoversDroppedLastFrame(t *testing.T) {
	// Dropping the final frame leaves no later frame to trigger a NACK;
	// only the retransmission timer can recover.
	msg := make([]byte, 2*MaxPayload)
	got, sends := transfer(t, msg, dropList(2), nil, DefaultReliableConfig())
	if !bytes.Equal(got, msg) {
		t.Fatal("payload mismatch after tail drop")
	}
	if sends < 3 {
		t.Fatalf("sends = %d", sends)
	}
}

func TestReliableRecoversCorruptedFrame(t *testing.T) {
	corrupt := func(attempt int, buf []byte) []byte {
		if attempt == 1 {
			buf[len(buf)-1] ^= 0xff // payload corruption, caught by CRC
		}
		return buf
	}
	msg := make([]byte, MaxPayload+10)
	got, _ := transfer(t, msg, corrupt, nil, DefaultReliableConfig())
	if !bytes.Equal(got, msg) {
		t.Fatal("payload mismatch after corruption")
	}
}

func TestReliableRecoversDroppedAcks(t *testing.T) {
	msg := make([]byte, 3*MaxPayload)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	// Drop the first two ACKs: cumulative acking recovers.
	got, _ := transfer(t, msg, nil, dropList(1, 2), DefaultReliableConfig())
	if !bytes.Equal(got, msg) {
		t.Fatal("payload mismatch after ack drops")
	}
}

func TestReliableGivesUpEventually(t *testing.T) {
	data := NewWire(1024, func(int, []byte) []byte { return nil }) // black hole
	ack := NewWire(1024, nil)
	cfg := ReliableConfig{Window: 2, Timeout: 100 * time.Microsecond, MaxResends: 3}
	_, err := SendReliable(data, ack, 1, 2, []byte("doomed"), cfg)
	if err != ErrGiveUp {
		t.Fatalf("err = %v, want ErrGiveUp", err)
	}
}

func TestReliableWindowValidation(t *testing.T) {
	data, ack := NewWire(1, nil), NewWire(1, nil)
	if _, err := SendReliable(data, ack, 1, 2, nil, ReliableConfig{Window: 0}); err == nil {
		t.Fatal("zero window accepted")
	}
}

// TestReliableRandomLossProperty: with random but bounded loss on both
// wires, every transfer completes with an intact payload.
func TestReliableRandomLossProperty(t *testing.T) {
	check := func(seed uint64, n16 uint16) bool {
		r := rng.New(seed)
		msg := make([]byte, int(n16)%(3*MaxPayload)+1)
		for i := range msg {
			msg[i] = byte(r.Uint64())
		}
		// Drop ~20% of transmissions but never the same frame more
		// than 4 times in a row (keeps the test finite under the
		// resend budget).
		mangle := func(src *rng.Source) func(int, []byte) []byte {
			consecutive := 0
			return func(attempt int, buf []byte) []byte {
				if consecutive < 4 && src.Bool(0.2) {
					consecutive++
					return nil
				}
				consecutive = 0
				return buf
			}
		}
		data := NewWire(4096, mangle(r.Split()))
		ack := NewWire(4096, mangle(r.Split()))
		cfg := ReliableConfig{Window: 4, Timeout: 500 * time.Microsecond, MaxResends: 10000}
		errc := make(chan error, 1)
		go func() {
			_, err := SendReliable(data, ack, 1, 2, msg, cfg)
			errc <- err
		}()
		got, err := RecvReliable(data, ack)
		sendErr := <-errc
		data.Close()
		if err != nil || sendErr != nil {
			return false
		}
		return bytes.Equal(got, msg)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
