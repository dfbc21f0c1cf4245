package apps

import (
	"repro/internal/rng"
	"repro/internal/topology"
)

// Traffic patterns for the fabric experiments: lists of (src, dst,
// bytes) messages injected into a fabric.Network.

// Message is one transfer of a synthetic pattern.
type Message struct {
	Src, Dst topology.NodeID
	Bytes    int
}

// UniformRandom generates count messages between uniformly random
// distinct node pairs.
func UniformRandom(n, count, bytes int, src *rng.Source) []Message {
	msgs := make([]Message, 0, count)
	for i := 0; i < count; i++ {
		s := src.Intn(n)
		d := src.Intn(n)
		for d == s && n > 1 {
			d = src.Intn(n)
		}
		msgs = append(msgs, Message{Src: topology.NodeID(s), Dst: topology.NodeID(d), Bytes: bytes})
	}
	return msgs
}

// TotalBytes sums the pattern's traffic volume.
func TotalBytes(msgs []Message) int {
	total := 0
	for _, m := range msgs {
		total += m.Bytes
	}
	return total
}
