// Package cbp models the DEEP Booster Interface (BI) nodes: the SMFU
// store-and-forward gateway bridging the InfiniBand cluster fabric and
// the EXTOLL booster fabric (paper slides 10, 16, 29), and the
// cluster↔booster transport cost model, with no framing or credit flow
// control; link-level CRC and retransmission live in fabric.
package cbp
