package resil

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Checkpoint is a multi-level checkpoint/restart cost model in the
// style of DEEP-ER / SCR: every Interval of compute the job writes a
// checkpoint to node-local SSD, and every GlobalEvery-th checkpoint is
// additionally written to the global parallel filesystem. The two
// tiers have distinct write/restore costs (SSD is cheap, the global FS
// is not) and distinct survivability:
//
//   - A plain local checkpoint lives on the node's own SSD and dies
//     with the node. It only protects against a node failure when
//     Buddy is set, which models SCR-style buddy replication to a
//     partner node's SSD at the price of doubling the local write.
//   - A global checkpoint always survives.
//
// On a node failure the job restarts from the newest checkpoint that
// survived: the buddy-replicated local one if Buddy, else the last
// global one. The zero Checkpoint is invalid; Interval must be > 0.
type Checkpoint struct {
	// Interval is the compute time between checkpoints.
	Interval sim.Time
	// LocalWrite and LocalRestore are the SSD-tier costs.
	LocalWrite   sim.Time
	LocalRestore sim.Time
	// GlobalWrite and GlobalRestore are the parallel-FS-tier costs.
	GlobalWrite   sim.Time
	GlobalRestore sim.Time
	// GlobalEvery promotes every k-th checkpoint to the global tier;
	// 0 disables the global tier (local-only checkpointing).
	GlobalEvery int
	// Buddy replicates local checkpoints to a partner node (2x
	// LocalWrite) so they survive the loss of their own node.
	Buddy bool
	// IOWatts is the extra per-node draw while checkpoint or restore
	// I/O is in flight (SSD + filesystem traffic on top of the node's
	// own state power). Zero disables I/O energy accounting.
	IOWatts float64
}

// Validate reports a descriptive error for a malformed model.
func (c *Checkpoint) Validate() error {
	if c.Interval <= 0 {
		return fmt.Errorf("resil: checkpoint interval %v not positive", c.Interval)
	}
	if c.LocalWrite < 0 || c.LocalRestore < 0 || c.GlobalWrite < 0 || c.GlobalRestore < 0 {
		return fmt.Errorf("resil: negative checkpoint cost")
	}
	if c.GlobalEvery < 0 {
		return fmt.Errorf("resil: GlobalEvery %d negative", c.GlobalEvery)
	}
	if c.GlobalEvery == 0 && !c.Buddy {
		return fmt.Errorf("resil: local-only checkpoints without Buddy cannot survive a node failure")
	}
	if c.IOWatts < 0 {
		return fmt.Errorf("resil: negative checkpoint I/O power %v", c.IOWatts)
	}
	return nil
}

// localCost is the wall cost of one local-tier write.
func (c *Checkpoint) localCost() sim.Time {
	if c.Buddy {
		return 2 * c.LocalWrite
	}
	return c.LocalWrite
}

// WriteCost is the wall cost of the i-th checkpoint write (1-based):
// the local tier plus the global tier when i is promoted. The
// observability layer walks it to reconstruct checkpoint span times.
func (c *Checkpoint) WriteCost(i int) sim.Time { return c.writeCost(i) }

// writeCost is the wall cost of the i-th checkpoint (1-based).
func (c *Checkpoint) writeCost(i int) sim.Time {
	w := c.localCost()
	if c.GlobalEvery > 0 && i%c.GlobalEvery == 0 {
		w += c.GlobalWrite
	}
	return w
}

// count returns how many checkpoints a run of `work` compute time
// takes: one after each full Interval, except that a run ending
// exactly on an interval boundary skips the final useless write.
func (c *Checkpoint) count(work sim.Time) int {
	if work <= 0 {
		return 0
	}
	if c.Interval <= 0 {
		panic(fmt.Sprintf("resil: checkpoint interval %v", c.Interval))
	}
	return int((work - 1) / c.Interval)
}

// RunWall returns the wall time to execute `work` of compute with
// checkpoint writes interleaved (restore time not included).
func (c *Checkpoint) RunWall(work sim.Time) sim.Time {
	n := c.count(work)
	wall := work + sim.Time(n)*c.localCost()
	if c.GlobalEvery > 0 {
		wall += sim.Time(n/c.GlobalEvery) * c.GlobalWrite
	}
	return wall
}

// IOEnergyJ returns the checkpoint/restore I/O energy of io wall time
// spent writing or restoring on nodes nodes: the extra joules the
// resilience layer charges into an energy.Recorder on top of the
// nodes' busy draw.
func (c *Checkpoint) IOEnergyJ(io sim.Time, nodes int) float64 {
	if io <= 0 {
		return 0
	}
	return c.IOWatts * io.Seconds() * float64(nodes)
}

// Progress returns, for a run killed `elapsed` wall time after its
// compute started, the compute progress recoverable after a node
// failure and the cost of restoring it. Saved is 0 (and restore 0)
// when no surviving checkpoint completed in time.
func (c *Checkpoint) Progress(elapsed sim.Time) (saved, restore sim.Time) {
	if elapsed <= 0 {
		return 0, 0
	}
	var t, savedLocal, savedGlobal sim.Time
	for i := 1; ; i++ {
		segEnd := t + c.Interval + c.writeCost(i)
		if segEnd > elapsed {
			break
		}
		done := sim.Time(i) * c.Interval
		savedLocal = done
		if c.GlobalEvery > 0 && i%c.GlobalEvery == 0 {
			savedGlobal = done
		}
		t = segEnd
	}
	if c.Buddy && savedLocal > 0 {
		return savedLocal, c.LocalRestore
	}
	if savedGlobal > 0 {
		return savedGlobal, c.GlobalRestore
	}
	return 0, 0
}

// EffectiveWriteSeconds returns the average per-checkpoint wall cost
// in seconds — the delta to feed YoungInterval/DalyInterval when
// choosing Interval for this model.
func (c *Checkpoint) EffectiveWriteSeconds() float64 {
	w := c.localCost().Seconds()
	if c.GlobalEvery > 0 {
		w += c.GlobalWrite.Seconds() / float64(c.GlobalEvery)
	}
	return w
}

// ExpectedWallSeconds returns the classic first-order expected wall
// time (in seconds) to complete `work` seconds of compute under
// exponential failures with the given MTBF, using this model's
// interval and costs: each interval+write segment is retried under the
// memoryless failure law E[T] = (1/rate)(e^(rate*t) - 1), plus a
// restore per failure. It is the analytic curve the E14 sweep is
// compared against.
func (c *Checkpoint) ExpectedWallSeconds(work, mtbf float64) float64 {
	if mtbf <= 0 {
		return work
	}
	rate := 1 / mtbf
	interval := c.Interval.Seconds()
	restore := c.LocalRestore.Seconds()
	if !c.Buddy {
		restore = c.GlobalRestore.Seconds()
	}
	segment := interval + c.EffectiveWriteSeconds()
	segments := work / interval
	// Expected time per segment attempt cycle, with a restore charged
	// on each failed attempt.
	eSeg := (math.Exp(rate*segment) - 1) / rate
	eFailures := math.Exp(rate*segment) - 1
	return segments * (eSeg + eFailures*restore)
}
