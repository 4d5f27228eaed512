package core

import (
	"time"

	"shmcaffe/internal/telemetry"
)

// Crash-aware termination alignment. The paper's Sec. III-E protocol reads
// per-worker progress counters and assumes every counter keeps moving until
// its worker decides to stop; a crashed worker freezes its counter and, under
// StopOnAverage or a dead master under StopOnMaster, freezes the whole job
// with it. The liveness tracker turns the heartbeat block of the control
// segment into a per-worker alive/dead view that the termination predicate
// consumes (ShouldStopAlive), so survivors align termination among
// themselves.
//
// Death is detected two ways:
//
//   - tombstone: a worker failing on purpose writes deadTombstone on its
//     way out (JobBuffers.MarkDead) — observed immediately;
//   - staleness: a worker that crashed without last words stops advancing
//     its beat; when a beat has not moved for longer than the timeout, the
//     worker is declared dead. The timeout must comfortably exceed the
//     worst-case gap between beats (one iteration + one SEASGD exchange),
//     or slow workers get declared dead and excluded from the average —
//     safe for termination (their counters still count toward StopOnFirst
//     and their pushes still land) but noisy.
type livenessTracker struct {
	self    int
	timeout time.Duration
	now     func() time.Time

	beats []int64     // latest read of the heartbeat block
	seen  []time.Time // when beats[i] last advanced
	last  []int64     // the beat value at seen[i]
	alive []bool
	// ref is the lowest-ranked live worker — the StopOnMaster progress
	// reference. Tracked so its death (and the implied re-election of the
	// next live rank) lands in the flight recorder.
	ref int
}

// newLivenessTracker builds a tracker for n workers observing from rank
// self. A zero timeout disables staleness detection (tombstones still
// count).
func newLivenessTracker(self, n int, timeout time.Duration, now func() time.Time) *livenessTracker {
	if now == nil {
		now = time.Now
	}
	t := &livenessTracker{
		self:    self,
		timeout: timeout,
		now:     now,
		beats:   make([]int64, n),
		seen:    make([]time.Time, n),
		last:    make([]int64, n),
		alive:   make([]bool, n),
	}
	start := now()
	for i := range t.alive {
		t.alive[i] = true
		t.seen[i] = start
		t.last[i] = -2 // below any real beat and the tombstone
	}
	return t
}

// observe ingests a fresh read of the heartbeat block and returns the
// updated alive view. The returned slice is reused across calls — consume
// before the next observe. Death is permanent: a worker that re-appears
// after being declared dead stays excluded (its replacement would rejoin
// under a fresh rank, not by haunting an old slot).
func (t *livenessTracker) observe(beats []int64) []bool {
	now := t.now()
	for i := range t.alive {
		if !t.alive[i] || i == t.self {
			continue // dead stays dead; self is alive by definition
		}
		b := beats[i]
		if b == deadTombstone {
			t.declareDead(i)
			continue
		}
		if b > t.last[i] {
			t.last[i] = b
			t.seen[i] = now
			continue
		}
		if t.timeout > 0 && now.Sub(t.seen[i]) > t.timeout {
			t.declareDead(i)
		}
	}
	return t.alive
}

// declareDead marks rank i dead and records the transition (plus the
// StopOnMaster re-election it implies when i was the progress reference)
// into the flight recorder.
func (t *livenessTracker) declareDead(i int) {
	t.alive[i] = false
	telemetry.RecordEvent(telemetry.EvWorkerDead, int64(t.self), int64(i), 0)
	if i != t.ref {
		return
	}
	for r, a := range t.alive {
		if a {
			t.ref = r
			telemetry.RecordEvent(telemetry.EvReElection, int64(t.self), int64(r), 0)
			return
		}
	}
}

// deadRanks appends the ranks currently considered dead to dst (none when
// liveness tracking is off, i.e. t is nil).
func (t *livenessTracker) deadRanks(dst []int) []int {
	if t == nil {
		return dst
	}
	for i, a := range t.alive {
		if !a {
			dst = append(dst, i)
		}
	}
	return dst
}
