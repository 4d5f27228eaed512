package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"shmcaffe/internal/dataset"
)

// slowDataset wraps a dataset with a per-sample delay, modeling the
// "deviations in computation time between deep learning workers" of
// Sec. III-E (shared bus, file I/O, network contention).
type slowDataset struct {
	dataset.Dataset
	delay time.Duration
}

func (s *slowDataset) Sample(i int, x []float32) int {
	time.Sleep(s.delay)
	return s.Dataset.Sample(i, x)
}

// TestTerminationAlignmentWithStraggler: one worker is 5× slower. With
// StopOnMaster (master is fast), the straggler is cut off near the
// master's finish instead of running its full budget — the utilization
// win of Sec. III-E.
func TestTerminationAlignmentWithStraggler(t *testing.T) {
	job := newTestJob(t, 3, 31)
	stats := runWorkers(t, job, func(rank int, cfg *WorkerConfig) {
		cfg.Termination = StopOnMaster
		cfg.MaxIterations = 30
		if rank == 2 {
			// Rebuild rank 2's loader over a slowed shard.
			shard, err := dataset.NewShard(job.ds, 2, 3)
			if err != nil {
				t.Fatal(err)
			}
			loader, err := dataset.NewLoader(&slowDataset{Dataset: shard, delay: 500 * time.Microsecond}, 16, 99)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Loader = loader
		}
	})
	if stats[0].Iterations < 30 {
		t.Fatalf("master stopped early: %d", stats[0].Iterations)
	}
	// The straggler must not have completed anywhere near its own budget
	// beyond the master's; alignment cut it off.
	if stats[2].Iterations > 3*stats[0].Iterations {
		t.Fatalf("straggler ran %d iterations vs master %d — alignment failed",
			stats[2].Iterations, stats[0].Iterations)
	}
	if stats[2].StoppedBy == "budget" {
		t.Fatalf("straggler stopped by %q, expected alignment", stats[2].StoppedBy)
	}
}

// TestProgressCountersVisibleAcrossWorkers: the control segment exposes
// every worker's iteration count to every other worker. The master reads
// the counters at its iteration 20, once the peer has published its first
// iteration — a peer the host has not yet scheduled has nothing to show.
func TestProgressCountersVisibleAcrossWorkers(t *testing.T) {
	job := newTestJob(t, 2, 32)
	var once, published sync.Once
	peerPublished := make(chan struct{})
	var observed []int64
	stats := runWorkers(t, job, func(rank int, cfg *WorkerConfig) {
		if rank != 0 {
			cfg.Hook = func(_ *Worker, iter int) error {
				// Progress is reported after the hook, so iteration 1's
				// hook runs after iteration 0's count was published.
				if iter == 1 {
					published.Do(func() { close(peerPublished) })
				}
				return nil
			}
			return
		}
		cfg.Hook = func(w *Worker, iter int) error {
			if iter == 20 {
				select {
				case <-peerPublished:
				case <-time.After(10 * time.Second):
					return errors.New("peer never reached its iteration 1")
				}
				once.Do(func() {
					p, err := w.Buffers().Progress()
					if err != nil {
						t.Error(err)
						return
					}
					observed = append(observed, p...)
				})
			}
			return nil
		}
	})
	if len(observed) != 2 {
		t.Fatalf("observed %v", observed)
	}
	if observed[0] < 20 {
		t.Fatalf("own progress %d < 20", observed[0])
	}
	if observed[1] < 1 {
		t.Fatalf("peer progress invisible: %v (peer ran %d)", observed, stats[1].Iterations)
	}
}
