package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"shmcaffe/internal/mpi"
	"shmcaffe/internal/smb"
)

// TestPollingBootstrapTrains forms a 3-worker job with no MPI at all —
// only the SMB store for rendezvous — and verifies training proceeds
// exactly as with the MPI bootstrap.
func TestPollingBootstrapTrains(t *testing.T) {
	job := newTestJob(t, 3, 51) // world only used for data sharding here
	opts := BootstrapOptions{PollInterval: time.Millisecond, Timeout: 10 * time.Second}

	stats := make([]*RunStats, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := job.workerConfig(t, r, "pjob")
			cfg.Comm = nil // the polling path forbids a communicator
			cfg.MaxIterations = 30
			w, err := NewWorkerPolling(cfg, r, 3, opts)
			if err != nil {
				errs[r] = err
				return
			}
			stats[r], errs[r] = w.Run()
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for _, s := range stats {
		if s.Iterations != 30 || s.Pushes == 0 {
			t.Fatalf("stats %+v", s)
		}
	}
	// The boot barrier segment exists alongside the Fig. 5 family.
	client := smb.NewLocalClient(job.store)
	if _, err := client.Lookup(bootSegment("pjob")); err != nil {
		t.Fatalf("boot segment missing: %v", err)
	}
}

func TestPollingBootstrapValidation(t *testing.T) {
	job := newTestJob(t, 1, 52)
	cfg := job.workerConfig(t, 0, "v")
	cfg.Comm = nil
	if _, err := NewWorkerPolling(cfg, 0, 0, BootstrapOptions{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig for world 0, got %v", err)
	}
	cfgWithComm := job.workerConfig(t, 0, "v2")
	if _, err := NewWorkerPolling(cfgWithComm, 0, 1, BootstrapOptions{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig when comm set, got %v", err)
	}
}

// tracingClient wraps a LocalClient with a no-op TraceCarrier surface,
// modeling the supervised TCP client multi-process workers actually use
// (which also streams its pushes).
type tracingClient struct {
	*smb.LocalClient
	tc smb.TraceContext
}

func (c *tracingClient) SetTraceContext(tc smb.TraceContext) { c.tc = tc }
func (c *tracingClient) ClearTraceContext()                  { c.tc = smb.TraceContext{} }

// TestPollingBootstrapCapturesCarrier: both rendezvous must feature-test
// the client the same way. A bootstrap that skips a probe silently runs
// every worker it builds unfused or untraced — for the polling path that
// is every multi-process worker, and the merged fleet trace then has zero
// cross-node chains.
func TestPollingBootstrapCapturesCarrier(t *testing.T) {
	opts := BootstrapOptions{PollInterval: time.Millisecond, Timeout: 10 * time.Second}
	for _, tc := range []struct {
		name  string
		setup func(client smb.Client, job string, elems int, seed []float32) (*JobBuffers, error)
	}{
		{"mpi", func(client smb.Client, job string, elems int, seed []float32) (*JobBuffers, error) {
			world, err := mpi.NewWorld(1)
			if err != nil {
				return nil, err
			}
			comm, err := world.Comm(0)
			if err != nil {
				return nil, err
			}
			return SetupBuffers(comm, client, job, elems, seed)
		}},
		{"polling", func(client smb.Client, job string, elems int, seed []float32) (*JobBuffers, error) {
			return SetupBuffersPolling(client, job, 0, 1, elems, seed, opts)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := smb.NewStore()
			const elems = 16
			seed := make([]float32, elems)
			traced, err := tc.setup(&tracingClient{LocalClient: smb.NewLocalClient(store)}, "carrier", elems, seed)
			if err != nil {
				t.Fatal(err)
			}
			if traced.TraceCarrier() == nil {
				t.Error("bootstrap dropped the client's TraceCarrier")
			}
			if !traced.CanStreamPush() {
				t.Error("bootstrap dropped the client's WriteAccumulate")
			}
			bare, err := tc.setup(smb.NewLocalClient(store), "carrier2", elems, seed)
			if err != nil {
				t.Fatal(err)
			}
			if bare.TraceCarrier() != nil {
				t.Error("a client without SetTraceContext must yield a nil carrier")
			}
			if !bare.CanStreamPush() {
				t.Error("LocalClient streams its pushes")
			}
		})
	}
}

// TestPollingBootstrapTimesOutWithoutMaster: a non-master rank alone must
// fail with a rendezvous timeout, not hang.
func TestPollingBootstrapTimesOutWithoutMaster(t *testing.T) {
	job := newTestJob(t, 2, 53)
	cfg := job.workerConfig(t, 1, "orphan")
	cfg.Comm = nil
	opts := BootstrapOptions{PollInterval: time.Millisecond, Timeout: 50 * time.Millisecond}
	if _, err := NewWorkerPolling(cfg, 1, 2, opts); !errors.Is(err, ErrConfig) {
		t.Fatalf("want timeout error, got %v", err)
	}
}
