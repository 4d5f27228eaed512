package core

import (
	"fmt"
	"slices"
	"time"

	"shmcaffe/internal/smb"
)

// SMB-only bootstrap: form a training job across OS processes with no MPI
// runtime at all, using the memory server itself for rendezvous. The
// master creates the segments; workers poll for them; a boot segment of
// per-rank ready flags provides the startup barrier. This is the shape a
// multi-machine deployment takes with cmd/smbserver plus one
// `shmtrain -rank R -world N` per machine.

// bootSegment returns the bootstrap-barrier segment name.
func bootSegment(job string) string { return job + "/boot" }

// BootstrapOptions tunes the polling rendezvous.
type BootstrapOptions struct {
	// PollInterval is the delay between rendezvous polls (default 20ms).
	PollInterval time.Duration
	// Timeout bounds the whole bootstrap (default 60s).
	Timeout time.Duration
}

func (o *BootstrapOptions) defaults() {
	if o.PollInterval <= 0 {
		o.PollInterval = 20 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = 60 * time.Second
	}
}

// SetupBuffersPolling is SetupBuffers without an MPI communicator: rank 0
// creates and seeds the segments; other ranks poll the server until they
// appear; everyone then passes a ready-flag barrier. All ranks must call
// it with the same job, n and elems.
func SetupBuffersPolling(client smb.Client, job string, rank, n, elems int, initWeights []float32, opts BootstrapOptions) (*JobBuffers, error) {
	return setupBuffers(client, job, rank, n, elems, initWeights, newPollRendezvous(client, job, rank, n, opts))
}

// pollRendezvous meets through the server itself: the master publishes the
// boot segment last, the others poll for it, and the boot segment's
// per-rank ready flags are the barrier.
type pollRendezvous struct {
	client   smb.Client
	job      string
	rank, n  int
	poll     time.Duration
	deadline time.Time
}

func newPollRendezvous(client smb.Client, job string, rank, n int, opts BootstrapOptions) *pollRendezvous {
	opts.defaults()
	return &pollRendezvous{
		client: client, job: job, rank: rank, n: n,
		poll: opts.PollInterval, deadline: time.Now().Add(opts.Timeout),
	}
}

func (r *pollRendezvous) shareKey(smb.SHMKey) (smb.SHMKey, error) {
	if r.rank == 0 {
		if _, err := r.client.Create(bootSegment(r.job), r.n*8); err != nil {
			return 0, fmt.Errorf("create boot: %w", err)
		}
	}
	// Everyone (master included) waits for the segment family. The boot
	// segment is created last by the master, so its presence implies the
	// whole family is ready.
	global := smb.SegmentNames{Job: r.job}.Global()
	for {
		key, err := r.client.Lookup(global)
		if err == nil {
			if _, err := r.client.Lookup(bootSegment(r.job)); err == nil {
				return key, nil
			}
		}
		if time.Now().After(r.deadline) {
			return 0, fmt.Errorf("bootstrap %q rank %d: rendezvous timeout: %w", r.job, r.rank, ErrConfig)
		}
		time.Sleep(r.poll)
	}
}

// barrier marks this rank's ready flag and waits for all of them.
func (r *pollRendezvous) barrier() error {
	bootKey, err := r.client.Lookup(bootSegment(r.job))
	if err != nil {
		return err
	}
	boot, err := r.client.Attach(bootKey)
	if err != nil {
		return err
	}
	if err := smb.WriteInt64(r.client, boot, r.rank, 1); err != nil {
		return err
	}
	for {
		flags, err := smb.ReadInt64Slots(r.client, boot, r.n)
		if err != nil {
			return err
		}
		if !slices.Contains(flags, 0) {
			break
		}
		if time.Now().After(r.deadline) {
			return fmt.Errorf("bootstrap %q rank %d: barrier timeout (flags %v): %w",
				r.job, r.rank, flags, ErrConfig)
		}
		time.Sleep(r.poll)
	}
	return r.client.Detach(boot)
}

// NewWorkerPolling builds a SEASGD worker using the SMB-only rendezvous:
// rank/world are explicit instead of coming from an MPI communicator. The
// returned worker behaves exactly like one from NewWorker.
func NewWorkerPolling(cfg WorkerConfig, rank, world int, opts BootstrapOptions) (*Worker, error) {
	if cfg.Comm != nil {
		return nil, fmt.Errorf("polling bootstrap excludes an MPI comm: %w", ErrConfig)
	}
	if err := cfg.validateCommon(); err != nil {
		return nil, err
	}
	return newWorker(cfg, rank, world, newPollRendezvous(cfg.Client, cfg.Job, rank, world, opts))
}
