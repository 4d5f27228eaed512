package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"shmcaffe/internal/mpi"
	"shmcaffe/internal/smb"
	"shmcaffe/internal/tensor"
)

// JobBuffers is one worker's view of the SMB segment layout of Fig. 5:
// the shared global-weight buffer Wg, the worker's private weight-increment
// buffer ΔWx, and the control segment carrying per-worker progress counters
// plus a stop flag (Sec. III-E).
type JobBuffers struct {
	client smb.Client
	// carrier is non-nil when client can stamp cross-process trace contexts
	// onto its wire frames (smb.StreamClient and smb.SupervisedClient do).
	carrier smb.TraceCarrier
	// wacc is non-nil when client supports the chunk-pipelined
	// WRITE+ACCUMULATE sequence (all in-repo clients do; test doubles that
	// wrap the interface fall back to the split Write+Accumulate pair).
	wacc  smb.WriteAccumulator
	rank  int
	n     int
	elems int

	global  smb.Handle // Wg (shared)
	incr    smb.Handle // ΔWx (private to this worker)
	control smb.Handle // progress counters + stop flag

	// scratch buffers reused across iterations
	wgBytes []byte
	dwBytes []byte
}

// Control segment layout: n int64 iteration counters, one int64 stop flag
// (slot n), then n int64 heartbeat slots (slots n+1 .. 2n), then n int64
// wall-clock slots (slots 2n+1 .. 3n). A heartbeat slot carries a
// monotonically increasing beat while its worker lives and the tombstone
// value when the worker dies on purpose (MarkDead); a worker that crashes
// without a tombstone is detected by its beat going stale (see
// livenessTracker). A clock slot carries the worker's wall clock
// (UnixNano) as of its last beat — the per-node clock sample a fleet
// aggregator (shmtop) uses to estimate cross-node clock offsets when
// aligning merged traces.
func controlSize(n int) int { return ControlSegmentSlots(n) * 8 }

// ControlSegmentSlots returns the number of int64 slots in the control
// segment of an n-worker job (progress + stop flag + heartbeats + clocks).
func ControlSegmentSlots(n int) int { return 3*n + 1 }

// deadTombstone is the heartbeat value a worker writes on its way out of a
// failed Run — an explicit obituary, faster to detect than staleness.
const deadTombstone int64 = -1

// DeadTombstone is the exported view of the heartbeat tombstone, for
// diagnostics that read the control segment from outside the worker
// (fleet aggregators, tests).
const DeadTombstone = deadTombstone

// SetupBuffers performs the Fig. 2 bootstrap. The master (rank 0) creates
// the Wg and control segments and seeds Wg with initWeights; every rank
// creates its own increment segment; the master broadcasts the Wg SHM key
// over MPI and everyone attaches. The call is collective: all ranks of
// comm's world must invoke it.
func SetupBuffers(comm *mpi.Comm, client smb.Client, job string, elems int, initWeights []float32) (*JobBuffers, error) {
	return setupBuffers(client, job, comm.Rank(), comm.Size(), elems, initWeights, mpiRendezvous{comm})
}

// rendezvous is how the ranks of a job meet during the buffer bootstrap.
// It is the only part of the bootstrap that differs between the MPI
// (SetupBuffers) and SMB-only (SetupBuffersPolling) paths.
type rendezvous interface {
	// shareKey runs once the master has created the segment family; it
	// returns the Wg key on every rank (key is the master's, the zero key
	// elsewhere).
	shareKey(key smb.SHMKey) (smb.SHMKey, error)
	// barrier returns once every rank has attached its buffers.
	barrier() error
}

// mpiRendezvous is Fig. 2's: broadcast the key, then an MPI barrier.
type mpiRendezvous struct{ comm *mpi.Comm }

func (r mpiRendezvous) shareKey(key smb.SHMKey) (smb.SHMKey, error) {
	var keyBuf [8]byte
	binary.LittleEndian.PutUint64(keyBuf[:], uint64(key))
	out, err := r.comm.Bcast(0, keyBuf[:])
	if err != nil {
		return 0, fmt.Errorf("broadcast shm key: %w", err)
	}
	return smb.SHMKey(binary.LittleEndian.Uint64(out)), nil
}

func (r mpiRendezvous) barrier() error {
	r.comm.Barrier()
	return nil
}

// setupBuffers is the one buffer bootstrap behind both rendezvous: rank 0
// creates the Wg and control segments; rv shares the Wg key; every rank
// attaches Wg (rank 0 seeds it: the master worker "initializes
// parameter", Sec. III-A), creates and attaches its increment segment,
// attaches the control segment, and waits at rv's barrier before anyone
// writes.
func setupBuffers(client smb.Client, job string, rank, n, elems int, initWeights []float32, rv rendezvous) (*JobBuffers, error) {
	if elems <= 0 || n < 1 || rank < 0 || rank >= n {
		return nil, fmt.Errorf("setup %q rank %d of %d, %d elems: %w", job, rank, n, elems, ErrConfig)
	}
	names := smb.SegmentNames{Job: job}

	var globalKey smb.SHMKey
	if rank == 0 {
		if len(initWeights) != elems {
			return nil, fmt.Errorf("setup %q: %d init weights for %d elements: %w",
				job, len(initWeights), elems, ErrConfig)
		}
		key, err := client.Create(names.Global(), elems*4)
		if err != nil {
			return nil, fmt.Errorf("create global: %w", err)
		}
		globalKey = key
		if _, err := client.Create(names.Control(), controlSize(n)); err != nil {
			return nil, fmt.Errorf("create control: %w", err)
		}
	}

	globalKey, err := rv.shareKey(globalKey)
	if err != nil {
		return nil, err
	}
	global, err := client.Attach(globalKey)
	if err != nil {
		return nil, fmt.Errorf("attach global: %w", err)
	}
	// Seed Wg so all replicas start from the same point. The barrier below
	// orders it before every other rank's first read.
	if rank == 0 {
		if err := client.Write(global, 0, tensor.Float32Bytes(initWeights)); err != nil {
			return nil, fmt.Errorf("seed global: %w", err)
		}
	}
	incrKey, err := client.Create(names.Increment(rank), elems*4)
	if err != nil {
		return nil, fmt.Errorf("create increment: %w", err)
	}
	incr, err := client.Attach(incrKey)
	if err != nil {
		return nil, fmt.Errorf("attach increment: %w", err)
	}
	ctlKey, err := client.Lookup(names.Control())
	if err != nil {
		return nil, fmt.Errorf("lookup control: %w", err)
	}
	control, err := client.Attach(ctlKey)
	if err != nil {
		return nil, fmt.Errorf("attach control: %w", err)
	}
	// All ranks attached before anyone starts writing.
	if err := rv.barrier(); err != nil {
		return nil, err
	}

	b := &JobBuffers{
		rank:    rank,
		n:       n,
		elems:   elems,
		global:  global,
		incr:    incr,
		control: control,
		wgBytes: make([]byte, elems*4),
		dwBytes: make([]byte, elems*4),
	}
	b.setClient(client)
	return b, nil
}

// setClient installs client and feature-tests its optional capabilities.
// Keep it the only place core type-asserts a client, so no bootstrap path
// can silently run without the fused push or tracing.
func (b *JobBuffers) setClient(client smb.Client) {
	b.client = client
	b.wacc, _ = client.(smb.WriteAccumulator)
	b.carrier, _ = client.(smb.TraceCarrier)
}

// ReadGlobal fetches Wg into dst (len elems) — the T1 step.
func (b *JobBuffers) ReadGlobal(dst []float32) error {
	if len(dst) != b.elems {
		return fmt.Errorf("read global into %d elements, want %d: %w", len(dst), b.elems, ErrConfig)
	}
	if err := b.client.Read(b.global, 0, b.wgBytes); err != nil {
		return fmt.Errorf("read global: %w", err)
	}
	return tensor.DecodeFloat32(b.wgBytes, dst)
}

// WriteIncrement stores delta into the worker's ΔWx segment — the T.A2
// store of the push. Split from AccumulateIncrement so the phase tracer can
// time the two halves of the exchange separately.
func (b *JobBuffers) WriteIncrement(delta []float32) error {
	if err := b.StageIncrement(delta); err != nil {
		return err
	}
	if err := b.client.Write(b.incr, 0, b.dwBytes); err != nil {
		return fmt.Errorf("write increment: %w", err)
	}
	return nil
}

// AccumulateIncrement asks the server to fold the previously written ΔWx
// into Wg — the T.A3 accumulate, Eq. (7).
func (b *JobBuffers) AccumulateIncrement() error {
	if err := b.client.Accumulate(b.global, b.incr); err != nil {
		return fmt.Errorf("accumulate: %w", err)
	}
	return nil
}

// PushIncrement writes delta into the worker's ΔWx segment and asks the
// server to accumulate it into Wg — the full T.A2–T.A3 push, Eq. (7).
// When the client supports it, the push streams as a chunk-pipelined
// WRITE+ACCUMULATE sequence.
func (b *JobBuffers) PushIncrement(delta []float32) error {
	if err := b.StageIncrement(delta); err != nil {
		return err
	}
	return b.pushStaged()
}

// pushStaged stores the staged increment and folds it into Wg: one
// chunk-pipelined WRITE+ACCUMULATE when the client supports it, otherwise
// the split Write+Accumulate pair (test doubles that wrap the interface).
func (b *JobBuffers) pushStaged() error {
	if b.CanStreamPush() {
		return b.StreamStaged()
	}
	if err := b.client.Write(b.incr, 0, b.dwBytes); err != nil {
		return fmt.Errorf("write increment: %w", err)
	}
	return b.AccumulateIncrement()
}

// CanStreamPush reports whether the client supports the chunk-pipelined
// WRITE+ACCUMULATE sequence, making StreamIncrement available.
func (b *JobBuffers) CanStreamPush() bool { return b.wacc != nil }

// StreamIncrement pushes delta as one chunked WRITE+ACCUMULATE sequence:
// the server folds chunk k into Wg while chunk k+1 is still on the wire,
// overlapping the ΔWx store with the accumulate instead of running them
// back-to-back. Observable effects match WriteIncrement followed by
// AccumulateIncrement exactly — ΔWx holds delta afterwards, Wg += ΔWx once,
// and the server counts one Write and one Accumulate. Callers must check
// CanStreamPush first.
func (b *JobBuffers) StreamIncrement(delta []float32) error {
	if err := b.StageIncrement(delta); err != nil {
		return err
	}
	return b.StreamStaged()
}

// StageIncrement encodes delta into the wire staging buffer — the local
// half of a streamed push. Split from StreamStaged so the phase tracer can
// put the span boundary between preparing ΔWx (T.A2) and the pipelined
// store+fold (T.A3).
func (b *JobBuffers) StageIncrement(delta []float32) error {
	if len(delta) != b.elems {
		return fmt.Errorf("push %d elements, want %d: %w", len(delta), b.elems, ErrConfig)
	}
	_, err := tensor.EncodeFloat32(delta, b.dwBytes)
	return err
}

// StreamStaged issues the chunked WRITE+ACCUMULATE sequence for the staged
// increment. StageIncrement must have been called first.
func (b *JobBuffers) StreamStaged() error {
	if err := b.wacc.WriteAccumulate(b.global, b.incr, b.dwBytes); err != nil {
		return fmt.Errorf("stream increment: %w", err)
	}
	return nil
}

// ReportProgress publishes this worker's completed iteration count to its
// control slot.
func (b *JobBuffers) ReportProgress(iter int64) error {
	return smb.WriteInt64(b.client, b.control, b.rank, iter)
}

// Progress reads every worker's published iteration count.
func (b *JobBuffers) Progress() ([]int64, error) {
	return smb.ReadInt64Slots(b.client, b.control, b.n)
}

// ProgressInto reads every worker's published iteration count into out
// (len WorldSize) without allocating — the telemetry staleness probe calls
// this on every T1 read.
func (b *JobBuffers) ProgressInto(out []int64) error {
	if len(out) != b.n {
		return fmt.Errorf("progress into %d slots, want %d: %w", len(out), b.n, ErrConfig)
	}
	return smb.ReadInt64SlotsInto(b.client, b.control, out)
}

// Beat publishes this worker's heartbeat — any value strictly greater than
// the last one it published (the iteration count works) — and stamps the
// worker's wall clock into its clock slot. Written alongside ReportProgress
// when liveness tracking is enabled; the clock stamp is what lets a fleet
// aggregator estimate per-node clock offsets from the control segment.
func (b *JobBuffers) Beat(v int64) error {
	if err := smb.WriteInt64(b.client, b.control, b.n+1+b.rank, v); err != nil {
		return err
	}
	return smb.WriteInt64(b.client, b.control, 2*b.n+1+b.rank, time.Now().UnixNano())
}

// MarkDead writes this worker's tombstone. Called best-effort on the error
// path out of Run so peers stop waiting for a worker that announced its own
// death instead of burning a full liveness timeout detecting it.
func (b *JobBuffers) MarkDead() error {
	return smb.WriteInt64(b.client, b.control, b.n+1+b.rank, deadTombstone)
}

// HeartbeatsInto reads every worker's heartbeat slot into out (len
// WorldSize) without allocating.
func (b *JobBuffers) HeartbeatsInto(out []int64) error {
	if len(out) != b.n {
		return fmt.Errorf("heartbeats into %d slots, want %d: %w", len(out), b.n, ErrConfig)
	}
	return smb.ReadInt64SlotsAtInto(b.client, b.control, b.n+1, out)
}

// ClocksInto reads every worker's wall-clock slot (UnixNano as of its last
// Beat; zero before the first) into out (len WorldSize) without allocating.
func (b *JobBuffers) ClocksInto(out []int64) error {
	if len(out) != b.n {
		return fmt.Errorf("clocks into %d slots, want %d: %w", len(out), b.n, ErrConfig)
	}
	return smb.ReadInt64SlotsAtInto(b.client, b.control, 2*b.n+1, out)
}

// TraceCarrier returns the client's trace-stamping surface, or nil when the
// underlying client cannot carry trace contexts on its wire frames.
func (b *JobBuffers) TraceCarrier() smb.TraceCarrier { return b.carrier }

// SignalStop raises the shared stop flag; every worker observes it at its
// next termination check.
func (b *JobBuffers) SignalStop() error {
	return smb.WriteInt64(b.client, b.control, b.n, 1)
}

// StopRequested reads the shared stop flag.
func (b *JobBuffers) StopRequested() (bool, error) {
	v, err := smb.ReadInt64(b.client, b.control, b.n)
	if err != nil {
		return false, err
	}
	return v != 0, nil
}

// Elems returns the weight vector length.
func (b *JobBuffers) Elems() int { return b.elems }

// Rank returns the owning worker's rank.
func (b *JobBuffers) Rank() int { return b.rank }

// WorldSize returns the number of workers in the job.
func (b *JobBuffers) WorldSize() int { return b.n }

// Close detaches the buffers. The master should Free the shared segments
// separately once all workers are done (not done here because order
// matters across ranks).
func (b *JobBuffers) Close() error {
	var firstErr error
	for _, h := range []smb.Handle{b.global, b.incr, b.control} {
		if err := b.client.Detach(h); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
