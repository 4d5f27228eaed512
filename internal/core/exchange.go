package core

import (
	"fmt"
	"sync"
	"time"

	"shmcaffe/internal/nn"
	"shmcaffe/internal/smb"
	"shmcaffe/internal/telemetry"
)

// exchangeConfig is what the exchange engine takes from its role's config.
type exchangeConfig struct {
	elastic         ElasticConfig
	termination     TerminationPolicy
	maxIterations   int
	livenessTimeout time.Duration
	// hideGlobalRead serves T1 from a cache the update thread refreshes
	// (Worker's ablation; the HybridGroup root always reads fresh).
	hideGlobalRead bool
	tel            *telemetry.Trainer
	now            func() time.Time
}

// exchanger is the one implementation of the paper's Fig. 6 SEASGD
// exchange against the SMB: the main thread's T.A5 → T1 → T2 step, the
// update thread's T.A1–T.A4 push, and the Sec. III-E termination/liveness
// predicate. A Worker drives it for its own replica; a HybridGroup's root
// member drives it for the whole group (Sec. III-D).
type exchanger struct {
	cfg     exchangeConfig
	buffers *JobBuffers
	rank    int

	// mu is the Fig. 6 lock making T1+T2 and T.A1–T.A4 mutually exclusive.
	mu           sync.Mutex
	pendingDelta []float32 // guarded by mu
	cachedGlobal []float32 // HideGlobalRead only: last Wg seen; guarded by mu
	pushErr      error     // first failed push; guarded by mu
	pushes       int       // guarded by mu

	// Staleness probe scratch (telemetry only): progress counters seen at
	// the previous and current T1 read. Used by the main thread under mu.
	lastProgress []int64
	progressNow  []int64

	// Liveness view (LivenessTimeout > 0 only); used by the main thread
	// during termination checks.
	liveness *livenessTracker
	beats    []int64

	// Update thread (nil until startUpdateThread). wake carries one pending
	// push; capacity 1 so a second wake while a push is in flight blocks the
	// main thread — the T.A5 back-pressure. done closes when the thread exits.
	wake     chan struct{}
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// newExchanger performs the collective buffer bootstrap through rv — rank
// 0's replica net seeds Wg — and builds the rank's exchange engine.
func newExchanger(client smb.Client, job string, rank, world int, net *nn.Network, rv rendezvous, cfg exchangeConfig) (*exchanger, error) {
	var seed []float32
	if rank == 0 {
		seed = net.FlatWeights(nil)
	}
	buffers, err := setupBuffers(client, job, rank, world, net.NumParams(), seed, rv)
	if err != nil {
		return nil, fmt.Errorf("rank %d setup: %w", rank, err)
	}
	n := buffers.WorldSize()
	var cached []float32
	if cfg.hideGlobalRead {
		cached = make([]float32, buffers.Elems())
	}
	e := &exchanger{
		cfg:          cfg,
		buffers:      buffers,
		rank:         rank,
		pendingDelta: make([]float32, buffers.Elems()),
		cachedGlobal: cached,
		lastProgress: make([]int64, n),
		progressNow:  make([]int64, n),
	}
	if cfg.livenessTimeout > 0 {
		e.liveness = newLivenessTracker(e.rank, n, cfg.livenessTimeout, cfg.now)
		e.beats = make([]int64, n)
	}
	cfg.tel.NameWorker(e.rank)
	return e, nil
}

// loadInitial sets every replica in nets to Wg — the shared starting point
// the master seeded — and seeds the hidden-read cache. Call before
// startUpdateThread.
func (e *exchanger) loadInitial(nets ...*nn.Network) error {
	wg := make([]float32, e.buffers.Elems())
	if err := e.buffers.ReadGlobal(wg); err != nil {
		return err
	}
	for _, net := range nets {
		if err := net.SetFlatWeights(wg); err != nil {
			return err
		}
	}
	e.mu.Lock()
	copy(e.cachedGlobal, wg)
	e.mu.Unlock()
	return nil
}

// exchange is the main thread's half of Fig. 6 on net: T.A5 (wait out an
// in-flight push), T1 (obtain Wg, plus the staleness probe) and T2 (the
// elastic update, Eqs. (5)+(6), fused into one sweep that writes the
// increment straight into pendingDelta). local and global are caller
// scratch of length Elems. It returns the T.A5 stall and the exposed T1+T2
// time.
func (e *exchanger) exchange(net *nn.Network, local, global []float32) (blocked, exposed time.Duration, err error) {
	tel := e.cfg.tel
	tid := telemetry.MainTID(e.rank)
	t0 := e.cfg.now()
	spA5 := tel.Begin(tid, telemetry.PhaseTA5)
	e.mu.Lock()
	spA5.End()
	tLocked := e.cfg.now()
	if e.pushErr != nil {
		// The update thread died on a failed push (recorded under mu).
		e.mu.Unlock()
		return 0, 0, fmt.Errorf("update thread: %w", e.pushErr)
	}
	// T1. Hidden-read mode serves T2 straight from cachedGlobal (we hold
	// mu; the fused step only reads it), so even the staging copy is gone.
	spT1 := tel.Begin(tid, telemetry.PhaseT1)
	wg := global
	if e.cfg.hideGlobalRead {
		wg = e.cachedGlobal
		tel.HiddenHit()
	} else {
		err = e.buffers.ReadGlobal(global)
	}
	e.observeStaleness()
	spT1.End()
	if err == nil {
		spT2 := tel.Begin(tid, telemetry.PhaseT2)
		net.FlatWeights(local)
		err = FusedWeightStep(e.pendingDelta, local, wg, e.cfg.elastic.MovingRate)
		if err == nil {
			err = net.SetFlatWeights(local)
		}
		spT2.End()
	}
	e.mu.Unlock()
	return tLocked.Sub(t0), e.cfg.now().Sub(tLocked), err
}

// observeStaleness records how many iterations the other ranks completed
// since this rank's previous T1 read — the per-read staleness bound that
// governs asynchronous SEASGD convergence. Caller holds e.mu. Telemetry off
// or a probe failure records nothing (the probe must never fail training).
//
//shm:hotpath
func (e *exchanger) observeStaleness() {
	tel := e.cfg.tel
	if tel == nil {
		return
	}
	if err := e.buffers.ProgressInto(e.progressNow); err != nil {
		return
	}
	var stale int64
	for y, now := range e.progressNow {
		if y == e.rank {
			continue
		}
		if d := now - e.lastProgress[y]; d > 0 {
			stale += d
		}
	}
	tel.ObserveStaleness(stale)
	copy(e.lastProgress, e.progressNow)
}

// push sends the pending increment to the server under mu, recording the
// T.A1–T.A4 spans on track tid (the update thread normally; the main track
// when a Worker pushes inline). A failure is recorded in pushErr before mu
// is released, so the main thread's next look under the lock sees it.
//
//shm:hotpath
func (e *exchanger) push(tid int32) error {
	// T.A1: acquire the exchange lock.
	spA1 := e.cfg.tel.Begin(tid, telemetry.PhaseTA1)
	e.mu.Lock()
	spA1.End()
	err := e.pushLocked(tid)
	if err != nil && e.pushErr == nil {
		e.pushErr = err
	}
	e.mu.Unlock()
	return err
}

// pushLocked is push's T.A2–T.A4 body; caller holds e.mu.
func (e *exchanger) pushLocked(tid int32) error {
	tel := e.cfg.tel
	// Cross-process trace: when the client can carry trace contexts on its
	// wire frames, root a fresh trace at this push. The T.A3 span below is
	// the root; the server's srv.dispatch/srv.acc/srv.chunk spans for the
	// frames of this push become its children in the merged fleet trace.
	var tc telemetry.TraceContext
	if carrier := e.buffers.TraceCarrier(); tel != nil && carrier != nil {
		id := telemetry.NextSpanID(uint64(e.rank+1) << 48)
		tc = telemetry.TraceContext{TraceID: id, SpanID: id}
		carrier.SetTraceContext(smb.TraceContext{
			TraceID: id, SpanID: id, Rank: uint32(e.rank), Iter: uint32(e.pushes),
		})
		defer carrier.ClearTraceContext()
	}
	// T.A2 stages ΔWx; T.A3 stores and folds it, Wg += ΔWx (Eq. 7). With a
	// chunk-pipelined WRITE+ACCUMULATE the server folds chunk k into Wg
	// while chunk k+1 is on the wire, so the segment store rides inside the
	// accumulate and T.A2 shrinks to the encode cost — the phase boundary
	// the pipeline blurs by design.
	spA2 := tel.Begin(tid, telemetry.PhaseTA2)
	err := e.buffers.StageIncrement(e.pendingDelta)
	spA2.End()
	if err != nil {
		return err
	}
	spA3 := tel.BeginTraced(tid, telemetry.PhaseTA3, tc)
	err = e.buffers.pushStaged()
	spA3.End()
	if err != nil {
		return err
	}
	// T.A4: bookkeeping tail (and the cached-Wg refresh in hidden-read
	// mode — done here precisely because this phase is off the critical
	// path).
	spA4 := tel.Begin(tid, telemetry.PhaseTA4)
	e.pushes++
	tel.IncPush()
	if e.cfg.hideGlobalRead {
		err = e.buffers.ReadGlobal(e.cachedGlobal)
		tel.HiddenRefresh()
	}
	spA4.End()
	return err
}

// startUpdateThread spawns the Fig. 6 update thread: blocked until woken
// (T3), then push, repeat. Pair with shutdown.
func (e *exchanger) startUpdateThread() {
	e.wake = make(chan struct{}, 1)
	e.stop = make(chan struct{})
	e.done = make(chan struct{})
	go e.updateThread(e.wake, e.stop, e.done)
}

func (e *exchanger) updateThread(wake, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tid := telemetry.UpdateTID(e.rank)
	for {
		select {
		case <-wake:
			if e.push(tid) != nil {
				return
			}
		case <-stop:
			// Drain a queued wake so the final increment of the run is
			// not silently dropped.
			select {
			case <-wake:
				_ = e.push(tid) // a failure lands in pushErr
			default:
			}
			return
		}
	}
}

// handOff is T3: wake the update thread to push the increment T2 just
// produced. The update thread exits on a failed push, so the send also
// watches done: it can never block on a receiver that is gone.
func (e *exchanger) handOff() error {
	select {
	case e.wake <- struct{}{}:
		return nil
	case <-e.done:
		_, err := e.shutdown()
		return fmt.Errorf("update thread: %w", err)
	}
}

// shutdown stops the update thread, if one was started, after it pushes
// any queued final increment; it returns the exact push count and the
// first push failure. Idempotent.
func (e *exchanger) shutdown() (pushes int, err error) {
	if e.stop != nil {
		e.stopOnce.Do(func() { close(e.stop) })
		<-e.done
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pushes, e.pushErr
}

// report publishes completed to this rank's progress slot and, with
// liveness tracking on, heartbeats alongside it.
func (e *exchanger) report(completed int64) error {
	if err := e.buffers.ReportProgress(completed); err != nil {
		return err
	}
	if e.liveness != nil {
		// Best-effort: ReportProgress just proved the path works; a
		// transient beat failure only delays peers' staleness clocks.
		_ = e.buffers.Beat(completed)
	}
	return nil
}

// shouldStop evaluates the termination criterion (Sec. III-E) after this
// rank completed `completed` iterations, raising the shared stop flag when
// it fires. The returned string names the condition that ended training.
func (e *exchanger) shouldStop(completed int64) (bool, string, error) {
	term := e.cfg.termination
	target := int64(e.cfg.maxIterations)
	if term == StopIndependently {
		if completed >= target {
			return true, "budget", nil
		}
		return false, "", nil
	}
	// A raised stop flag overrides everything.
	if stop, err := e.buffers.StopRequested(); err != nil {
		return false, "", err
	} else if stop {
		return true, "flag", nil
	}
	progress, err := e.buffers.Progress()
	if err != nil {
		return false, "", err
	}
	// Liveness view: exclude dead peers from the predicate so a crashed
	// rank's frozen counter cannot hold the survivors hostage. A failed
	// heartbeat read keeps the previous view (stale but safe: death is
	// monotone, so the view can only lag, never flap back to alive).
	var alive []bool
	if e.liveness != nil {
		if err := e.buffers.HeartbeatsInto(e.beats); err == nil {
			alive = e.liveness.observe(e.beats)
		} else {
			alive = e.liveness.alive
		}
	}
	if term.ShouldStopAlive(progress, alive, target) {
		// Raise the flag so stragglers stop at their next check even if
		// their own predicate evaluation lags.
		if err := e.buffers.SignalStop(); err != nil {
			return false, "", err
		}
		return true, term.String(), nil
	}
	return false, "", nil
}

// obituary writes this rank's tombstone when a run with liveness tracking
// ends in err, so peers see it at their next check instead of burning a
// liveness timeout. Best-effort: a rank dying because the server is
// unreachable cannot write it, which is exactly the case staleness covers.
func (e *exchanger) obituary(err error) {
	if err != nil && e.liveness != nil {
		_ = e.buffers.MarkDead()
	}
}
