package core

import (
	"fmt"
	"runtime"
	"time"

	"shmcaffe/internal/dataset"
	"shmcaffe/internal/mpi"
	"shmcaffe/internal/nn"
	"shmcaffe/internal/smb"
	"shmcaffe/internal/telemetry"
)

// WorkerConfig configures one SEASGD worker (one "deep learning worker" of
// the paper: an MPI process training a model replica).
type WorkerConfig struct {
	// Job names the SMB segment family shared by all workers of this run.
	Job string
	// Comm is this worker's MPI endpoint; rank 0 is the master worker.
	Comm *mpi.Comm
	// Client is the connection to the SMB server.
	Client smb.Client
	// Net is this worker's model replica.
	Net *nn.Network
	// Solver configures the local Caffe-style SGD (Eq. 2).
	Solver nn.SolverConfig
	// Elastic carries moving_rate and update_interval.
	Elastic ElasticConfig
	// Termination selects the end-time alignment criterion.
	Termination TerminationPolicy
	// MaxIterations is the per-worker iteration budget (the "specified
	// number of iterations" of Sec. III-E).
	MaxIterations int
	// Loader provides this worker's data shard.
	Loader *dataset.Loader

	// DisableOverlap pushes the global update inline instead of in the
	// update thread — the ablation of Fig. 6's communication hiding.
	DisableOverlap bool
	// HideGlobalRead serves T1 from a cached copy refreshed by the update
	// thread instead of a fresh read. The paper deliberately does NOT do
	// this ("the learning performance deteriorates due to the delayed
	// parameter problem"); the flag exists to measure that trade-off.
	HideGlobalRead bool
	// ProgressEvery is the number of iterations between termination
	// checks (default 1).
	ProgressEvery int
	// LivenessTimeout enables crash-aware termination alignment: each
	// worker heartbeats through the control segment, and a peer whose beat
	// has not advanced for longer than this is treated as dead by the
	// termination predicate (see ShouldStopAlive). Zero disables liveness
	// tracking — the paper's fault-free protocol, byte-for-byte.
	LivenessTimeout time.Duration
	// Now supplies time for the timing breakdown (defaults to time.Now).
	Now func() time.Time
	// Hook, if non-nil, runs after every completed iteration (0-based).
	// Experiment harnesses use it to snapshot accuracy curves. Returning
	// an error aborts training.
	Hook func(w *Worker, iter int) error
	// Telemetry, if non-nil, records the Fig. 6 phase spans, the per-read
	// T1 staleness, and the push/iteration counters. Nil disables all
	// recording at the cost of one branch per record.
	Telemetry *telemetry.Trainer
}

// Validate checks the configuration.
func (c *WorkerConfig) Validate() error {
	if c.Comm == nil {
		return fmt.Errorf("worker needs an MPI comm (or use NewWorkerPolling): %w", ErrConfig)
	}
	return c.validateCommon()
}

// validateCommon checks everything except the communicator.
func (c *WorkerConfig) validateCommon() error {
	if c.Client == nil || c.Net == nil || c.Loader == nil {
		return fmt.Errorf("worker needs client, net and loader: %w", ErrConfig)
	}
	return validateRun(c.Job, c.MaxIterations, c.Elastic, c.Solver, c.Termination)
}

// validateRun checks the settings a Worker and a HybridGroup share.
func validateRun(job string, maxIterations int, elastic ElasticConfig, solver nn.SolverConfig, term TerminationPolicy) error {
	if job == "" {
		return fmt.Errorf("training needs a job name: %w", ErrConfig)
	}
	if maxIterations < 1 {
		return fmt.Errorf("max iterations %d < 1: %w", maxIterations, ErrConfig)
	}
	if err := elastic.Validate(); err != nil {
		return err
	}
	if err := solver.Validate(); err != nil {
		return err
	}
	return term.Validate()
}

// RunStats reports one worker's training outcome, including the Eq. (8)
// timing decomposition measured over the run.
type RunStats struct {
	Rank       int
	Iterations int
	// LossHistory holds the minibatch loss of every iteration.
	LossHistory []float64
	// CompTime is ΣT_comp (forward+backward+local update, T4+T5).
	CompTime time.Duration
	// ExposedCommTime is Σ(T_rgw + T_ulw): the global read and local
	// elastic update that the design deliberately leaves on the critical
	// path (T1+T2).
	ExposedCommTime time.Duration
	// BlockedTime is the T.A5 stall: main thread waiting because the
	// update thread's push outlived the compute phase.
	BlockedTime time.Duration
	// Pushes counts global-weight accumulations issued (T.A2).
	Pushes int
	// StoppedBy records which condition ended training.
	StoppedBy string
	// DeadPeers lists the ranks this worker considered dead when it
	// stopped (liveness tracking enabled only).
	DeadPeers []int
}

// Worker runs SEASGD training for one rank. Create with NewWorker, then
// call Run once.
type Worker struct {
	cfg    WorkerConfig
	solver *nn.SGDSolver
	ex     *exchanger
}

// NewWorker validates cfg and performs the collective buffer bootstrap
// (Fig. 2). All ranks of the communicator must call NewWorker concurrently.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newWorker(cfg, cfg.Comm.Rank(), cfg.Comm.Size(), mpiRendezvous{cfg.Comm})
}

// newWorker bootstraps the buffers through rv and finishes construction;
// NewWorker and NewWorkerPolling differ only in the rendezvous.
func newWorker(cfg WorkerConfig, rank, world int, rv rendezvous) (*Worker, error) {
	if cfg.ProgressEvery < 1 {
		cfg.ProgressEvery = 1
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	ex, err := newExchanger(cfg.Client, cfg.Job, rank, world, cfg.Net, rv, exchangeConfig{
		elastic:         cfg.Elastic,
		termination:     cfg.Termination,
		maxIterations:   cfg.MaxIterations,
		livenessTimeout: cfg.LivenessTimeout,
		hideGlobalRead:  cfg.HideGlobalRead,
		tel:             cfg.Telemetry,
		now:             cfg.Now,
	})
	if err != nil {
		return nil, err
	}
	return &Worker{cfg: cfg, solver: nn.NewSGDSolver(cfg.Net, cfg.Solver), ex: ex}, nil
}

// Buffers exposes the worker's SMB view (used by tests and diagnostics).
func (w *Worker) Buffers() *JobBuffers { return w.ex.buffers }

// Run executes the SEASGD training loop (Fig. 6) until the termination
// criterion fires. It must be called exactly once.
func (w *Worker) Run() (stats *RunStats, err error) {
	ex := w.ex
	defer func() { ex.obituary(err) }()
	cfg := &w.cfg
	rank := ex.rank
	stats = &RunStats{Rank: rank}
	elems := ex.buffers.Elems()
	tel := cfg.Telemetry
	mainTID := telemetry.MainTID(rank)

	local := make([]float32, elems)
	global := make([]float32, elems)

	// Start from the shared initial weights so every replica of the job
	// begins at Wg (the master seeded it).
	if err := ex.loadInitial(cfg.Net); err != nil {
		return nil, err
	}

	if !cfg.DisableOverlap {
		ex.startUpdateThread()
	}
	defer ex.shutdown()

	hardCap := cfg.MaxIterations * 100
	stoppedBy := "budget"
	iter := 0
loop:
	for ; iter < hardCap; iter++ {
		if iter%cfg.Elastic.UpdateInterval == 0 {
			// T.A5 + T1 + T2 on the main thread.
			blocked, exposed, err := ex.exchange(cfg.Net, local, global)
			if err != nil {
				return nil, fmt.Errorf("rank %d iter %d: %w", rank, iter, err)
			}
			stats.BlockedTime += blocked
			stats.ExposedCommTime += exposed

			// T3: hand the increment to the update thread — or push
			// inline in the no-overlap ablation.
			if cfg.DisableOverlap {
				tp0 := cfg.Now()
				// The push runs inline on the main thread in this
				// ablation, so its spans land on the main track —
				// rendering the lost overlap visibly in the trace.
				if err := ex.push(mainTID); err != nil {
					return nil, fmt.Errorf("rank %d iter %d push: %w", rank, iter, err)
				}
				stats.ExposedCommTime += cfg.Now().Sub(tp0)
			} else if err := ex.handOff(); err != nil {
				return nil, fmt.Errorf("rank %d iter %d: %w", rank, iter, err)
			}
		}

		// T4 + T5: train one minibatch and apply the gradient (Eq. 2).
		tc0 := cfg.Now()
		spT45 := tel.Begin(mainTID, telemetry.PhaseT45)
		batch := cfg.Loader.Next()
		loss, err := w.solver.Step(batch.X, batch.Labels)
		spT45.End()
		if err != nil {
			return nil, fmt.Errorf("rank %d iter %d train: %w", rank, iter, err)
		}
		stats.CompTime += cfg.Now().Sub(tc0)
		stats.LossHistory = append(stats.LossHistory, loss)
		tel.IncIteration()

		if cfg.Hook != nil {
			if err := cfg.Hook(w, iter); err != nil {
				return nil, fmt.Errorf("rank %d hook: %w", rank, err)
			}
		}

		// Progress sharing (and heartbeat) every iteration; termination
		// alignment (Sec. III-E) every ProgressEvery.
		completed := int64(iter + 1)
		if err := ex.report(completed); err != nil {
			return nil, err
		}
		if (iter+1)%cfg.ProgressEvery == 0 || iter+1 >= cfg.MaxIterations {
			stopNow, by, err := ex.shouldStop(completed)
			if err != nil {
				return nil, err
			}
			if stopNow {
				stoppedBy = by
				iter++
				break loop
			}
		}

		// On real hardware each worker owns a GPU and progresses at a
		// similar rate; on an oversubscribed CPU host the Go scheduler
		// can let one worker run thousands of iterations per quantum.
		// Yield so the alignment protocol sees comparable progress.
		runtime.Gosched()
	}

	stats.Iterations = iter
	stats.StoppedBy = stoppedBy
	stats.DeadPeers = ex.liveness.deadRanks(nil)
	// Finish the update thread (including any queued final push) before
	// reading the push counter, so the count is exact.
	pushes, pushErr := ex.shutdown()
	if pushErr != nil {
		return nil, fmt.Errorf("rank %d update thread: %w", rank, pushErr)
	}
	stats.Pushes = pushes
	return stats, nil
}
