// Package platform implements the four deep-learning platforms the paper
// evaluates (Sec. IV-C) behind one Trainer interface:
//
//   - Caffe: BVLC Caffe — single-node synchronous SGD across the node's
//     GPUs using NCCL allreduce (one GPU degenerates to plain SGD).
//   - Caffe-MPI: Inspur's star topology — the master gathers gradients from
//     all workers over MPI, averages, updates the master weights, and
//     distributes them back.
//   - MPICaffe: the authors' own baseline — SSGD with MPI_Allreduce
//     gradient aggregation on every worker.
//   - ShmCaffe-A / ShmCaffe-H: the paper's contribution (internal/core),
//     asynchronous SEASGD through the SMB buffer, optionally hybridized
//     with intra-node SSGD.
//
// These functional implementations train real models on real data; the
// per-iteration *timing* of each platform is modeled separately in
// internal/perfmodel. The split mirrors the paper: Fig. 8/11 are about
// convergence, Figs. 9/10/12–15 about time.
package platform

import (
	"errors"
	"fmt"
	"time"

	"shmcaffe/internal/core"
	"shmcaffe/internal/dataset"
	"shmcaffe/internal/nn"
	"shmcaffe/internal/telemetry"
)

// ErrConfig reports an unusable training configuration.
var ErrConfig = errors.New("platform: invalid configuration")

// ModelBuilder constructs a fresh model replica. Each worker gets its own
// replica; all replicas must have identical architecture.
type ModelBuilder func(name string) (*nn.Network, error)

// Config describes one training run, platform-independent.
type Config struct {
	// Workers is the total number of workers ("GPUs" in the paper).
	Workers int
	// GroupSize is the number of workers per node; used by ShmCaffe-H
	// (intra-node SSGD group) and by Table III style configs. 0 means
	// all workers in one group.
	GroupSize int
	// Model builds one replica.
	Model ModelBuilder
	// Train is the training corpus (sharded across workers without
	// duplication); Val is the held-out evaluation set.
	Train dataset.Dataset
	Val   dataset.Dataset
	// BatchSize is the per-worker minibatch size.
	BatchSize int
	// Epochs is the number of passes over Train (across all workers).
	Epochs int
	// Solver configures local SGD.
	Solver nn.SolverConfig
	// Elastic configures SEASGD (ignored by the synchronous baselines).
	Elastic core.ElasticConfig
	// TopK selects the reported accuracy metric (the paper uses top-5 on
	// 1000 classes; the synthetic tasks default to top-1).
	TopK int
	// Seed makes the run deterministic.
	Seed uint64
	// EvalBatches bounds evaluation cost (0 = whole val set).
	EvalBatches int
	// SMBAddr, when non-empty, points the ShmCaffe platforms at an
	// external SMB server instead of an in-process store; each worker
	// dials its own connection, like a real deployment.
	SMBAddr string
	// SMBTransport selects the wire for SMBAddr: "rds" (the
	// reliable-datagram transport of internal/rds, the paper's RDS-based
	// communication module) or any name in smb.TransportNames(), which
	// alone validates it — "tcp" (default; vectored writev and
	// direct-landing reads), "shm" (cross-process shared memory; requires a
	// co-located server exporting memfd segments), "auto" (negotiate shm,
	// fall back to tcp).
	SMBTransport string
	// Job names the SMB segment family; required when several runs share
	// one external server. Defaults to the platform's short name.
	Job string
	// SMBOpTimeout bounds each SMB round trip for dialed-out TCP clients
	// (0 = the supervised client's 10s default; negative disables
	// deadlines). Ignored for the in-process store and the RDS transport.
	SMBOpTimeout time.Duration
	// SMBWaitTimeout bounds WaitUpdate round trips (0 inherits
	// SMBOpTimeout).
	SMBWaitTimeout time.Duration
	// LivenessTimeout enables crash-aware termination alignment in the
	// ShmCaffe platforms: workers heartbeat through the control segment
	// and exclude peers silent for longer than this from the termination
	// criterion. 0 keeps the paper's fault-free protocol.
	LivenessTimeout time.Duration
	// Telemetry, when non-nil, receives SEASGD phase spans, staleness
	// observations and push counters from the ShmCaffe platforms (the
	// synchronous baselines ignore it). Nil disables instrumentation.
	Telemetry *telemetry.Trainer
	// Metrics, when non-nil, additionally receives the SMB data-path
	// instruments: the in-process store's op/latency families, or — when
	// SMBAddr dials out — one representative client's RTT histograms.
	Metrics *telemetry.Registry
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("workers %d < 1: %w", c.Workers, ErrConfig)
	}
	if c.Model == nil || c.Train == nil || c.Val == nil {
		return fmt.Errorf("model, train and val are required: %w", ErrConfig)
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("batch size %d < 1: %w", c.BatchSize, ErrConfig)
	}
	if c.Epochs < 1 {
		return fmt.Errorf("epochs %d < 1: %w", c.Epochs, ErrConfig)
	}
	if c.GroupSize < 0 || c.GroupSize > c.Workers {
		return fmt.Errorf("group size %d with %d workers: %w", c.GroupSize, c.Workers, ErrConfig)
	}
	if c.Workers > c.Train.Len() {
		return fmt.Errorf("%d workers for %d samples: %w", c.Workers, c.Train.Len(), ErrConfig)
	}
	return nil
}

// groupSize resolves the effective group size.
func (c *Config) groupSize() int {
	if c.GroupSize == 0 || c.GroupSize > c.Workers {
		return c.Workers
	}
	return c.GroupSize
}

// iterationsPerEpoch returns per-worker iterations making up one epoch over
// the full corpus.
func (c *Config) iterationsPerEpoch() int {
	n := c.Train.Len() / (c.BatchSize * c.Workers)
	if n < 1 {
		n = 1
	}
	return n
}

// EpochPoint is one point of a convergence curve (Fig. 8 / Fig. 11).
type EpochPoint struct {
	Epoch     int
	TrainLoss float64 // mean minibatch loss over the epoch (worker 0)
	ValLoss   float64
	Accuracy  float64 // top-K on the validation set
}

// Result is one training run's outcome.
type Result struct {
	Platform   string
	Workers    int
	Curve      []EpochPoint
	FinalAcc   float64
	FinalLoss  float64
	Iterations int // per-worker iterations executed (rank 0)
	// FinalWeights is the flat weight vector of the shipped model: the
	// synchronized replica for the SSGD platforms, the SMB global weight
	// Wg for ShmCaffe. Load it into a fresh replica with SetFlatWeights
	// or persist it with nn.SaveCheckpoint.
	FinalWeights []float32
}

// Trainer is one deep-learning platform.
type Trainer interface {
	// Name returns the platform's display name.
	Name() string
	// Train runs the configured job to completion.
	Train(cfg Config) (*Result, error)
}

// evaluator scores a replica on the validation set.
type evaluator struct {
	net     *nn.Network
	loader  *dataset.Loader
	batches int
	topK    int
}

func newEvaluator(cfg *Config, name string) (*evaluator, error) {
	net, err := cfg.Model(name)
	if err != nil {
		return nil, err
	}
	loader, err := dataset.NewLoader(cfg.Val, 64, cfg.Seed^0xe5a1)
	if err != nil {
		return nil, err
	}
	batches := cfg.EvalBatches
	if batches <= 0 {
		batches = loader.BatchesPerEpoch()
	}
	topK := cfg.TopK
	if topK <= 0 {
		topK = 1
	}
	if topK >= cfg.Val.NumClasses() {
		topK = cfg.Val.NumClasses() - 1
	}
	return &evaluator{net: net, loader: loader, batches: batches, topK: topK}, nil
}

// score evaluates the given flat weights.
func (e *evaluator) score(weights []float32) (loss, acc float64, err error) {
	if err := e.net.SetFlatWeights(weights); err != nil {
		return 0, 0, err
	}
	var lossSum, accSum float64
	for i := 0; i < e.batches; i++ {
		b := e.loader.Next()
		l, a, err := e.net.Evaluate(b.X, b.Labels, e.topK)
		if err != nil {
			return 0, 0, err
		}
		lossSum += l
		accSum += a
	}
	n := float64(e.batches)
	return lossSum / n, accSum / n, nil
}

// meanTail averages the last n entries of xs (or all of them if shorter).
func meanTail(xs []float64, n int) float64 {
	if len(xs) == 0 {
		return 0
	}
	if n > len(xs) {
		n = len(xs)
	}
	var s float64
	for _, v := range xs[len(xs)-n:] {
		s += v
	}
	return s / float64(n)
}
