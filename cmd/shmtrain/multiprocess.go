package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"time"

	"shmcaffe/internal/core"
	"shmcaffe/internal/dataset"
	"shmcaffe/internal/nn"
	"shmcaffe/internal/rds"
	"shmcaffe/internal/smb"
	"shmcaffe/internal/telemetry"
	"shmcaffe/internal/tensor"
	"shmcaffe/internal/trace"
)

// singleWorkerOpts parameterizes one multi-process SEASGD worker.
type singleWorkerOpts struct {
	rank, world        int
	smbAddr, transport string
	job                string
	epochs, batch      int
	classes, perClass  int
	interval           int
	noise              float64
	lr, movingRate     float64
	seed               uint64
	opTimeout          time.Duration // per-op SMB deadline (negative = none)
	liveness           time.Duration // crash-aware termination (0 = off)
	noOverlap          bool          // inline pushes: deterministic given one worker

	tel *telemetry.Trainer
	reg *telemetry.Registry
}

// runSingleWorker runs this process's share of a multi-process SEASGD job.
// Every participating process must use identical -seed/-classes/-per-class
// so they regenerate the same corpus and shard it disjointly.
func runSingleWorker(out io.Writer, o singleWorkerOpts) error {
	client, cleanup, negotiated, err := dialSMB(o.smbAddr, o.transport, o.rank, o.opTimeout)
	if err != nil {
		return err
	}
	defer cleanup()
	if o.reg != nil {
		if ic, ok := client.(interface{ Instrument(*telemetry.Registry) }); ok {
			ic.Instrument(o.reg)
		}
	}
	if o.tel != nil {
		// Negotiate wire-level trace propagation so the worker's pushes
		// carry trace contexts; an old server declines and nothing changes.
		if tc, ok := client.(interface{ EnableTrace() }); ok {
			tc.EnableTrace()
		}
	}

	full, err := dataset.NewGaussian(dataset.GaussianConfig{
		Classes: o.classes, PerClass: o.perClass, Shape: []int{8},
		Noise: o.noise, Seed: o.seed,
	})
	if err != nil {
		return err
	}
	train, val, err := dataset.Split(full, 0.8)
	if err != nil {
		return err
	}
	shard, err := dataset.NewShard(train, o.rank, o.world)
	if err != nil {
		return err
	}
	loader, err := dataset.NewLoader(shard, o.batch, o.seed+uint64(o.rank)*7919)
	if err != nil {
		return err
	}
	net, err := nn.MLP(fmt.Sprintf("w%d", o.rank), 8, 16, o.classes)
	if err != nil {
		return err
	}
	net.InitWeights(tensor.NewRNG(o.seed))

	solver := nn.DefaultSolverConfig()
	solver.BaseLR = o.lr
	itersPerEpoch := train.Len() / (o.batch * o.world)
	if itersPerEpoch < 1 {
		itersPerEpoch = 1
	}
	cfg := core.WorkerConfig{
		Job:             o.job,
		Client:          client,
		Net:             net,
		Solver:          solver,
		Elastic:         core.ElasticConfig{MovingRate: o.movingRate, UpdateInterval: o.interval},
		Termination:     core.StopOnMaster,
		MaxIterations:   itersPerEpoch * o.epochs,
		Loader:          loader,
		Telemetry:       o.tel,
		LivenessTimeout: o.liveness,
		DisableOverlap:  o.noOverlap,
	}
	fmt.Fprintf(out, "worker %d/%d joining job %q on %s (%s)\n",
		o.rank, o.world, o.job, o.smbAddr, negotiated)
	w, err := core.NewWorkerPolling(cfg, o.rank, o.world, core.BootstrapOptions{})
	if err != nil {
		return err
	}
	stats, err := w.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "worker %d finished: %d iterations, %d pushes, stopped by %q\n",
		o.rank, stats.Iterations, stats.Pushes, stats.StoppedBy)

	// The master evaluates the final global weight.
	if o.rank == 0 {
		global := make([]float32, net.NumParams())
		if err := w.Buffers().ReadGlobal(global); err != nil {
			return err
		}
		// Content hash of the final Wg bytes: lets a harness assert that two
		// runs with the same seed converged bitwise-identically regardless
		// of which transport carried the pushes (check.sh shm_smoke).
		fmt.Fprintf(out, "Wg sha256: %x\n", sha256.Sum256(tensor.Float32Bytes(global)))
		evalNet, err := nn.MLP("eval", 8, 16, o.classes)
		if err != nil {
			return err
		}
		if err := evalNet.SetFlatWeights(global); err != nil {
			return err
		}
		vloader, err := dataset.NewLoader(val, 64, o.seed)
		if err != nil {
			return err
		}
		b := vloader.Next()
		loss, acc, err := evalNet.Evaluate(b.X, b.Labels, 1)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "global weight Wg: val loss %.3f, accuracy %s\n", loss, trace.Pct(acc))
	}
	return nil
}

// dialSMB opens one SMB connection over the selected transport and reports
// what was actually negotiated. The TCP paths get the fault-tolerant
// supervised client: per-op deadlines plus reconnect with sequence-stamped
// pushes, keyed by rank so the server-side dedup table distinguishes
// processes. "shm" maps segments of a co-located server, "auto" negotiates
// shm and falls back to tcp. RDS stays a bare stream client — its endpoint
// cannot be re-dialed without tearing down the local socket.
func dialSMB(addr, transport string, rank int, opTimeout time.Duration) (smb.Client, func(), string, error) {
	opts := smb.DialOptions{
		Addr:      addr,
		OpTimeout: opTimeout,
		Seed:      uint64(rank)*7919 + 1,
		ClientID:  uint64(rank + 1),
	}
	probe := func(c smb.Client) error {
		// Supervised clients dial lazily; probe now so a bad address fails
		// here instead of deep inside the bootstrap key exchange.
		if _, err := c.Lookup("\x00reachability-probe"); err != nil && !errors.Is(err, smb.ErrUnknownSegment) {
			c.Close()
			return err
		}
		return nil
	}
	switch transport {
	case "auto":
		c, name, err := smb.DialAuto(opts)
		if err != nil {
			return nil, nil, "", err
		}
		if err := probe(c); err != nil {
			return nil, nil, "", err
		}
		return c, func() { c.Close() }, name + ", auto-negotiated", nil
	case "rds":
		ep, err := rds.ListenUDP("127.0.0.1:0")
		if err != nil {
			return nil, nil, "", err
		}
		conn, err := ep.Dial(addr)
		if err != nil {
			ep.Close()
			return nil, nil, "", err
		}
		c := smb.NewStreamClient(conn)
		return c, func() { c.Close(); ep.Close() }, "rds", nil
	default:
		// The registry resolves every other name and is the only judge of
		// it: an unknown one fails there, listing what is registered.
		name := transport
		if name == "" {
			name = "tcp"
		}
		c, err := smb.DialTransport(name, opts)
		if err != nil {
			return nil, nil, "", err
		}
		if err := probe(c); err != nil {
			return nil, nil, "", err
		}
		return c, func() { c.Close() }, name, nil
	}
}
