package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"shmcaffe/internal/core"
	"shmcaffe/internal/dataset"
	"shmcaffe/internal/mpi"
	"shmcaffe/internal/nn"
	"shmcaffe/internal/smb"
)

// workerSpec is everything a worker process is given: the generated
// inputs' parameters, never the workload name or the benchmark seed.
type workerSpec struct {
	Kind       string // "a": core.Worker (ShmCaffe-A); "h": core.HybridGroup (ShmCaffe-H)
	Rank       int
	World      int
	Members    int `json:",omitempty"` // h: nccl group size
	Addr       string
	Transport  string // tcp, shm or auto
	Job        string
	Model      modelSpec
	Batch      int
	PerClass   int
	DataSeed   uint64
	InitSeed   uint64
	LR         float64
	MovingRate float64
	Trace      bool
}

// workerResult is what a worker reports when it stops.
type workerResult struct {
	Rank        int
	Pushes      int
	Hooks       []int64 // UnixNano at the end of every iteration (Hook to Hook)
	LossHead    float64 // mean loss of the first lossWindow iterations
	LossTail    float64 // mean loss of the last lossWindow iterations
	WgFinite    bool
	StreamPush  bool     // JobBuffers took the fused WriteAccumulate path
	CapMismatch []string `json:",omitempty"` // traced: capabilities the wrapper hid or invented
	WriteAccs   int64    // traced: WriteAccumulate calls
	Accs        int64    // traced: split Accumulate calls
	Names       []string `json:",omitempty"`
	Spans       []span   `json:",omitempty"`
}

const lossWindow = 20

// The worker protocol on stdout: "READY <transport>" once dialed, "FIRST"
// after the first iteration, "RESULT <json>" at the end. On stdin the
// coordinator sends "trace on" and "stop"; EOF means the coordinator is gone
// and the worker exits at once.
func runWorker(specJSON string) error {
	var spec workerSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		return fmt.Errorf("worker spec: %w", err)
	}
	var rec *recorder
	if spec.Trace {
		rec = newRecorder()
	}
	var stopReq atomic.Bool
	go func() { //lint:ignore goleak lives as long as the process; EOF exits it
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			switch strings.TrimSpace(sc.Text()) {
			case "trace on":
				if rec != nil {
					rec.on.Store(true)
				}
			case "stop":
				stopReq.Store(true)
			}
		}
		os.Exit(3)
	}()

	bare, negotiated, err := dialWorker(spec)
	if err != nil {
		return err
	}
	defer bare.Close()
	fmt.Printf("READY %s\n", negotiated)
	client := smb.Client(bare)
	var traced *tracedClient
	if rec != nil {
		if traced, err = newTracedClient(bare, rec); err != nil {
			return err
		}
		client = traced
	}

	res := &workerResult{Rank: spec.Rank, Hooks: make([]int64, 0, 1<<14)}
	signaled := false
	onIter := func(b *core.JobBuffers) error {
		res.Hooks = append(res.Hooks, time.Now().UnixNano())
		if len(res.Hooks) == 1 {
			fmt.Println("FIRST")
		}
		if stopReq.Load() && !signaled {
			signaled = true
			return b.SignalStop()
		}
		return nil
	}

	solver := nn.DefaultSolverConfig()
	solver.BaseLR = spec.LR
	elastic := core.ElasticConfig{MovingRate: spec.MovingRate, UpdateInterval: 1}
	const budget = 1 << 30 // the stop flag the coordinator asks for ends the run
	var buffers *core.JobBuffers
	var losses []float64
	if spec.Kind == "h" {
		buffers, losses, err = runGroup(spec, client, rec, solver, elastic, budget, onIter, res)
	} else {
		buffers, losses, err = runSEASGD(spec, client, rec, solver, elastic, budget, onIter, res)
	}
	if err != nil {
		return err
	}
	res.LossHead, res.LossTail = meanHeadTail(losses, lossWindow)
	res.StreamPush = buffers.CanStreamPush()
	wg := make([]float32, buffers.Elems())
	if err := buffers.ReadGlobal(wg); err != nil {
		return fmt.Errorf("final Wg read: %w", err)
	}
	res.WgFinite = true
	for _, v := range wg {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			res.WgFinite = false
			break
		}
	}
	if traced != nil {
		res.CapMismatch = capabilityMismatches(bare, traced)
		res.WriteAccs, res.Accs = traced.writeAccs.Load(), traced.accs.Load()
		res.Names, res.Spans = rec.dump()
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("RESULT %s\n", out)
	return nil
}

func dialWorker(spec workerSpec) (smb.Client, string, error) {
	opts := smb.DialOptions{Addr: spec.Addr, Seed: uint64(spec.Rank)*7919 + 1, ClientID: uint64(spec.Rank + 1)}
	if spec.Transport == "auto" {
		return smb.DialAuto(opts)
	}
	c, err := smb.DialTransport(spec.Transport, opts)
	return c, spec.Transport, err
}

func runSEASGD(spec workerSpec, client smb.Client, rec *recorder, solver nn.SolverConfig,
	elastic core.ElasticConfig, budget int, onIter func(*core.JobBuffers) error, res *workerResult) (*core.JobBuffers, []float64, error) {
	full, err := dataset.NewGaussian(dataset.GaussianConfig{
		Classes: spec.Model.Classes, PerClass: spec.PerClass, Shape: spec.Model.inShape(),
		Noise: 0.5, Seed: spec.DataSeed,
	})
	if err != nil {
		return nil, nil, err
	}
	shard, err := dataset.NewShard(full, spec.Rank, spec.World)
	if err != nil {
		return nil, nil, err
	}
	loader, err := dataset.NewLoader(shard, spec.Batch, spec.DataSeed+uint64(spec.Rank)*7919)
	if err != nil {
		return nil, nil, err
	}
	net, err := buildNet(spec.Model, fmt.Sprintf("w%d", spec.Rank), spec.InitSeed, rec)
	if err != nil {
		return nil, nil, err
	}
	w, err := core.NewWorkerPolling(core.WorkerConfig{
		Job:           spec.Job,
		Client:        client,
		Net:           net,
		Solver:        solver,
		Elastic:       elastic,
		Termination:   core.StopOnMaster,
		MaxIterations: budget,
		Loader:        loader,
		Hook:          func(w *core.Worker, _ int) error { return onIter(w.Buffers()) },
	}, spec.Rank, spec.World, core.BootstrapOptions{})
	if err != nil {
		return nil, nil, err
	}
	stats, err := w.Run()
	if err != nil {
		return nil, nil, err
	}
	res.Pushes = stats.Pushes
	return w.Buffers(), stats.LossHistory, nil
}

func runGroup(spec workerSpec, client smb.Client, rec *recorder, solver nn.SolverConfig,
	elastic core.ElasticConfig, budget int, onIter func(*core.JobBuffers) error, res *workerResult) (*core.JobBuffers, []float64, error) {
	m := spec.Model
	full, err := dataset.NewPatternImages(m.Classes, spec.PerClass, m.Channels, m.Size, 0.5, spec.DataSeed)
	if err != nil {
		return nil, nil, err
	}
	nets := make([]*nn.Network, spec.Members)
	loaders := make([]*dataset.Loader, spec.Members)
	for i := range nets {
		// Every member starts from the same replica: the group broadcasts
		// the root's weights anyway, and Wg is seeded from member 0.
		if nets[i], err = buildNet(m, fmt.Sprintf("g%dm%d", spec.Rank, i), spec.InitSeed, rec); err != nil {
			return nil, nil, err
		}
		shard, err := dataset.NewShard(full, i, spec.Members)
		if err != nil {
			return nil, nil, err
		}
		if loaders[i], err = dataset.NewLoader(shard, spec.Batch, spec.DataSeed+uint64(i)*7919); err != nil {
			return nil, nil, err
		}
	}
	world, err := mpi.NewWorld(spec.World)
	if err != nil {
		return nil, nil, err
	}
	comm, err := world.Comm(spec.Rank)
	if err != nil {
		return nil, nil, err
	}
	g, err := core.NewHybridGroup(core.HybridGroupConfig{
		Job:           spec.Job,
		Comm:          comm,
		Client:        client,
		Nets:          nets,
		Loaders:       loaders,
		Solver:        solver,
		Elastic:       elastic,
		Termination:   core.StopOnMaster,
		MaxIterations: budget,
		Hook:          func(g *core.HybridGroup, _ int) error { return onIter(g.Buffers()) },
	})
	if err != nil {
		return nil, nil, err
	}
	stats, err := g.Run()
	if err != nil {
		return nil, nil, err
	}
	if len(stats.FailedMembers) > 0 {
		return nil, nil, fmt.Errorf("group members %v failed", stats.FailedMembers)
	}
	res.Pushes = stats.Pushes
	return g.Buffers(), stats.RootLossHistory, nil
}

// meanHeadTail returns the mean of the first and of the last n values.
func meanHeadTail(xs []float64, n int) (head, tail float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	if n > len(xs) {
		n = len(xs)
	}
	for i := 0; i < n; i++ {
		head += xs[i]
		tail += xs[len(xs)-n+i]
	}
	return head / float64(n), tail / float64(n)
}
