// Command shmtrain runs one distributed training job on any of the five
// platforms and prints its convergence curve.
//
// Usage:
//
//	shmtrain -platform shmcaffe-a -workers 8 -epochs 10
//	shmtrain -platform shmcaffe-h -workers 16 -group 4
//	shmtrain -platform shmcaffe-a -workers 4 -smb 127.0.0.1:7700   # external SMB server
//	shmtrain -platform caffe -workers 4 -model cnn
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"syscall"
	"time"

	"shmcaffe/internal/core"
	"shmcaffe/internal/dataset"
	"shmcaffe/internal/nn"
	"shmcaffe/internal/platform"
	"shmcaffe/internal/telemetry"
	"shmcaffe/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "shmtrain:", err)
		// Fatal exit: leave the flight recorder on disk so the post-mortem
		// (reconnects, fired deadlines, dead peers) survives the process.
		if path, derr := dumpFlightRecorder("shmtrain"); derr == nil {
			fmt.Fprintln(os.Stderr, "shmtrain: flight recorder dump:", path)
		}
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("shmtrain", flag.ContinueOnError)
	var (
		platformName = fs.String("platform", "shmcaffe-a", "caffe | caffe-mpi | mpicaffe | shmcaffe-a | shmcaffe-h")
		workers      = fs.Int("workers", 4, "total workers (GPUs)")
		group        = fs.Int("group", 0, "workers per node for shmcaffe-h (0 = all in one group)")
		epochs       = fs.Int("epochs", 8, "training epochs")
		batch        = fs.Int("batch", 8, "per-worker minibatch size")
		classes      = fs.Int("classes", 4, "synthetic classes")
		perClass     = fs.Int("per-class", 100, "samples per class")
		noise        = fs.Float64("noise", 0.8, "sample noise std")
		model        = fs.String("model", "mlp", "mlp | cnn | inception | resnet | vgg")
		lr           = fs.Float64("lr", 0.05, "base learning rate")
		movingRate   = fs.Float64("moving-rate", 0.2, "SEASGD moving_rate (alpha)")
		interval     = fs.Int("update-interval", 1, "SEASGD update_interval")
		seed         = fs.Uint64("seed", 42, "experiment seed")
		smbAddr      = fs.String("smb", "", "external SMB server address (shmcaffe platforms)")
		smbTransport = fs.String("smb-transport", "tcp", "SMB wire: rds or a registered transport (tcp, shm, auto)")
		smbTimeout   = fs.Duration("smb-timeout", 10*time.Second, "per-op SMB deadline for TCP clients (0 = no deadlines)")
		liveness     = fs.Duration("liveness-timeout", 0, "exclude workers silent this long from termination alignment (0 = fault-free protocol)")
		noOverlap    = fs.Bool("no-overlap", false, "multi-process mode: push global updates inline instead of overlapping them with compute (deterministic; the Fig. 6 ablation)")
		jobName      = fs.String("job", "", "SMB job name (needed when sharing an external server)")
		savePath     = fs.String("save", "", "write the trained model as a checkpoint file")
		dataPath     = fs.String("data", "", "train from a corpus database built by mkcorpus instead of generating data")
		netspecPath  = fs.String("netspec", "", "build the model from a netspec file instead of -model")
		rank         = fs.Int("rank", -1, "multi-process mode: this process's rank (requires -world and -smb)")
		world        = fs.Int("world", 0, "multi-process mode: total process count")
		telAddr      = fs.String("telemetry", "", "serve Prometheus /metrics and /debug/pprof on this HTTP address (e.g. 127.0.0.1:0)")
		traceOut     = fs.String("trace-out", "", "write a Chrome trace_event JSON file of the SEASGD phase spans at exit")
		telLinger    = fs.Duration("telemetry-linger", 0, "keep the telemetry endpoint up this long after training ends")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The flag speaks operator language (0 = off); platform.Config speaks
	// library language (0 = default, negative = off).
	opTimeout := *smbTimeout
	if opTimeout == 0 {
		opTimeout = -1
	}

	sink, err := startTelemetry(out, *telAddr, *traceOut, *telLinger)
	if err != nil {
		return err
	}
	// SIGQUIT dumps the flight recorder before the runtime's stack dump.
	stopDump := telemetry.DumpEventsOnSignal(flightDumpPath("shmtrain"),
		func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "shmtrain: "+format+"\n", args...)
		}, syscall.SIGQUIT)
	defer stopDump()
	// finish writes the trace and lingers on every exit path; a finish
	// failure surfaces only when training itself succeeded.
	defer func() {
		if ferr := sink.finish(); ferr != nil && err == nil {
			err = ferr
		}
	}()

	if *rank >= 0 {
		// Multi-process mode: this process is ONE SEASGD worker; the SMB
		// server provides both the parameter buffer and the rendezvous
		// (core.SetupBuffersPolling). Start one shmtrain per machine.
		if *smbAddr == "" || *world < 1 {
			return fmt.Errorf("multi-process mode needs -smb and -world")
		}
		job := *jobName
		if job == "" {
			job = "mpjob"
		}
		return runSingleWorker(out, singleWorkerOpts{
			rank: *rank, world: *world, smbAddr: *smbAddr, transport: *smbTransport,
			job: job, epochs: *epochs, batch: *batch,
			classes: *classes, perClass: *perClass, noise: *noise,
			lr: *lr, movingRate: *movingRate, interval: *interval, seed: *seed,
			opTimeout: opTimeout, liveness: *liveness, noOverlap: *noOverlap,
			tel: sink.trainer(), reg: sink.registry(),
		})
	}

	trainer, ok := platform.Registry()[*platformName]
	if !ok {
		return fmt.Errorf("unknown platform %q", *platformName)
	}

	var (
		full dataset.Dataset
		mdl  platform.ModelBuilder
	)
	if *netspecPath != "" {
		src, err := os.ReadFile(*netspecPath)
		if err != nil {
			return err
		}
		spec := string(src)
		// Validate once up front so errors carry the file context.
		if _, err := nn.ParseNetSpec(spec); err != nil {
			return fmt.Errorf("%s: %w", *netspecPath, err)
		}
		mdl = func(string) (*nn.Network, error) { return nn.ParseNetSpec(spec) }
	}
	nClasses := *classes
	if *dataPath != "" {
		db, err := dataset.OpenDB(*dataPath)
		if err != nil {
			return err
		}
		defer db.Close()
		full = db
		nClasses = db.NumClasses()
		shape := db.SampleShape()
		switch {
		case mdl != nil: // -netspec already chose the model
		case len(shape) == 1:
			features := shape[0]
			mdl = func(name string) (*nn.Network, error) { return nn.MLP(name, features, 16, nClasses) }
		case len(shape) == 3:
			ch, size := shape[0], shape[1]
			switch *model {
			case "inception":
				mdl = func(name string) (*nn.Network, error) { return nn.MiniInception(name, ch, size, nClasses) }
			case "resnet":
				mdl = func(name string) (*nn.Network, error) { return nn.MiniResNet(name, ch, size, nClasses) }
			case "vgg":
				mdl = func(name string) (*nn.Network, error) { return nn.MiniVGG(name, ch, size, nClasses) }
			default:
				mdl = func(name string) (*nn.Network, error) { return nn.SmallCNN(name, ch, size, nClasses, 0) }
			}
		default:
			return fmt.Errorf("corpus sample shape %v unsupported", shape)
		}
	}
	if full != nil {
		train, val, err := dataset.Split(full, 0.8)
		if err != nil {
			return err
		}
		return train2(out, trainer, mdl, train, val, trainOpts{
			workers: *workers, group: *group, epochs: *epochs, batch: *batch,
			lr: *lr, movingRate: *movingRate, interval: *interval, seed: *seed,
			smbAddr: *smbAddr, smbTransport: *smbTransport, jobName: *jobName, savePath: *savePath,
			smbTimeout: opTimeout, liveness: *liveness,
			tel: sink.trainer(), reg: sink.registry(),
		})
	}
	switch *model {
	case "mlp":
		full, err = dataset.NewGaussian(dataset.GaussianConfig{
			Classes: *classes, PerClass: *perClass, Shape: []int{8},
			Noise: *noise, Seed: *seed,
		})
		if mdl == nil {
			mdl = func(name string) (*nn.Network, error) { return nn.MLP(name, 8, 16, nClasses) }
		}
	case "cnn", "inception", "resnet", "vgg":
		full, err = dataset.NewPatternImages(*classes, *perClass, 1, 8, *noise, *seed)
		if mdl == nil {
			kind := *model
			mdl = func(name string) (*nn.Network, error) {
				switch kind {
				case "inception":
					return nn.MiniInception(name, 1, 8, nClasses)
				case "resnet":
					return nn.MiniResNet(name, 1, 8, nClasses)
				case "vgg":
					return nn.MiniVGG(name, 1, 8, nClasses)
				default:
					return nn.SmallCNN(name, 1, 8, nClasses, 0)
				}
			}
		}
	default:
		return fmt.Errorf("unknown model %q", *model)
	}
	if err != nil {
		return err
	}
	train, val, err := dataset.Split(full, 0.8)
	if err != nil {
		return err
	}
	return train2(out, trainer, mdl, train, val, trainOpts{
		workers: *workers, group: *group, epochs: *epochs, batch: *batch,
		lr: *lr, movingRate: *movingRate, interval: *interval, seed: *seed,
		smbAddr: *smbAddr, smbTransport: *smbTransport, jobName: *jobName, savePath: *savePath,
		smbTimeout: opTimeout, liveness: *liveness,
		tel: sink.trainer(), reg: sink.registry(),
	})
}

// trainOpts carries the run parameters into the shared training driver.
type trainOpts struct {
	workers, group, epochs, batch, interval  int
	lr, movingRate                           float64
	seed                                     uint64
	smbAddr, smbTransport, jobName, savePath string
	smbTimeout, liveness                     time.Duration
	tel                                      *telemetry.Trainer
	reg                                      *telemetry.Registry
}

// train2 runs the configured job and renders its curve and summary.
func train2(out io.Writer, trainer platform.Trainer, mdl platform.ModelBuilder,
	train, val dataset.Dataset, o trainOpts) error {

	solver := nn.DefaultSolverConfig()
	solver.BaseLR = o.lr
	cfg := platform.Config{
		Workers:         o.workers,
		GroupSize:       o.group,
		Model:           mdl,
		Train:           train,
		Val:             val,
		BatchSize:       o.batch,
		Epochs:          o.epochs,
		Solver:          solver,
		Elastic:         core.ElasticConfig{MovingRate: o.movingRate, UpdateInterval: o.interval},
		Seed:            o.seed,
		SMBAddr:         o.smbAddr,
		SMBTransport:    o.smbTransport,
		Job:             o.jobName,
		SMBOpTimeout:    o.smbTimeout,
		LivenessTimeout: o.liveness,
		Telemetry:       o.tel,
		Metrics:         o.reg,
	}

	fmt.Fprintf(out, "training %s: %d workers, %d epochs, %d samples\n\n",
		trainer.Name(), o.workers, o.epochs, train.Len())
	res, err := trainer.Train(cfg)
	if err != nil {
		return err
	}

	t := trace.New(fmt.Sprintf("%s convergence (%d workers)", res.Platform, res.Workers),
		"Epoch", "Train loss", "Val loss", "Accuracy")
	for _, p := range res.Curve {
		t.Add(trace.Itoa(p.Epoch), trace.F2(p.TrainLoss), trace.F2(p.ValLoss), trace.Pct(p.Accuracy))
	}
	if err := t.Render(out); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nfinal: accuracy %s, val loss %.3f, %d iterations/worker\n",
		trace.Pct(res.FinalAcc), res.FinalLoss, res.Iterations)

	if o.savePath != "" {
		if len(res.FinalWeights) == 0 {
			return fmt.Errorf("no final weights to save")
		}
		snapNet, err := mdl("snapshot")
		if err != nil {
			return err
		}
		if err := snapNet.SetFlatWeights(res.FinalWeights); err != nil {
			return err
		}
		f, err := os.Create(o.savePath)
		if err != nil {
			return err
		}
		if err := nn.SaveCheckpoint(f, snapNet); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "checkpoint written to %s\n", o.savePath)
	}
	return nil
}
