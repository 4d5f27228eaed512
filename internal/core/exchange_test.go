package core

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shmcaffe/internal/nn"
	"shmcaffe/internal/smb"
	"shmcaffe/internal/telemetry"
	"shmcaffe/internal/tensor"
)

// Tests for the Fig. 6 exchange engine shared by Worker and HybridGroup.

// TestWorkerMatchesReferenceLoop pins the exchange math bit for bit: a
// 1-rank Worker with DisableOverlap (no scheduling freedom left) must
// produce exactly the loss curve and final Wg of the paper's loop written
// out by hand — T1 ReadGlobal, T2 FusedWeightStep + SetFlatWeights, the
// T.A2–T.A3 push, then the T4+T5 solver step.
func TestWorkerMatchesReferenceLoop(t *testing.T) {
	const iters = 40
	job := newTestJob(t, 1, 61)
	cfg := job.workerConfig(t, 0, "ref")
	cfg.DisableOverlap = true
	cfg.MaxIterations = iters
	w, err := NewWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	gotWg := make([]float32, w.Buffers().Elems())
	if err := w.Buffers().ReadGlobal(gotWg); err != nil {
		t.Fatal(err)
	}

	// The reference run: an identical fixture on its own store.
	ref := newTestJob(t, 1, 61)
	net, loader := ref.nets[0], ref.trains[0]
	elems := net.NumParams()
	bufs, err := SetupBuffersPolling(smb.NewLocalClient(ref.store), "ref", 0, 1, elems,
		net.FlatWeights(nil), BootstrapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	solver := nn.NewSGDSolver(net, cfg.Solver)
	local := make([]float32, elems)
	global := make([]float32, elems)
	delta := make([]float32, elems)
	if err := bufs.ReadGlobal(global); err != nil {
		t.Fatal(err)
	}
	if err := net.SetFlatWeights(global); err != nil {
		t.Fatal(err)
	}
	var wantLoss []float64
	for i := 0; i < iters; i++ {
		if err := bufs.ReadGlobal(global); err != nil {
			t.Fatal(err)
		}
		net.FlatWeights(local)
		if err := FusedWeightStep(delta, local, global, cfg.Elastic.MovingRate); err != nil {
			t.Fatal(err)
		}
		if err := net.SetFlatWeights(local); err != nil {
			t.Fatal(err)
		}
		if err := bufs.PushIncrement(delta); err != nil {
			t.Fatal(err)
		}
		batch := loader.Next()
		loss, err := solver.Step(batch.X, batch.Labels)
		if err != nil {
			t.Fatal(err)
		}
		wantLoss = append(wantLoss, loss)
	}
	wantWg := make([]float32, elems)
	if err := bufs.ReadGlobal(wantWg); err != nil {
		t.Fatal(err)
	}

	if stats.Iterations != iters || stats.Pushes != iters {
		t.Fatalf("worker ran %d iterations, %d pushes; want %d of each", stats.Iterations, stats.Pushes, iters)
	}
	for i, got := range stats.LossHistory {
		if math.Float64bits(got) != math.Float64bits(wantLoss[i]) {
			t.Fatalf("iter %d: worker loss %v != reference %v", i, got, wantLoss[i])
		}
	}
	for i := range wantWg {
		if math.Float32bits(gotWg[i]) != math.Float32bits(wantWg[i]) {
			t.Fatalf("Wg[%d]: worker %v != reference %v", i, gotWg[i], wantWg[i])
		}
	}
}

var errInjectedPush = errors.New("injected push failure")

// failingPushClient is a LocalClient whose failAt-th WriteAccumulate (the
// streamed push) fails; every other call goes through.
type failingPushClient struct {
	*smb.LocalClient
	failAt int32
	calls  atomic.Int32
}

func (c *failingPushClient) WriteAccumulate(dst, src smb.Handle, data []byte) error {
	if c.calls.Add(1) == c.failAt {
		return errInjectedPush
	}
	return c.LocalClient.WriteAccumulate(dst, src, data)
}

// TestAsyncPushFailureEndsRun: an update-thread push failure must end Run
// with that error, never park the main thread on a wake nobody will
// receive. The hang needed the main thread to win the exchange lock between
// the failed push and the recording of its error, so each role runs a
// fixed budget of trials, several at a time on two Ps to keep the
// scheduler interleaving them.
func TestAsyncPushFailureEndsRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const (
		trials   = 1000
		parallel = 8
		deadline = 10 * time.Second
	)
	// Each role builds its runs on the test goroutine (fixtures may
	// t.Fatal); trial goroutines only call Run.
	roles := []struct {
		name  string
		build func(t *testing.T, seed uint64) func() error
	}{
		{"worker", func(t *testing.T, seed uint64) func() error {
			job := newTestJob(t, 1, seed)
			cfg := job.workerConfig(t, 0, "pushfail")
			cfg.MaxIterations = 1000
			cfg.Client = &failingPushClient{LocalClient: smb.NewLocalClient(job.store), failAt: 3}
			w, err := NewWorker(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return func() error { _, err := w.Run(); return err }
		}},
		{"hybrid", func(t *testing.T, seed uint64) func() error {
			configs, store, _ := buildHybridJob(t, 1, 2, seed)
			configs[0].MaxIterations = 1000
			configs[0].Client = &failingPushClient{LocalClient: smb.NewLocalClient(store), failAt: 3}
			g, err := NewHybridGroup(configs[0])
			if err != nil {
				t.Fatal(err)
			}
			return func() error { _, err := g.Run(); return err }
		}},
	}
	for _, role := range roles {
		t.Run(role.name, func(t *testing.T) {
			errs := make(chan error, trials)
			sem := make(chan struct{}, parallel)
			var wg sync.WaitGroup
			for i := 0; i < trials; i++ {
				run := role.build(t, uint64(100+i))
				wg.Add(1)
				go func() {
					defer wg.Done()
					sem <- struct{}{}
					defer func() { <-sem }()
					errs <- run()
				}()
			}
			timeout := time.After(deadline)
			for i := 0; i < trials; i++ {
				select {
				case err := <-errs:
					if !errors.Is(err, errInjectedPush) {
						t.Fatalf("Run returned %v, want the injected push error", err)
					}
				case <-timeout:
					t.Fatalf("%d of %d runs still blocked after %v: a failed push hung Run",
						trials-i, trials, deadline)
				}
			}
			wg.Wait()
		})
	}
}

// TestExchangePushZeroAlloc pins the engine's steady state with the full
// observability surface on: the push (trace rooting through a
// TraceCarrier, T.A1–T.A4 spans, streamed store+fold) and the T1 staleness
// probe allocate nothing. scripts/check.sh tier 2 runs this by name.
func TestExchangePushZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	if _, ok := tensor.Float32View(tensor.Float32Bytes(make([]float32, 16))); !ok {
		t.Skip("no zero-copy fast path on this platform")
	}
	net, err := nn.MLP("alloc", 64, 60, 4)
	if err != nil {
		t.Fatal(err)
	}
	client := &tracingClient{LocalClient: smb.NewLocalClient(smb.NewStore())}
	tel := telemetry.NewTrainer(telemetry.NewRegistry(), 1<<10)
	e, err := newExchanger(client, "alloc", 0, 1, net, newPollRendezvous(client, "alloc", 0, 1, BootstrapOptions{}),
		exchangeConfig{elastic: DefaultElasticConfig(), tel: tel, now: time.Now})
	if err != nil {
		t.Fatal(err)
	}
	if e.buffers.TraceCarrier() == nil || !e.buffers.CanStreamPush() {
		t.Fatal("fixture must trace and stream")
	}
	copy(e.pendingDelta, fusedVec(len(e.pendingDelta), 10))
	tid := telemetry.UpdateTID(0)
	for i := 0; i < 4; i++ { // warm pools
		if err := e.push(tid); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(100, func() {
		if err := e.push(tid); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("traced push allocates %.1f per op, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		e.mu.Lock()
		e.observeStaleness()
		e.mu.Unlock()
	}); a != 0 {
		t.Errorf("staleness probe allocates %.1f per op, want 0", a)
	}
	if client.tc != (smb.TraceContext{}) {
		t.Error("push left its trace context stamped on the client")
	}
}

// TestStopFlagRefreshesLiveness: a rank that stops on a peer's stop flag
// still reports the death that made the peer raise it. Rank 0 writes its
// tombstone, rank 1 raises the flag, and rank 2 — which never checked the
// heartbeats before — must list rank 0 in its dead peers.
func TestStopFlagRefreshesLiveness(t *testing.T) {
	const n = 3
	client := smb.NewLocalClient(smb.NewStore())
	ex := make([]*exchanger, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			net, err := nn.MLP("live", 4, 4, 2)
			if err != nil {
				errs[r] = err
				return
			}
			ex[r], errs[r] = newExchanger(client, "live", r, n, net, newPollRendezvous(client, "live", r, n, BootstrapOptions{}),
				exchangeConfig{elastic: DefaultElasticConfig(), termination: StopOnMaster, maxIterations: 30,
					livenessTimeout: 10 * time.Second, now: time.Now})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	ex[0].obituary(errors.New("crashed"))
	if err := ex[1].buffers.SignalStop(); err != nil {
		t.Fatal(err)
	}
	stop, by, err := ex[2].shouldStop(5)
	if err != nil || !stop || by != "flag" {
		t.Fatalf("shouldStop = (%v, %q, %v), want (true, flag, nil)", stop, by, err)
	}
	if dead := ex[2].liveness.deadRanks(nil); len(dead) != 1 || dead[0] != 0 {
		t.Fatalf("rank 2 dead peers = %v, want [0]", dead)
	}
}
