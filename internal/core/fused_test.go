package core

import (
	"errors"
	"math"
	"testing"

	"shmcaffe/internal/smb"
	"shmcaffe/internal/tensor"
)

// Tests for the fused SEASGD math path: FusedWeightStep must be
// bitwise-identical to the two-pass WeightIncrement → ApplyIncrementLocal
// chain it replaced in the worker's T2 block, and the streamed
// (chunk-pipelined) push must be observably identical to the split
// Write+Accumulate pair.

func fusedVec(n int, seed float32) []float32 {
	v := make([]float32, n)
	x := seed
	for i := range v {
		x = x*1664525 + 1013904223
		v[i] = float32(math.Sin(float64(x))) * 3
	}
	return v
}

func TestFusedWeightStepMatchesUnfused(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 1000} {
		for _, alpha := range []float64{0, 0.125, 0.3, -1.5} {
			local := fusedVec(n, 1)
			global := fusedVec(n, 2)
			wantLocal := append([]float32(nil), local...)
			wantDelta := make([]float32, n)
			if err := WeightIncrement(wantDelta, wantLocal, global, alpha); err != nil {
				t.Fatal(err)
			}
			if err := ApplyIncrementLocal(wantLocal, wantDelta); err != nil {
				t.Fatal(err)
			}

			delta := make([]float32, n)
			if err := FusedWeightStep(delta, local, global, alpha); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if math.Float32bits(delta[i]) != math.Float32bits(wantDelta[i]) ||
					math.Float32bits(local[i]) != math.Float32bits(wantLocal[i]) {
					t.Fatalf("n=%d alpha=%v i=%d: fused (%v,%v) != unfused (%v,%v)",
						n, alpha, i, delta[i], local[i], wantDelta[i], wantLocal[i])
				}
			}
		}
	}
}

func TestFusedWeightStepLengthErrors(t *testing.T) {
	if err := FusedWeightStep(make([]float32, 3), make([]float32, 4), make([]float32, 4), 0.5); !errors.Is(err, ErrConfig) {
		t.Fatalf("short delta: want ErrConfig, got %v", err)
	}
	if err := FusedWeightStep(make([]float32, 4), make([]float32, 4), make([]float32, 3), 0.5); !errors.Is(err, ErrConfig) {
		t.Fatalf("short global: want ErrConfig, got %v", err)
	}
}

// TestElasticExchangeMatchesThreePass pins the fused ElasticExchange against
// the former WeightIncrement → ApplyIncrementLocal → ApplyIncrementGlobal
// chain, bit for bit.
func TestElasticExchangeMatchesThreePass(t *testing.T) {
	const n, alpha = 515, 0.25
	local := fusedVec(n, 3)
	global := fusedVec(n, 4)
	wantLocal := append([]float32(nil), local...)
	wantGlobal := append([]float32(nil), global...)
	scratch := make([]float32, n)
	if err := WeightIncrement(scratch, wantLocal, wantGlobal, alpha); err != nil {
		t.Fatal(err)
	}
	if err := ApplyIncrementLocal(wantLocal, scratch); err != nil {
		t.Fatal(err)
	}
	if err := ApplyIncrementGlobal(wantGlobal, scratch); err != nil {
		t.Fatal(err)
	}

	if err := ElasticExchange(local, global, make([]float32, n), alpha); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if math.Float32bits(local[i]) != math.Float32bits(wantLocal[i]) ||
			math.Float32bits(global[i]) != math.Float32bits(wantGlobal[i]) {
			t.Fatalf("i=%d: fused (%v,%v) != three-pass (%v,%v)",
				i, local[i], global[i], wantLocal[i], wantGlobal[i])
		}
	}
	if err := ElasticExchange(local, global, make([]float32, 1), alpha); !errors.Is(err, ErrConfig) {
		t.Fatalf("short scratch: want ErrConfig, got %v", err)
	}
}

// TestStreamIncrementMatchesSplitPush: the chunk-pipelined push and the
// split Write+Accumulate pair leave identical segment contents and identical
// server counters.
func TestStreamIncrementMatchesSplitPush(t *testing.T) {
	store, bufs := setupPair(t, "fused/stream")
	if !bufs[0].CanStreamPush() {
		t.Fatal("LocalClient should support the streamed push")
	}
	delta := fusedVec(8, 5)

	store.ResetStats()
	if err := bufs[0].StreamIncrement(delta); err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.Writes != 1 || st.Accumulates != 1 {
		t.Fatalf("streamed push counted writes=%d accumulates=%d, want 1/1", st.Writes, st.Accumulates)
	}
	streamed := make([]float32, 8)
	if err := bufs[1].ReadGlobal(streamed); err != nil {
		t.Fatal(err)
	}

	// Replay the same push with the split pair on a fresh family.
	_, bufs2 := setupPair(t, "fused/split")
	if err := bufs2[0].WriteIncrement(delta); err != nil {
		t.Fatal(err)
	}
	if err := bufs2[0].AccumulateIncrement(); err != nil {
		t.Fatal(err)
	}
	split := make([]float32, 8)
	if err := bufs2[1].ReadGlobal(split); err != nil {
		t.Fatal(err)
	}
	for i := range split {
		if math.Float32bits(streamed[i]) != math.Float32bits(split[i]) {
			t.Fatalf("i=%d: streamed %v != split %v", i, streamed[i], split[i])
		}
	}
}

// TestStreamPushFallback: a client wrapper that hides the WriteAccumulator
// capability forces PushIncrement down the split path, and StreamIncrement
// still validates lengths.
func TestStreamPushFallback(t *testing.T) {
	store, bufs := setupPair(t, "fused/fallback")
	if err := bufs[0].StreamIncrement(make([]float32, 3)); !errors.Is(err, ErrConfig) {
		t.Fatalf("short stream: want ErrConfig, got %v", err)
	}
	// A bare-interface wrapper drops the capability.
	b := *bufs[0]
	b.setClient(clientOnly{bufs[0].client})
	if b.CanStreamPush() {
		t.Fatal("wrapper should not stream")
	}
	store.ResetStats()
	delta := fusedVec(8, 6)
	if err := b.PushIncrement(delta); err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.Writes != 1 || st.Accumulates != 1 {
		t.Fatalf("fallback push counted writes=%d accumulates=%d, want 1/1", st.Writes, st.Accumulates)
	}
}

// clientOnly forwards the base Client interface and nothing else.
type clientOnly struct{ smb.Client }

// TestFusedStepAndStreamZeroAlloc pins the steady-state exchange: the fused
// T2 math and the staged streamed push (LocalClient) allocate nothing per
// iteration. scripts/check.sh tier 2 runs this by name.
func TestFusedStepAndStreamZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const n = 4096
	delta := make([]float32, n)
	local := fusedVec(n, 7)
	global := fusedVec(n, 8)
	if a := testing.AllocsPerRun(100, func() {
		if err := FusedWeightStep(delta, local, global, 0.3); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("FusedWeightStep allocates %.1f per op, want 0", a)
	}

	if _, ok := tensor.Float32View(tensor.Float32Bytes(make([]float32, 16))); !ok {
		t.Skip("no zero-copy fast path on this platform")
	}
	_, bufs := setupPair(t, "fused/alloc")
	inc := fusedVec(8, 9)
	for i := 0; i < 4; i++ { // warm pools
		if err := bufs[0].StreamIncrement(inc); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(100, func() {
		if err := bufs[0].StageIncrement(inc); err != nil {
			t.Fatal(err)
		}
		if err := bufs[0].StreamStaged(); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("staged streamed push allocates %.1f per op, want 0", a)
	}
}
