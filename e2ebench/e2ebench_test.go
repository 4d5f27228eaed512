package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"shmcaffe/internal/core"
	"shmcaffe/internal/smb"
	"shmcaffe/internal/tensor"
)

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// buildBinaries builds the benchmark and the binaries it drives, as run.sh
// does, into a temporary directory.
func buildBinaries(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+"/", ".", "shmcaffe/cmd/smbserver", "shmcaffe/cmd/shmserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return dir
}

// TestOutputMatchesBenchmarkJSON runs every workload at its shortest length,
// untraced and traced, and holds the output to BENCHMARK.json: the last line
// is one JSON object with exactly correct/attempted/failed/metrics, every
// metric named there appears exactly once with its unit and a finite value,
// and nothing unnamed appears.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns process fleets")
	}
	spec := loadSpec(t)
	bin := buildBinaries(t)
	for _, w := range spec.Workloads {
		for trace, want := range map[int][]benchMetric{0: spec.EndToEnd, 1: spec.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", w.Name, trace), func(t *testing.T) {
				cmd := exec.Command(filepath.Join(bin, "e2ebench"), "--workload", w.Name, "--seed", "3",
					"--seconds", "1", "--trace", fmt.Sprint(trace))
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("run: %v\n%s", err, stderr.String())
				}
				checkOutput(t, string(out), want)
			})
		}
	}
}

func checkOutput(t *testing.T, out string, want []benchMetric) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	last := lines[len(lines)-1]

	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &top); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, last)
	}
	if len(top) != 4 || top["correct"] == nil || top["attempted"] == nil || top["failed"] == nil || top["metrics"] == nil {
		t.Fatalf("want exactly correct/attempted/failed/metrics, got %s", last)
	}
	var head struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(last), &head); err != nil {
		t.Fatal(err)
	}
	if !head.Correct || head.Attempted < 1 || head.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d\n%s", head.Correct, head.Attempted, head.Failed, out)
	}

	// Walk the metrics object token by token: a duplicated key would be
	// silently merged by Unmarshal.
	dec := json.NewDecoder(bytes.NewReader(top["metrics"]))
	if _, err := dec.Token(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	got := map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		name := tok.(string)
		seen[name]++
		var v struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("metric %s: %v", name, err)
		}
		got[name] = v
	}
	named := map[string]bool{}
	for _, m := range want {
		named[m.Name] = true
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case seen[m.Name] != 1:
			t.Errorf("metric %s appears %d times", m.Name, seen[m.Name])
		case v.Unit != m.Unit:
			t.Errorf("metric %s unit %q, want %q", m.Name, v.Unit, m.Unit)
		case v.Value == nil || math.IsNaN(*v.Value) || math.IsInf(*v.Value, 0):
			t.Errorf("metric %s has no finite value", m.Name)
		}
		printed := 0
		for _, l := range lines[:len(lines)-1] {
			if f := strings.Fields(l); len(f) >= 4 && f[0] == "metric" && f[1] == m.Name && f[3] == m.Unit {
				printed++
			}
		}
		if printed != 1 {
			t.Errorf("metric %s printed %d times with its unit", m.Name, printed)
		}
	}
	for name := range got {
		if !named[name] {
			t.Errorf("metric %s is not named in BENCHMARK.json", name)
		}
	}
}

var spawnedRE = regexp.MustCompile(`e2ebench: spawned pid=(\d+) role=(\S+)`)

// TestNoChildOutlivesParent kills the coordinator outright mid-run and checks
// that every process it started, directly or through a guard, goes away.
func TestNoChildOutlivesParent(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns process fleets")
	}
	bin := buildBinaries(t)
	cmd := exec.Command(filepath.Join(bin, "e2ebench"), "--workload", "serve-storm", "--seed", "1",
		"--seconds", "60", "--trace", "0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var pids []int
	roles := map[string]bool{}
	sc := bufio.NewScanner(stderr)
	deadline := time.Now().Add(60 * time.Second)
	// The first fleet is up once shmserve listens; by then the guard's
	// smbserver and shmserve children and the worker have all started.
	for sc.Scan() && time.Now().Before(deadline) {
		line := sc.Text()
		if m := spawnedRE.FindStringSubmatch(line); m != nil {
			var pid int
			fmt.Sscan(m[1], &pid)
			pids = append(pids, pid)
			roles[filepath.Base(m[2])] = true
		}
		if strings.Contains(line, "shmserve: listening on") {
			break
		}
	}
	for _, r := range []string{"smbserver", "shmserve", "worker0"} {
		if !roles[r] {
			t.Fatalf("never saw %s spawned (saw %v)", r, roles)
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()
	go func() {
		for sc.Scan() {
		}
	}()
	for _, pid := range pids {
		for !gone(pid) {
			if time.Now().After(deadline) {
				t.Fatalf("pid %d outlived the killed coordinator", pid)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// gone reports whether pid has exited (a zombie awaiting its reaper counts).
func gone(pid int) bool {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return true
	}
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	return len(f) > 0 && (f[0] == "Z" || f[0] == "X")
}

// TestTracedModelsMatchZoo pins the benchmark's copy of the zoo layer lists:
// the traced model has the zoo model's parameters and computes its forward
// pass bit for bit, and records a span per layer call once enabled.
func TestTracedModelsMatchZoo(t *testing.T) {
	for _, m := range []modelSpec{
		{Kind: "mlp", Features: 12, Hidden: 7, Classes: 3},
		{Kind: "cnn", Channels: 3, Size: 8, Classes: 4},
	} {
		zoo, err := buildNet(m, "z", 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecorder()
		traced, err := buildNet(m, "z", 5, rec)
		if err != nil {
			t.Fatal(err)
		}
		if zoo.NumParams() != traced.NumParams() || zoo.NumParams() != m.params() {
			t.Fatalf("%s: params zoo %d traced %d spec %d", m, zoo.NumParams(), traced.NumParams(), m.params())
		}
		zw, tw := zoo.FlatWeights(nil), traced.FlatWeights(nil)
		for i := range zw {
			if zw[i] != tw[i] {
				t.Fatalf("%s: weight %d differs", m, i)
			}
		}
		in := append([]int{2}, m.inShape()...)
		x := tensor.New(in...)
		rng := tensor.NewRNG(9)
		for i := range x.Data() {
			x.Data()[i] = float32(rng.NormFloat64())
		}
		rec.on.Store(true)
		a, err := zoo.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := traced.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Data() {
			if a.Data()[i] != b.Data()[i] {
				t.Fatalf("%s: output %d: zoo %v traced %v", m, i, a.Data()[i], b.Data()[i])
			}
		}
		if _, spans := rec.dump(); len(spans) != len(m.layerNames()) {
			t.Fatalf("%s: %d spans for %d layers", m, len(spans), len(m.layerNames()))
		}
	}
}

// TestTracedClientKeepsFusedPush checks the failure mode the wrapper must
// not reintroduce: core must see every capability through it, so JobBuffers
// keeps the fused WriteAccumulate push and its trace carrier.
func TestTracedClientKeepsFusedPush(t *testing.T) {
	srv, err := smb.NewServer(smb.NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	bare, err := smb.DialTransport("tcp", smb.DialOptions{Addr: srv.Addr(), ClientID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	rec := newRecorder()
	tc, err := newTracedClient(bare, rec)
	if err != nil {
		t.Fatal(err)
	}
	if m := capabilityMismatches(bare, tc); len(m) != 0 {
		t.Fatalf("capabilities differ: %v", m)
	}
	b, err := core.SetupBuffersPolling(tc, "job", 0, 1, 16, make([]float32, 16), core.BootstrapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !b.CanStreamPush() || b.TraceCarrier() == nil {
		t.Fatalf("JobBuffers fell back: stream push %v, trace carrier %v", b.CanStreamPush(), b.TraceCarrier() != nil)
	}
	rec.on.Store(true)
	if err := b.PushIncrement(make([]float32, 16)); err != nil {
		t.Fatal(err)
	}
	if tc.writeAccs.Load() != 1 || tc.accs.Load() != 0 {
		t.Fatalf("push made %d WriteAccumulate and %d Accumulate calls", tc.writeAccs.Load(), tc.accs.Load())
	}
	names, spans := rec.dump()
	if len(spans) != 1 || names[spans[0].Name] != "smb.write_accumulate.wg" || spans[0].Bytes != 64 {
		t.Fatalf("spans %v", spans)
	}
}

func TestOverlapMS(t *testing.T) {
	ms := int64(time.Millisecond)
	push := [][2]int64{{0, 10 * ms}, {20 * ms, 30 * ms}}
	nn := [][2]int64{{5 * ms, 8 * ms}, {7 * ms, 12 * ms}, {25 * ms, 40 * ms}}
	if got := overlapMS(push, nn); got != 10 {
		t.Fatalf("overlap %v ms, want 10", got)
	}
}
