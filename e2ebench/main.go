// Command e2ebench is shmcaffe's end-to-end benchmark. One run stands up a
// real smbserver process, real worker processes (this binary re-executed)
// and, for serve-storm, the real shmserve binary; measures SEASGD
// iterations per second and iteration latency over a timed window; checks
// the run's outputs; and prints every metric by name with its unit, ending
// with one JSON line.
//
//	bash e2ebench/run.sh --workload a-tcp-wide --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the processes run untraced and the end-to-end metrics are
// reported. With --trace 1 the benchmark wraps the smb.Client each worker is
// given and every nn.Layer of the model it builds: the first half of the
// window runs with the wrappers only forwarding, the second half records
// spans, and the per-layer metrics come from those spans plus the counters
// and histograms smbserver and shmserve already export.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"shmcaffe/internal/tensor"
)

// deadline bounds a whole run, children included.
const deadline = 170 * time.Second

func main() {
	var (
		role    = flag.String("role", "coordinator", "coordinator, worker (re-executed worker process) or guard (child tied to stdin)")
		spec    = flag.String("spec", "", "worker: JSON workerSpec")
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured window, seconds")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	)
	flag.Parse()
	switch *role {
	case "guard":
		os.Exit(runGuard(flag.Args()))
	case "worker":
		if err := runWorker(*spec); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		return
	}

	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: e2ebench --workload <a-tcp-wide|h-shm-conv|serve-storm> --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "e2ebench: run exceeded %s\n", deadline)
		killAll()
		os.Exit(1)
	})
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		killAll()
		os.Exit(1)
	}
	report(o)
}

// report prints provenance, metrics and gates, then the JSON line.
func report(o *outcome) {
	w := o.cfg.w
	fmt.Printf("host num_cpu=%d GOMAXPROCS=%d simd=%s go=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), tensor.SimdBackend(), runtime.Version())
	fmt.Printf("workload %s seed=%d model=%s wg_bytes=%d batch=%d workers=%d members=%d transport=%s offered_rps=%g limit_ms=%g seconds=%g trace=%v\n",
		w.Name, o.cfg.seed, w.Model, 4*w.Model.params(), w.Batch, w.Workers, max(w.Members, 1),
		w.Transport, w.Rate, w.LimitMS, o.cfg.seconds, o.cfg.trace)
	fmt.Printf("host cpu_steal=%.2f%% during the reported window\n", 100*o.main.steal)

	var ms []metric
	if o.cfg.trace {
		ms = perLayer(o)
	} else {
		ms = endToEnd(o)
	}
	gs := gates(o)
	correct := true
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jsonMetric{}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			gs = append(gs, gate{"finite." + m.name, false, fmt.Sprintf("%s is %v", m.name, m.value)})
			m.value = 0
		}
		fmt.Printf("metric %-38s %14.4f %-5s %s\n", m.name, m.value, m.unit, m.note)
		out[m.name] = jsonMetric{m.value, m.unit}
	}
	for _, g := range gs {
		status := "PASS"
		if !g.ok {
			status = "FAIL"
			correct = false
		}
		fmt.Printf("gate %-38s %s %s\n", g.name, status, g.detail)
	}
	attempted := len(iterations(o.results, o.main.from, o.main.to))
	failed := 0
	for _, r := range o.main.infers {
		attempted++
		if !r.ok {
			failed++
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, attempted, failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
