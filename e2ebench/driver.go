package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"shmcaffe/internal/telemetry"
)

const (
	// setupReps is how many times a run stands the fleet up; setup_s is
	// their median and only the last fleet trains through the window.
	setupReps = 7
	warmup    = time.Second
	// ageSampleEvery paces the shmserve snapshot-age gauge samples.
	ageSampleEvery = 250 * time.Millisecond
)

type runConfig struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
}

// fleet is one set of processes: the SMB server, the workers and, when
// serving, shmserve.
type fleet struct {
	server     *child
	workers    []*child
	serve      *child
	metricsURL string
	serveURL   string
	negotiated map[string]string // role → transport it negotiated
}

func (f *fleet) stop() {
	if f.serve != nil {
		f.serve.stop()
	}
	for _, w := range f.workers {
		w.stop()
	}
	if f.server != nil {
		f.server.stop()
	}
}

// window is one measured interval with the scrapes taken at its ends.
type window struct {
	from, to           int64 // UnixNano
	srvFrom, srvTo     []telemetry.Sample
	serveFrom, serveTo []telemetry.Sample
	infers             []inferResult
	ages               []float64 // shmserve snapshot age samples, seconds
	steal              float64   // share of the host's CPU time stolen by the hypervisor
}

func (w *window) seconds() float64 { return float64(w.to-w.from) / 1e9 }

// outcome is everything a run measured, handed to the report.
type outcome struct {
	cfg        runConfig
	setups     []float64
	negotiated map[string]string
	untraced   window // trace 1: the first half, wrappers forwarding only
	main       window // the reported window (traced in a trace 1 run)
	results    []*workerResult
	srvFinal   []telemetry.Sample
	serveFinal []telemetry.Sample
}

func run(cfg runConfig) (*outcome, error) {
	out := &outcome{cfg: cfg}
	var f *fleet
	for rep := 0; rep < setupReps; rep++ {
		var setup time.Duration
		var err error
		f, setup, err = startFleet(cfg, rep)
		if err != nil {
			if f != nil {
				f.stop()
			}
			return nil, err
		}
		out.setups = append(out.setups, setup.Seconds())
		if rep < setupReps-1 {
			f.stop()
		}
	}
	defer f.stop()
	out.negotiated = f.negotiated

	time.Sleep(warmup)
	span := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		half := span / 2
		if err := f.measure(cfg, &out.untraced, half, nil); err != nil {
			return nil, err
		}
		for _, w := range f.workers {
			if err := w.send("trace on"); err != nil {
				return nil, err
			}
		}
		span -= half
	}
	bodies := inferBodies(cfg)
	if err := f.measure(cfg, &out.main, span, bodies); err != nil {
		return nil, err
	}

	for _, w := range f.workers {
		if err := w.send("stop"); err != nil {
			return nil, err
		}
	}
	for _, w := range f.workers {
		line, err := w.expect("RESULT ", 60*time.Second)
		if err != nil {
			return nil, err
		}
		var r workerResult
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "RESULT ")), &r); err != nil {
			return nil, fmt.Errorf("%s result: %w", w.role, err)
		}
		out.results = append(out.results, &r)
	}
	var err error
	if out.srvFinal, err = scrape(f.metricsURL); err != nil {
		return nil, err
	}
	if f.serve != nil {
		if out.serveFinal, err = scrape(f.serveURL + "/metrics"); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// startFleet spawns the processes and returns once every worker finished
// its first iteration (and, when serving, the first /infer succeeded). The
// returned duration is the set-up time; building binaries is not in it.
func startFleet(cfg runConfig, rep int) (*fleet, time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	w := cfg.w
	uniq := fmt.Sprintf("%d-%d-%d", os.Getpid(), rep, time.Now().UnixNano()%1e9)
	job := "e2e-" + uniq
	f := &fleet{negotiated: map[string]string{}}
	t0 := time.Now()

	args := []string{self, "-role", "guard", "--", filepath.Join(filepath.Dir(self), "smbserver"),
		"-addr", "127.0.0.1:0", "-http", "127.0.0.1:0", "-stats", "0"}
	if w.ShmOffer {
		// An abstract unix socket: no file, no path-length limit.
		args = append(args, "-shm", "@shmcaffe-e2e-"+uniq)
	}
	if f.server, err = spawn("smbserver", args...); err != nil {
		return nil, 0, err
	}
	line, err := f.server.expect("SMB server listening on tcp ", 30*time.Second)
	if err != nil {
		return f, 0, err
	}
	addr := lastField(line)
	if line, err = f.server.expect("SMB metrics on http://", 30*time.Second); err != nil {
		return f, 0, err
	}
	f.metricsURL = lastField(line)

	for r := 0; r < w.Workers; r++ {
		spec := workerSpec{
			Kind: w.Kind, Rank: r, World: w.Workers, Members: w.Members,
			Addr: addr, Transport: w.Transport, Job: job, Model: w.Model,
			Batch: w.Batch, PerClass: w.PerClass,
			DataSeed: cfg.seed*1000003 + 1, InitSeed: cfg.seed*7919 + 17,
			LR: w.LR, MovingRate: 0.2, Trace: cfg.trace,
		}
		js, err := json.Marshal(spec)
		if err != nil {
			return f, 0, err
		}
		c, err := spawn(fmt.Sprintf("worker%d", r), self, "-role", "worker", "-spec", string(js))
		if err != nil {
			return f, 0, err
		}
		f.workers = append(f.workers, c)
	}
	for _, c := range f.workers {
		line, err := c.expect("READY ", 30*time.Second)
		if err != nil {
			return f, 0, err
		}
		f.negotiated[c.role] = lastField(line)
	}
	if w.Serve {
		m := w.Model
		f.serve, err = spawn("shmserve", self, "-role", "guard", "--",
			filepath.Join(filepath.Dir(self), "shmserve"), "-addr", addr, "-transport", "auto", "-job", job,
			"-features", fmt.Sprint(m.Features), "-hidden", fmt.Sprint(m.Hidden),
			"-classes", fmt.Sprint(m.Classes), "-listen", "127.0.0.1:0")
		if err != nil {
			return f, 0, err
		}
		line, err := f.serve.expect("shmserve: attached ", 60*time.Second)
		if err != nil {
			return f, 0, err
		}
		f.negotiated["shmserve"] = fieldAfter(line, "via")
		if line, err = f.serve.expect("shmserve: listening on ", 30*time.Second); err != nil {
			return f, 0, err
		}
		f.serveURL = fieldAfter(line, "on")
	}
	for _, c := range f.workers {
		if _, err := c.expect("FIRST", 60*time.Second); err != nil {
			return f, 0, err
		}
	}
	if w.Serve {
		if err := firstInfer(f.serveURL, w.Model.Features, 30*time.Second); err != nil {
			return f, 0, err
		}
	}
	return f, time.Since(t0), nil
}

// measure runs one window of length d: scrapes at both ends, the open-loop
// /infer load in between when bodies is non-nil, else just the training.
func (f *fleet) measure(cfg runConfig, win *window, d time.Duration, bodies [][]byte) error {
	var err error
	if win.srvFrom, err = scrape(f.metricsURL); err != nil {
		return err
	}
	if f.serve != nil {
		if win.serveFrom, err = scrape(f.serveURL + "/metrics"); err != nil {
			return err
		}
	}
	steal0, total0 := cpuSteal()
	start := time.Now()
	win.from = start.UnixNano()
	end := start.Add(d)
	var done chan []inferResult
	if bodies != nil && f.serve != nil {
		done = make(chan []inferResult, 1)
		go func() { done <- runLoadgen(f.serveURL, bodies, start, cfg.w.Rate, cfg.w.Model.Classes) }()
	}
	for time.Now().Before(end) {
		// Snapshot age is a per-layer metric: sample it only when tracing.
		if f.serve != nil && cfg.trace {
			if s, err := scrape(f.serveURL + "/metrics"); err == nil {
				if v, ok := telemetry.SampleValue(s, "shmserve_snapshot_age_seconds", nil); ok {
					win.ages = append(win.ages, v)
				}
			}
			time.Sleep(min(ageSampleEvery, time.Until(end)))
			continue
		}
		time.Sleep(time.Until(end))
	}
	win.to = time.Now().UnixNano()
	if steal1, total1 := cpuSteal(); total1 > total0 {
		win.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	if done != nil {
		win.infers = <-done
	}
	if win.srvTo, err = scrape(f.metricsURL); err != nil {
		return err
	}
	if f.serve != nil {
		if win.serveTo, err = scrape(f.serveURL + "/metrics"); err != nil {
			return err
		}
	}
	return nil
}

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

func scrape(url string) ([]telemetry.Sample, error) {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", url, resp.Status)
	}
	return telemetry.ParsePrometheus(resp.Body)
}

// inferBodies generates the /infer request bodies of one window from the
// seed: Rate×seconds requests of uniform features in [-1, 1).
func inferBodies(cfg runConfig) [][]byte {
	if !cfg.w.Serve {
		return nil
	}
	secs := cfg.seconds
	if cfg.trace {
		secs -= secs / 2
	}
	n := int(cfg.w.Rate * secs)
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	out := make([][]byte, n)
	x := make([]float32, cfg.w.Model.Features)
	for i := range out {
		for j := range x {
			x[j] = rng.Float32()*2 - 1
		}
		out[i], _ = json.Marshal(struct {
			Features []float32 `json:"features"`
		}{x})
	}
	return out
}

// firstInfer polls /infer until one request succeeds.
func firstInfer(base string, features int, timeout time.Duration) error {
	body, _ := json.Marshal(struct {
		Features []float32 `json:"features"`
	}{make([]float32, features)})
	deadline := time.Now().Add(timeout)
	for {
		resp, err := scrapeClient.Post(base+"/infer", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %s", resp.Status)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no successful /infer within %s: %w", timeout, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// cpuSteal reads the steal and total jiffies of all CPUs from /proc/stat
// (zeros where it is unreadable). Steal is CPU time the hypervisor gave to
// other guests: the host noise a run cannot control, reported beside it.
func cpuSteal() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func lastField(line string) string {
	fs := strings.Fields(line)
	if len(fs) == 0 {
		return ""
	}
	return fs[len(fs)-1]
}

// fieldAfter returns the whitespace-separated field following word.
func fieldAfter(line, word string) string {
	fs := strings.Fields(line)
	for i := 0; i+1 < len(fs); i++ {
		if fs[i] == word {
			return fs[i+1]
		}
	}
	return ""
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
