package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"shmcaffe/internal/telemetry"
)

type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

type gate struct {
	name   string
	ok     bool
	detail string
}

// pct is the nearest-rank q-quantile of xs (0 when empty).
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// iterations pools every worker's Hook-to-Hook iteration times (ms) for
// iterations that ended inside [from, to].
func iterations(results []*workerResult, from, to int64) []float64 {
	var durs []float64
	for _, r := range results {
		for i := 1; i < len(r.Hooks); i++ {
			if r.Hooks[i] >= from && r.Hooks[i] <= to {
				durs = append(durs, float64(r.Hooks[i]-r.Hooks[i-1])/1e6)
			}
		}
	}
	return durs
}

// rateSlices is how many equal slices the window is cut into for
// iter_per_s: the median slice rate shrugs off a burst of host noise that
// a single whole-window count would absorb.
const rateSlices = 5

// iterRate is the median over rateSlices slices of [from, to] of the
// iterations completed per second, summed over workers.
func iterRate(results []*workerResult, from, to int64) float64 {
	step := (to - from) / rateSlices
	rates := make([]float64, rateSlices)
	for i := range rates {
		a := from + int64(i)*step
		rates[i] = float64(len(iterations(results, a, a+step))) / (float64(step) / 1e9)
	}
	return median(rates)
}

// endToEnd computes the untraced user-facing metrics.
func endToEnd(o *outcome) []metric {
	durs := iterations(o.results, o.main.from, o.main.to)
	n := fmt.Sprintf("n=%d", len(durs))
	return []metric{
		{"iter_per_s", iterRate(o.results, o.main.from, o.main.to), "1/s",
			fmt.Sprintf("median of %d slices; %d iterations in %.1fs", rateSlices, len(durs), o.main.seconds())},
		{"iter_p50_ms", pct(durs, 0.5), "ms", n},
		{"setup_s", median(o.setups), "s", fmt.Sprintf("median of %d set-ups %v", len(o.setups), roundAll(o.setups))},
	}
}

// serving computes the /infer metrics of a window; all zero when the
// workload does not serve.
func serving(o *outcome, win *window) (p50, p99, goodput, lag99 float64, sent, failed int) {
	var lat, lag []float64
	good := 0
	for _, r := range win.infers {
		sent++
		lag = append(lag, float64(r.sent-r.due)/1e6)
		if !r.ok {
			failed++
			lat = append(lat, math.Inf(1)) // a failure misses every limit
			continue
		}
		l := float64(r.done-r.due) / 1e6
		lat = append(lat, l)
		if l <= o.cfg.w.LimitMS {
			good++
		}
	}
	return pct(lat, 0.5), pct(lat, 0.99), float64(good) / win.seconds(), pct(lag, 0.99), sent, failed
}

// layerStats aggregates one window's spans over all workers.
type layerStats struct {
	iters    int // iterations × members: the per-iteration, per-member denominator
	groupIts int // iterations (group iterations for h)
	iterMS   float64
	byName   map[string]float64 // total ms per span name
	reads    []float64          // Wg Read durations, ms
	pushes   []float64          // WriteAccumulate durations, ms
	calls    int
	bytes    int64
	mainSMB  float64 // ms of smb calls on the main thread (all but the push)
	pushMS   float64
	hiddenMS float64 // push ms overlapping the same worker's nn spans
}

func collectLayers(o *outcome, win *window) *layerStats {
	ls := &layerStats{byName: map[string]float64{}}
	members := max(o.cfg.w.Members, 1)
	for _, r := range o.results {
		durs := iterations([]*workerResult{r}, win.from, win.to)
		ls.groupIts += len(durs)
		ls.iters += len(durs) * members
		for _, d := range durs {
			ls.iterMS += d
		}
		var nnSpans [][2]int64
		var pushSpans [][2]int64
		for _, s := range r.Spans {
			if s.Start < win.from || s.End > win.to {
				continue
			}
			name := r.Names[s.Name]
			ms := float64(s.End-s.Start) / 1e6
			ls.byName[name] += ms
			switch {
			case strings.HasPrefix(name, "nn."):
				nnSpans = append(nnSpans, [2]int64{s.Start, s.End})
			case strings.HasPrefix(name, "smb."):
				ls.calls++
				ls.bytes += s.Bytes
				if strings.HasPrefix(name, "smb.write_accumulate.") {
					ls.pushes = append(ls.pushes, ms)
					ls.pushMS += ms
					pushSpans = append(pushSpans, [2]int64{s.Start, s.End})
				} else {
					ls.mainSMB += ms
				}
				if name == "smb.read.wg" {
					ls.reads = append(ls.reads, ms)
				}
			}
		}
		ls.hiddenMS += overlapMS(pushSpans, nnSpans)
	}
	return ls
}

// overlapMS is the total time of spans a covered by the union of spans b.
func overlapMS(a, b [][2]int64) float64 {
	sort.Slice(b, func(i, j int) bool { return b[i][0] < b[j][0] })
	var union [][2]int64
	for _, s := range b {
		if n := len(union); n > 0 && s[0] <= union[n-1][1] {
			union[n-1][1] = max(union[n-1][1], s[1])
			continue
		}
		union = append(union, s)
	}
	var total int64
	for _, s := range a {
		i := sort.Search(len(union), func(i int) bool { return union[i][1] > s[0] })
		for ; i < len(union) && union[i][0] < s[1]; i++ {
			total += min(s[1], union[i][1]) - max(s[0], union[i][0])
		}
	}
	return float64(total) / 1e6
}

func (ls *layerStats) perIter(ms float64) float64 {
	if ls.iters == 0 {
		return 0
	}
	return ms / float64(ls.iters)
}

func (ls *layerStats) perGroupIter(x float64) float64 {
	if ls.groupIts == 0 {
		return 0
	}
	return x / float64(ls.groupIts)
}

// modelLayers is every layer the benchmark's models have, as metric name
// stems; a workload reports 0 for the layers of the model it does not run.
func modelLayers() []string {
	var out []string
	for _, m := range []modelSpec{
		{Kind: "mlp", Features: 1, Hidden: 1, Classes: 2},
		{Kind: "cnn", Channels: 1, Size: 4, Classes: 2},
	} {
		for _, l := range m.layerNames() {
			out = append(out, m.Kind+"."+l)
		}
	}
	return out
}

// perLayer computes the traced run's layer metrics over its traced window.
func perLayer(o *outcome) []metric {
	win := &o.main
	ls := collectLayers(o, win)
	var fwd, bwd float64
	var layerMs []metric
	for _, l := range modelLayers() {
		f, b := ls.byName["nn.fwd."+l], ls.byName["nn.bwd."+l]
		fwd += f
		bwd += b
		layerMs = append(layerMs,
			metric{"nn.layer." + l + ".fwd_ms", ls.perIter(f), "ms", ""},
			metric{"nn.layer." + l + ".bwd_ms", ls.perIter(b), "ms", ""})
	}
	iterMS := ls.perGroupIter(ls.iterMS)
	nnMS := ls.perIter(fwd + bwd)
	mainSMB := ls.perGroupIter(ls.mainSMB)
	var ctl float64
	for name, ms := range ls.byName {
		if strings.HasPrefix(name, "smb.") && strings.HasSuffix(name, ".ctl") {
			ctl += ms
		}
	}
	hidden := 0.0
	if ls.pushMS > 0 {
		hidden = ls.hiddenMS / ls.pushMS
	}
	coverage := 0.0
	if iterMS > 0 {
		coverage = (nnMS + mainSMB) / iterMS
	}
	untracedDurs := iterations(o.results, o.untraced.from, o.untraced.to)
	untracedRate := float64(len(untracedDurs)) / o.untraced.seconds()
	tracedRate := float64(ls.groupIts) / win.seconds()
	overhead := 0.0
	if tracedRate > 0 {
		overhead = untracedRate / tracedRate
	}

	secs := win.seconds()
	srvPushes := appliedAccumulates(win.srvTo) - appliedAccumulates(win.srvFrom)
	fold := 0.0
	if srvPushes > 0 {
		acc := histDelta(win.srvFrom, win.srvTo, "smb_accumulate_seconds")
		chunk := histDelta(win.srvFrom, win.srvTo, "smb_chunk_apply_seconds")
		fold = (acc.Sum + chunk.Sum) * 1e3 / srvPushes
	}
	snap := histDelta(win.srvFrom, win.srvTo, "smb_snap_read_seconds")
	cow := counterDelta(win.srvFrom, win.srvTo, "smb_snap_cow_pages_total", nil) / secs

	batch := histDelta(win.serveFrom, win.serveTo, "shmserve_batch_size")
	batchMean := 0.0
	if batch.Count > 0 {
		batchMean = batch.Sum / float64(batch.Count)
	}
	inferSrv := histDelta(win.serveFrom, win.serveTo, "shmserve_infer_seconds")
	refreshes := counterDelta(win.serveFrom, win.serveTo, "shmserve_refreshes_total", nil) / secs
	refreshFails, _ := telemetry.SampleValue(o.serveFinal, "shmserve_refresh_failures_total", nil)
	age := 0.0
	if len(win.ages) > 0 {
		for _, a := range win.ages {
			age += a
		}
		age = age / float64(len(win.ages)) * 1e3
	}

	p50, p99, goodput, lag99, sent, failed := serving(o, win)
	errRatio := 0.0
	if att := ls.groupIts + sent; att > 0 {
		errRatio = float64(failed) / float64(att)
	}
	its := fmt.Sprintf("its=%d", ls.groupIts)
	out := []metric{
		// The tail rides in the traced run, from its untraced half: across
		// seeds it moves with hypervisor steal far more than its bound.
		{"iter_p95_ms", pct(untracedDurs, 0.95), "ms", fmt.Sprintf("untraced half, n=%d", len(untracedDurs))},
		{"nn.fwd_ms", ls.perIter(fwd), "ms", "per iteration per member"},
		{"nn.bwd_ms", ls.perIter(bwd), "ms", "per iteration per member"},
	}
	out = append(out, layerMs...)
	out = append(out,
		metric{"smb.read_ms", pct(ls.reads, 0.5), "ms", fmt.Sprintf("p50 of %d Wg reads", len(ls.reads))},
		metric{"smb.push_ms", pct(ls.pushes, 0.5), "ms", fmt.Sprintf("p50 of %d pushes", len(ls.pushes))},
		metric{"smb.push_p99_ms", pct(ls.pushes, 0.99), "ms", fmt.Sprintf("p99 of %d pushes", len(ls.pushes))},
		metric{"smb.ctl_ms", ls.perGroupIter(ctl), "ms", "per iteration"},
		metric{"smb.calls_per_iter", ls.perGroupIter(float64(ls.calls)), "count", its},
		metric{"smb.bytes_per_iter", ls.perGroupIter(float64(ls.bytes)), "B", its},
		metric{"smb.server.fold_ms", fold, "ms", "per applied push"},
		metric{"smb.server.snap_read_ms", histQuantile(snap, 0.5) * 1e3, "ms", fmt.Sprintf("p50 of %d", snap.Count)},
		metric{"smb.server.snap_read_p99_ms", histQuantile(snap, 0.99) * 1e3, "ms", fmt.Sprintf("p99 of %d", snap.Count)},
		metric{"smb.server.cow_pages_per_s", cow, "1/s", ""},
		metric{"core.self_ms", iterMS - nnMS - mainSMB, "ms", split(iterMS, nnMS, mainSMB)},
		metric{"core.push_hidden_ratio", hidden, "ratio", ""},
		metric{"shmserve.batch_mean", batchMean, "count", ""},
		metric{"shmserve.server_p50_ms", histQuantile(inferSrv, 0.5) * 1e3, "ms", fmt.Sprintf("of %d", inferSrv.Count)},
		metric{"shmserve.snapshot_age_ms", age, "ms", fmt.Sprintf("mean of %d samples", len(win.ages))},
		metric{"shmserve.refreshes_per_s", refreshes, "1/s", ""},
		metric{"shmserve.refresh_failures", refreshFails, "count", ""},
		metric{"loadgen.lag_p99_ms", lag99, "ms", fmt.Sprintf("n=%d", sent)},
		metric{"infer_p50_ms", p50, "ms", fmt.Sprintf("n=%d", sent)},
		metric{"infer_p99_ms", p99, "ms", fmt.Sprintf("n=%d", sent)},
		metric{"infer_goodput_rps", goodput, "1/s", fmt.Sprintf("limit %g ms", o.cfg.w.LimitMS)},
		metric{"error_ratio", errRatio, "ratio", fmt.Sprintf("%d failed", failed)},
		metric{"trace.coverage", coverage, "ratio", "(nn + main-thread smb) / iteration"},
		metric{"trace.overhead_ratio", overhead, "ratio", fmt.Sprintf("untraced %.2f/s vs traced %.2f/s", untracedRate, tracedRate)},
	)
	return out
}

// split describes how one iteration divides between nn, the main thread's
// smb calls and core's own work (the residual).
func split(iterMS, nnMS, smbMS float64) string {
	if iterMS <= 0 {
		return ""
	}
	pc := func(x float64) float64 { return 100 * x / iterMS }
	return fmt.Sprintf("residual of a %.3f ms iteration: nn %.0f%%, main-thread smb %.0f%%, core %.0f%%",
		iterMS, pc(nnMS), pc(smbMS), pc(iterMS-nnMS-smbMS))
}

// appliedAccumulates is the server's count of applied pushes: accumulates
// it ran itself plus those mapped clients ran on its segments.
func appliedAccumulates(s []telemetry.Sample) float64 {
	tcp, _ := telemetry.SampleValue(s, "smb_accumulates_total", nil)
	shm, _ := telemetry.SampleValue(s, "smb_shm_ops_total", map[string]string{"op": "accumulate"})
	return tcp + shm
}

func counterDelta(a, b []telemetry.Sample, name string, labels map[string]string) float64 {
	va, _ := telemetry.SampleValue(a, name, labels)
	vb, _ := telemetry.SampleValue(b, name, labels)
	return vb - va
}

// histDelta is family's histogram over the interval between two scrapes
// (empty when the family is absent).
func histDelta(a, b []telemetry.Sample, family string) *telemetry.HistogramData {
	hb, ok := telemetry.ExtractHistogram(b, family, nil)
	if !ok {
		return &telemetry.HistogramData{}
	}
	d := &telemetry.HistogramData{Upper: hb.Upper, Cum: append([]int64(nil), hb.Cum...), Count: hb.Count, Sum: hb.Sum}
	if ha, ok := telemetry.ExtractHistogram(a, family, nil); ok && len(ha.Cum) == len(d.Cum) {
		for i := range d.Cum {
			d.Cum[i] -= ha.Cum[i]
		}
		d.Count -= ha.Count
		d.Sum -= ha.Sum
	}
	return d
}

func histQuantile(h *telemetry.HistogramData, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	v := h.Quantile(q)
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// gates are the correctness and path-pinning checks; any failure makes the
// run incorrect.
func gates(o *outcome) []gate {
	w := o.cfg.w
	var gs []gate
	for role, t := range o.negotiated {
		gs = append(gs, gate{"transport." + role, t == w.Want, fmt.Sprintf("negotiated %s, want %s", t, w.Want)})
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i].name < gs[j].name })

	pushes, finite, fused := 0, true, true
	for _, r := range o.results {
		pushes += r.Pushes
		finite = finite && r.WgFinite
		fused = fused && r.StreamPush
	}
	applied := appliedAccumulates(o.srvFinal)
	gs = append(gs,
		gate{"exactly_once", float64(pushes) == applied && pushes > 0, fmt.Sprintf("server applied %g, workers pushed %d", applied, pushes)},
		gate{"wg_finite", finite, "final Wg has no NaN/Inf"},
		gate{"fused_push", fused, "every worker's JobBuffers streams pushes via WriteAccumulate"},
	)
	if o.cfg.trace {
		var mism []string
		oneWA := true
		for _, r := range o.results {
			mism = append(mism, r.CapMismatch...)
			oneWA = oneWA && r.WriteAccs == int64(r.Pushes) && r.Accs == 0
		}
		gs = append(gs,
			gate{"traced_client_forwards_capabilities", len(mism) == 0, fmt.Sprintf("mismatches %v", mism)},
			gate{"one_write_accumulate_per_push", oneWA, describeCalls(o.results)},
		)
	}
	if w.Kind == "h" {
		r := o.results[0]
		gs = append(gs, gate{"loss_declines", r.LossTail < r.LossHead,
			fmt.Sprintf("mean loss first %d its %.4f, last %d its %.4f", lossWindow, r.LossHead, lossWindow, r.LossTail)})
	}
	exhausted, _ := telemetry.SampleValue(o.srvFinal, "smb_snap_retries_exhausted_total", nil)
	gs = append(gs, gate{"snap_retries_exhausted_zero", exhausted == 0, fmt.Sprintf("smb_snap_retries_exhausted_total %g", exhausted)})
	if w.Serve {
		sent, failed := 0, 0
		for _, win := range []*window{&o.untraced, &o.main} {
			for _, r := range win.infers {
				sent++
				if !r.ok {
					failed++
				}
			}
		}
		gs = append(gs, gate{"infer_replies_valid", sent > 0 && failed == 0,
			fmt.Sprintf("%d of %d replies malformed or non-200", failed, sent)})
		fails, ok := telemetry.SampleValue(o.serveFinal, "shmserve_refresh_failures_total", nil)
		gs = append(gs, gate{"refresh_failures_zero", ok && fails == 0, fmt.Sprintf("shmserve_refresh_failures_total %g", fails)})
	}
	return gs
}

func describeCalls(results []*workerResult) string {
	var parts []string
	for _, r := range results {
		parts = append(parts, fmt.Sprintf("rank %d: %d pushes, %d WriteAccumulate, %d Accumulate", r.Rank, r.Pushes, r.WriteAccs, r.Accs))
	}
	return strings.Join(parts, "; ")
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1e4) / 1e4
	}
	return out
}
