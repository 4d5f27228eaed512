package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shmcaffe/internal/nn"
	"shmcaffe/internal/smb"
	"shmcaffe/internal/tensor"
)

// Tracing from outside the program: the benchmark wraps the smb.Client a
// worker is given and every nn.Layer of the model it builds, and records one
// span per call. No instrumentation inside shmcaffe is added or enabled.
// Spans stay in memory and are shipped to the coordinator in the worker's result.

// span is one timed call. Name indexes recorder.names; Bytes is the smb
// payload.
type span struct {
	Name  uint16
	Start int64 // UnixNano
	End   int64
	Bytes int64
}

// recorder collects spans once enabled. Until then the wrappers only
// forward (one atomic load per call), so the first half of a traced run
// measures the untraced rate of the same processes.
type recorder struct {
	on atomic.Bool

	mu    sync.Mutex
	names []string          // guarded by mu
	ids   map[string]uint16 // guarded by mu
	spans []span            // guarded by mu
}

func newRecorder() *recorder {
	return &recorder{ids: map[string]uint16{}, spans: make([]span, 0, 1<<16)}
}

// id interns a span name. Called at wrap time, never on the hot path.
func (r *recorder) id(name string) uint16 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.ids[name]; ok {
		return id
	}
	id := uint16(len(r.names))
	r.names = append(r.names, name)
	r.ids[name] = id
	return id
}

func (r *recorder) add(name uint16, start time.Time, bytes int) {
	end := time.Now().UnixNano()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: start.UnixNano(), End: end, Bytes: int64(bytes)})
	r.mu.Unlock()
}

// dump returns the name table and every recorded span.
func (r *recorder) dump() ([]string, []span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.names...), append([]span(nil), r.spans...)
}

// tracedLayer times Forward and Backward of one network layer.
type tracedLayer struct {
	nn.Layer
	rec      *recorder
	fwd, bwd uint16
}

func (l *tracedLayer) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if !l.rec.on.Load() {
		return l.Layer.Forward(x, train)
	}
	t0 := time.Now()
	out, err := l.Layer.Forward(x, train)
	l.rec.add(l.fwd, t0, 0)
	return out, err
}

func (l *tracedLayer) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if !l.rec.on.Load() {
		return l.Layer.Backward(grad)
	}
	t0 := time.Now()
	out, err := l.Layer.Backward(grad)
	l.rec.add(l.bwd, t0, 0)
	return out, err
}

// wrapLayers returns the layers wrapped for tracing. model prefixes the
// span names ("mlp", "cnn") so one metric name means one layer.
func wrapLayers(rec *recorder, model string, layers []nn.Layer) []nn.Layer {
	out := make([]nn.Layer, len(layers))
	for i, l := range layers {
		short := l.Name()
		if j := strings.LastIndexByte(short, '/'); j >= 0 {
			short = short[j+1:]
		}
		out[i] = &tracedLayer{
			Layer: l,
			rec:   rec,
			fwd:   rec.id("nn.fwd." + model + "." + short),
			bwd:   rec.id("nn.bwd." + model + "." + short),
		}
	}
	return out
}

// Segment classes a traced call is attributed to, from the segment names
// core's buffer layout uses (smb.SegmentNames plus the polling boot
// segment).
const (
	segWg    = "wg"
	segDw    = "dw"
	segCtl   = "ctl"
	segOther = "other"
)

func segClass(name string) string {
	switch {
	case strings.HasSuffix(name, "/wg"):
		return segWg
	case strings.Contains(name, "/dw/"):
		return segDw
	case strings.HasSuffix(name, "/ctl"):
		return segCtl
	}
	return segOther
}

// fullClient is every capability a production client offers. The traced
// wrapper forwards all of them, so core feature-tests it exactly as it would
// the bare client (JobBuffers' fused push and trace rooting both hinge on
// those type assertions).
type fullClient interface {
	smb.Client
	smb.WriteAccumulator
	smb.TraceCarrier
	smb.Snapshotter
	smb.Notifier
	smb.SeqAccumulator
}

// tracedClient times every verb of the wrapped client. Counts of the push
// verbs are kept whether or not spans are on, for the path-pinning gate.
type tracedClient struct {
	inner fullClient
	rec   *recorder

	mu   sync.RWMutex
	keys map[smb.SHMKey]string // guarded by mu
	segs map[smb.Handle]string // guarded by mu
	ids  map[string]uint16     // verb.segclass → span name; immutable after construction

	writeAccs atomic.Int64
	accs      atomic.Int64
}

var _ fullClient = (*tracedClient)(nil)

// capabilityNames lists the optional smb capabilities by name with a probe;
// used both to require them of the wrapped client and to check that the
// wrapper exposes every one the wrapped client has.
var capabilityNames = []struct {
	name string
	has  func(smb.Client) bool
}{
	{"WriteAccumulator", func(c smb.Client) bool { _, ok := c.(smb.WriteAccumulator); return ok }},
	{"TraceCarrier", func(c smb.Client) bool { _, ok := c.(smb.TraceCarrier); return ok }},
	{"Snapshotter", func(c smb.Client) bool { _, ok := c.(smb.Snapshotter); return ok }},
	{"Notifier", func(c smb.Client) bool { _, ok := c.(smb.Notifier); return ok }},
	{"SeqAccumulator", func(c smb.Client) bool { _, ok := c.(smb.SeqAccumulator); return ok }},
}

// capabilityMismatches names each capability the two clients disagree on.
func capabilityMismatches(bare, wrapped smb.Client) []string {
	var out []string
	for _, c := range capabilityNames {
		if c.has(bare) != c.has(wrapped) {
			out = append(out, fmt.Sprintf("%s (bare %v, wrapped %v)", c.name, c.has(bare), c.has(wrapped)))
		}
	}
	return out
}

var tracedVerbs = []string{"read", "write", "accumulate", "write_accumulate", "seq_accumulate",
	"create", "lookup", "attach", "detach", "free", "snapshot", "snap_read", "snap_release",
	"version", "wait_update"}

func newTracedClient(c smb.Client, rec *recorder) (*tracedClient, error) {
	fc, ok := c.(fullClient)
	if !ok {
		var missing []string
		for _, cap := range capabilityNames {
			if !cap.has(c) {
				missing = append(missing, cap.name)
			}
		}
		return nil, fmt.Errorf("client %T lacks %v; the traced wrapper would hide capabilities core relies on", c, missing)
	}
	t := &tracedClient{
		inner: fc,
		rec:   rec,
		keys:  map[smb.SHMKey]string{},
		segs:  map[smb.Handle]string{},
		ids:   map[string]uint16{},
	}
	for _, v := range tracedVerbs {
		for _, s := range []string{segWg, segDw, segCtl, segOther} {
			t.ids[v+"."+s] = rec.id("smb." + v + "." + s)
		}
	}
	return t, nil
}

func (t *tracedClient) seg(h smb.Handle) string {
	t.mu.RLock()
	s, ok := t.segs[h]
	t.mu.RUnlock()
	if !ok {
		return segOther
	}
	return s
}

func (t *tracedClient) done(verb, seg string, t0 time.Time, bytes int) {
	t.rec.add(t.ids[verb+"."+seg], t0, bytes)
}

func (t *tracedClient) Create(name string, size int) (smb.SHMKey, error) {
	t0 := time.Now()
	k, err := t.inner.Create(name, size)
	if err == nil {
		t.mu.Lock()
		t.keys[k] = segClass(name)
		t.mu.Unlock()
	}
	if t.rec.on.Load() {
		t.done("create", segClass(name), t0, 0)
	}
	return k, err
}

func (t *tracedClient) Lookup(name string) (smb.SHMKey, error) {
	t0 := time.Now()
	k, err := t.inner.Lookup(name)
	if err == nil {
		t.mu.Lock()
		t.keys[k] = segClass(name)
		t.mu.Unlock()
	}
	if t.rec.on.Load() {
		t.done("lookup", segClass(name), t0, 0)
	}
	return k, err
}

func (t *tracedClient) Attach(key smb.SHMKey) (smb.Handle, error) {
	t0 := time.Now()
	h, err := t.inner.Attach(key)
	t.mu.Lock()
	s, ok := t.keys[key]
	if !ok {
		s = segOther
	}
	if err == nil {
		t.segs[h] = s
	}
	t.mu.Unlock()
	if t.rec.on.Load() {
		t.done("attach", s, t0, 0)
	}
	return h, err
}

func (t *tracedClient) Detach(h smb.Handle) error {
	t0 := time.Now()
	err := t.inner.Detach(h)
	if t.rec.on.Load() {
		t.done("detach", t.seg(h), t0, 0)
	}
	return err
}

func (t *tracedClient) Free(key smb.SHMKey) error {
	t0 := time.Now()
	err := t.inner.Free(key)
	if t.rec.on.Load() {
		t.mu.RLock()
		s, ok := t.keys[key]
		t.mu.RUnlock()
		if !ok {
			s = segOther
		}
		t.done("free", s, t0, 0)
	}
	return err
}

func (t *tracedClient) Read(h smb.Handle, off int, dst []byte) error {
	if !t.rec.on.Load() {
		return t.inner.Read(h, off, dst)
	}
	t0 := time.Now()
	err := t.inner.Read(h, off, dst)
	t.done("read", t.seg(h), t0, len(dst))
	return err
}

func (t *tracedClient) Write(h smb.Handle, off int, src []byte) error {
	if !t.rec.on.Load() {
		return t.inner.Write(h, off, src)
	}
	t0 := time.Now()
	err := t.inner.Write(h, off, src)
	t.done("write", t.seg(h), t0, len(src))
	return err
}

func (t *tracedClient) Accumulate(dst, src smb.Handle) error {
	t.accs.Add(1)
	if !t.rec.on.Load() {
		return t.inner.Accumulate(dst, src)
	}
	t0 := time.Now()
	err := t.inner.Accumulate(dst, src)
	t.done("accumulate", t.seg(dst), t0, 0)
	return err
}

func (t *tracedClient) WriteAccumulate(dst, src smb.Handle, data []byte) error {
	t.writeAccs.Add(1)
	if !t.rec.on.Load() {
		return t.inner.WriteAccumulate(dst, src, data)
	}
	t0 := time.Now()
	err := t.inner.WriteAccumulate(dst, src, data)
	t.done("write_accumulate", t.seg(dst), t0, len(data))
	return err
}

func (t *tracedClient) SeqAccumulate(dst, src smb.Handle, client, seq uint64) (bool, error) {
	if !t.rec.on.Load() {
		return t.inner.SeqAccumulate(dst, src, client, seq)
	}
	t0 := time.Now()
	applied, err := t.inner.SeqAccumulate(dst, src, client, seq)
	t.done("seq_accumulate", t.seg(dst), t0, 0)
	return applied, err
}

func (t *tracedClient) SetTraceContext(tc smb.TraceContext) { t.inner.SetTraceContext(tc) }
func (t *tracedClient) ClearTraceContext()                  { t.inner.ClearTraceContext() }

func (t *tracedClient) Snapshot(h smb.Handle) (smb.SnapInfo, error) {
	t0 := time.Now()
	info, err := t.inner.Snapshot(h)
	if t.rec.on.Load() {
		t.done("snapshot", t.seg(h), t0, 0)
	}
	return info, err
}

func (t *tracedClient) SnapRead(id smb.SnapID, off int, dst []byte) error {
	t0 := time.Now()
	err := t.inner.SnapRead(id, off, dst)
	if t.rec.on.Load() {
		t.done("snap_read", segOther, t0, len(dst))
	}
	return err
}

func (t *tracedClient) SnapRelease(id smb.SnapID) error {
	t0 := time.Now()
	err := t.inner.SnapRelease(id)
	if t.rec.on.Load() {
		t.done("snap_release", segOther, t0, 0)
	}
	return err
}

func (t *tracedClient) Version(h smb.Handle) (uint64, error) {
	t0 := time.Now()
	v, err := t.inner.Version(h)
	if t.rec.on.Load() {
		t.done("version", t.seg(h), t0, 0)
	}
	return v, err
}

func (t *tracedClient) WaitUpdate(h smb.Handle, since uint64) (uint64, error) {
	t0 := time.Now()
	v, err := t.inner.WaitUpdate(h, since)
	if t.rec.on.Load() {
		t.done("wait_update", t.seg(h), t0, 0)
	}
	return v, err
}

func (t *tracedClient) Close() error { return t.inner.Close() }
