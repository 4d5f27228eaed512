package smb

import (
	"bytes"
	"errors"
	"net"
	"testing"

	"shmcaffe/internal/telemetry"
	"shmcaffe/internal/tensor"
)

// The vectored path (sg.go) is StreamClient's only data path: bulk
// payloads leave the caller's buffer in one writev and bulk replies land
// directly in the caller's buffer. These tests pin it end to end against
// the in-process store as the reference, on a TCP conn (real writev) and
// on a conn without writev, where net.Buffers falls back to one Write per
// iovec.

const sgTestBytes = 1 << 20 // 1 MiB: > sgMinPayload and > writeAccChunkBytes

func sgPattern(n int, seed byte) []byte {
	b := make([]byte, n)
	// Keep float32 garbage out of WriteAccumulate: the fused verb decodes
	// float32s, so build the pattern from small floats.
	f, _ := tensor.Float32View(b)
	for i := range f {
		f[i] = float32((i+int(seed))%257) * 0.5
	}
	return b
}

// pipeClient serves srv over an in-process pipe: a conn with deadlines but
// no writev.
func pipeClient(t *testing.T, srv *Server) *StreamClient {
	t.Helper()
	a, b := net.Pipe()
	go srv.ServeConn(b) //lint:ignore goleak joined by srv.Close via the server's WaitGroup
	c := NewStreamClient(a)
	t.Cleanup(func() { c.Close() })
	return c
}

// TestScatterGatherRoundTrip exercises the three vectored verbs end to end:
// a bulk Write (header+payload in one writev), a bulk Read (direct landing
// in the caller's buffer), and a multi-chunk WriteAccumulate (the whole
// chunk pipeline as a single vectored write).
func TestScatterGatherRoundTrip(t *testing.T) {
	srv := startServer(t)
	c := dialT(t, srv)

	key, err := c.Create("wg", sgTestBytes)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	data := sgPattern(sgTestBytes, 3)
	if err := c.Write(h, 0, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, sgTestBytes)
	if err := c.Read(h, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("vectored write/read corrupted the payload")
	}

	// Fused push through the vectored chunk pipeline (4 chunks at 1 MiB).
	kd, err := c.Create("dw", sgTestBytes)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := c.Attach(kd)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAccumulate(h, hd, data); err != nil {
		t.Fatal(err)
	}
	if err := c.Read(h, 0, got); err != nil {
		t.Fatal(err)
	}
	want, _ := tensor.Float32View(data)
	gf, _ := tensor.Float32View(got)
	for i := range gf {
		if gf[i] != want[i]*2 {
			t.Fatalf("wg[%d] = %v after fused push, want %v", i, gf[i], want[i]*2)
		}
	}
	// The pushed data also landed in dw (WRITE half of the fused verb).
	if err := c.Read(hd, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fused push did not store the increment in src")
	}
}

// wireOpsClient is what the equivalence run drives: the base verbs plus
// the fused push and snapshots.
type wireOpsClient interface {
	Client
	WriteAccumulator
	Snapshotter
}

// runWireOps runs one fixed sequence of verbs — bulk and tiny, at offset 0
// and past it, single- and multi-chunk — and returns every byte read back.
func runWireOps(t *testing.T, c wireOpsClient) []byte {
	t.Helper()
	const n = sgTestBytes + 3*4096 // a partial last chunk
	key, err := c.Create("wg", n)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	kd, err := c.Create("dw", n)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := c.Attach(kd)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	read := func(h Handle, off, size int) {
		t.Helper()
		b := make([]byte, size)
		if err := c.Read(h, off, b); err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
	}
	if err := c.Write(h, 0, sgPattern(n, 9)); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(h, 4096, sgPattern(8, 1)); err != nil { // below sgMinPayload
		t.Fatal(err)
	}
	if err := c.WriteAccumulate(h, hd, sgPattern(n, 4)); err != nil {
		t.Fatal(err)
	}
	read(h, 0, n)
	read(hd, 12, 20)
	if err := c.Accumulate(hd, h); err != nil {
		t.Fatal(err)
	}
	info, err := c.Snapshot(hd)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(hd, 0, sgPattern(n, 2)); err != nil { // after the cut
		t.Fatal(err)
	}
	snap := make([]byte, n-64)
	if err := c.SnapRead(info.ID, 64, snap); err != nil {
		t.Fatal(err)
	}
	out = append(out, snap...)
	if err := c.SnapRelease(info.ID); err != nil {
		t.Fatal(err)
	}
	read(hd, 0, n)
	return out
}

// TestScatterGatherWireEquivalence runs the same operations through a
// StreamClient and through a LocalClient on an in-process store, and
// asserts bitwise-identical results — on a writev conn and on one
// without, so the single path is pinned where net.Buffers degrades to one
// Write per iovec.
func TestScatterGatherWireEquivalence(t *testing.T) {
	want := runWireOps(t, NewLocalClient(NewStore()))
	for _, tc := range []struct {
		name string
		dial func(*testing.T, *Server) *StreamClient
	}{
		{"tcp", dialT},
		{"pipe", pipeClient},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := runWireOps(t, tc.dial(t, startServer(t))); !bytes.Equal(got, want) {
				t.Fatal("wire client and in-process store produced different bytes")
			}
		})
	}
}

// TestScatterGatherErrorReply sends a bulk Read for a dead handle through
// the direct-landing path: the small error frame lands in the scratch, the
// error surfaces as a remote error, and the connection stays usable.
func TestScatterGatherErrorReply(t *testing.T) {
	srv := startServer(t)
	c := dialT(t, srv)

	dst := make([]byte, sgTestBytes)
	err := c.Read(Handle(999), 0, dst)
	if err == nil {
		t.Fatal("read from unknown handle succeeded")
	}
	if errors.Is(err, ErrTransport) {
		t.Fatalf("remote error surfaced as transport poison: %v", err)
	}
	// Framing survived the error reply: the next bulk round trip works.
	key, err := c.Create("wg", sgTestBytes)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	data := sgPattern(sgTestBytes, 5)
	if err := c.Write(h, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := c.Read(h, 0, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("post-error readback corrupted")
	}
}

// TestScatterGatherTrace runs the vectored verbs with wire tracing
// negotiated: the trace extension rides the stamped headers
// (stampFrameHdr), and results stay correct.
func TestScatterGatherTrace(t *testing.T) {
	srv := startServer(t)
	srv.SetTracer(telemetry.NewTracer(4096))
	c := dialT(t, srv)
	ok, err := c.NegotiateTrace()
	if err != nil || !ok {
		t.Fatalf("NegotiateTrace = (%v, %v)", ok, err)
	}
	c.SetTraceContext(TraceContext{TraceID: 77, SpanID: 1, Rank: 2, Iter: 3})
	defer c.ClearTraceContext()

	key, err := c.Create("wg", sgTestBytes)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	kd, err := c.Create("dw", sgTestBytes)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := c.Attach(kd)
	if err != nil {
		t.Fatal(err)
	}
	data := sgPattern(sgTestBytes, 11)
	if err := c.Write(h, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAccumulate(h, hd, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, sgTestBytes)
	if err := c.Read(h, 0, got); err != nil {
		t.Fatal(err)
	}
	want, _ := tensor.Float32View(data)
	gf, _ := tensor.Float32View(got)
	for i := range gf {
		if gf[i] != want[i]*2 {
			t.Fatalf("traced fused push wg[%d] = %v, want %v", i, gf[i], want[i]*2)
		}
	}
}

// TestSupervisedScatterGather runs the supervised client over the vectored
// path: every connection (including reconnects) streams its pushes as one
// vectored write, and the exactly-once push protocol holds across a
// connection loss.
func TestSupervisedScatterGather(t *testing.T) {
	srv := startServer(t)
	c := NewSupervisedClient(SupervisedConfig{
		Addr:     srv.Addr(),
		ClientID: 71,
	})
	defer c.Close()

	key, err := c.Create("wg", sgTestBytes)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	kd, err := c.Create("dw", sgTestBytes)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := c.Attach(kd)
	if err != nil {
		t.Fatal(err)
	}
	data := sgPattern(sgTestBytes, 17)
	if err := c.WriteAccumulate(h, hd, data); err != nil {
		t.Fatal(err)
	}
	// Kill the live connection; the next push must reconnect and apply
	// exactly once.
	c.mu.Lock()
	c.conn.conn.Close()
	c.mu.Unlock()
	if err := c.WriteAccumulate(h, hd, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, sgTestBytes)
	if err := c.Read(h, 0, got); err != nil {
		t.Fatal(err)
	}
	want, _ := tensor.Float32View(data)
	gf, _ := tensor.Float32View(got)
	for i := range gf {
		if gf[i] != want[i]*2 {
			t.Fatalf("wg[%d] = %v after reconnect push, want %v", i, gf[i], want[i]*2)
		}
	}
	if c.Stats().Reconnects < 1 {
		t.Fatalf("stats %+v, want at least one reconnect", c.Stats())
	}
}
