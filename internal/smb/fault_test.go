package smb

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"shmcaffe/internal/faults"
	"shmcaffe/internal/tensor"
)

// Fault-injection tests for the supervised SMB data path: reconnect across
// server restarts, exactly-once pushes under connection drops, deadline and
// cancellation behaviour of WaitUpdate, chunk-stream poisoning, and handler
// exit accounting.

// fastRetry is a SupervisedConfig tuned for tests: millisecond backoff and
// a generous attempt budget so seeded fault schedules never exhaust it.
func fastRetry(addr string) SupervisedConfig {
	return SupervisedConfig{
		Addr:        addr,
		OpTimeout:   2 * time.Second,
		MaxAttempts: 25,
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
		Seed:        1,
	}
}

// startRestartable runs an SMB server behind a crash/restart harness. The
// Store persists across restarts (the factory closes over it), modelling a
// memory-server process that dies and comes back over durable segments.
func startRestartable(t *testing.T, store *Store) *faults.RestartableServer {
	t.Helper()
	rs, err := faults.NewRestartableServer("127.0.0.1:0", func(addr string) (faults.Frontend, error) {
		srv, err := NewServer(store, addr)
		if err != nil {
			return nil, err
		}
		return srv, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	return rs
}

func TestSupervisedReconnectAcrossRestart(t *testing.T) {
	store := NewStore()
	rs := startRestartable(t, store)

	c := NewSupervisedClient(fastRetry(rs.Addr()))
	defer c.Close()

	key, err := c.Create("job/wg", 32)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("hello, durable segment store!..!")
	if err := c.Write(h, 0, want); err != nil {
		t.Fatal(err)
	}

	// Kill the serving plane. The client's next op must reconnect, replay
	// the attach for h, and succeed against the surviving store.
	if err := rs.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := rs.Restart(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := c.Read(h, 0, got); err != nil {
		t.Fatalf("read after restart: %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("read after restart = %q, want %q", got, want)
	}
	if st := c.Stats(); st.Reconnects < 1 {
		t.Fatalf("reconnects = %d, want >= 1 after a crash", st.Reconnects)
	}
}

func TestSupervisedWaitUpdateResumesAcrossRestart(t *testing.T) {
	store := NewStore()
	rs := startRestartable(t, store)

	c := NewSupervisedClient(fastRetry(rs.Addr()))
	defer c.Close()
	key, err := c.Create("job/wg", 64)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		v   uint64
		err error
	}
	res := make(chan result, 1)
	go func() {
		v, err := c.WaitUpdate(h, 0)
		res <- result{v, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the wait park server-side

	// The server dies under the parked wait and comes back; a writer then
	// bumps the version. The supervised wait must resume on the fresh
	// connection and observe the update instead of hanging or failing.
	if err := rs.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := rs.Restart(); err != nil {
		t.Fatal(err)
	}
	w, err := Dial(rs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	wh, err := w.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(wh, 0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}

	select {
	case r := <-res:
		if r.err != nil {
			t.Fatalf("resumed WaitUpdate: %v", r.err)
		}
		if r.v < 1 {
			t.Fatalf("resumed WaitUpdate version = %d, want >= 1", r.v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitUpdate still parked 5s after restart + write")
	}
}

// TestSupervisedExactlyOnceUnderDrops is the acceptance invariant at the
// wire level: with seeded random connection drops injected under the
// client, every logical push still folds into the destination exactly once
// — the store's accumulate counter equals the client's push counter, and
// the accumulated values match a fault-free run.
func TestSupervisedExactlyOnceUnderDrops(t *testing.T) {
	srv := startServer(t)
	inj := faults.New(faults.Config{DropRate: 0.05, Seed: 7})

	cfg := fastRetry(srv.Addr())
	cfg.Dial = func(addr string) (*StreamClient, error) {
		nc, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w: %w", addr, ErrTransport, err)
		}
		return NewStreamClient(inj.WrapConn(nc)), nil
	}
	c := NewSupervisedClient(cfg)
	defer c.Close()

	const elems = 8
	wgKey, err := c.Create("job/wg", elems*4)
	if err != nil {
		t.Fatal(err)
	}
	dwKey, err := c.Create("job/dw", elems*4)
	if err != nil {
		t.Fatal(err)
	}
	wg, err := c.Attach(wgKey)
	if err != nil {
		t.Fatal(err)
	}
	dw, err := c.Attach(dwKey)
	if err != nil {
		t.Fatal(err)
	}

	ones := make([]float32, elems)
	for i := range ones {
		ones[i] = 1
	}
	delta := tensor.Float32Bytes(ones)

	const pushes = 300
	for i := 0; i < pushes; i++ {
		if err := c.WriteAccumulate(wg, dw, delta); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}

	got := make([]float32, elems)
	buf := make([]byte, elems*4)
	if err := c.Read(wg, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := tensor.DecodeFloat32(buf, got); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != pushes {
			t.Fatalf("wg[%d] = %v, want %v (pushes double- or under-applied)", i, v, float32(pushes))
		}
	}

	st := c.Stats()
	acc := srv.Store().Stats().Accumulates
	if st.Pushes != pushes {
		t.Fatalf("client pushes = %d, want %d", st.Pushes, pushes)
	}
	if acc != pushes {
		t.Fatalf("server accumulates = %d, want exactly %d (client pushes)", acc, pushes)
	}
	if inj.Stats().Drops == 0 {
		t.Fatal("fault schedule injected no drops; the test exercised nothing")
	}
	if st.Retries == 0 {
		t.Fatal("drops occurred but the client never retried")
	}
}

// TestWaitUpdateDeadline: a configured wait timeout bounds WaitUpdate even
// when no update ever arrives (satellite: the seed's WaitUpdate blocked
// forever when the server went quiet).
func TestWaitUpdateDeadline(t *testing.T) {
	srv := startServer(t)
	c := dialT(t, srv)
	key, err := c.Create("wg", 64)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}

	c.SetTimeouts(time.Second, 100*time.Millisecond)
	start := time.Now()
	_, err = c.WaitUpdate(h, 0)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("WaitUpdate with no update returned nil, want deadline error")
	}
	if !errors.Is(err, ErrTransport) || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("WaitUpdate error = %v, want ErrTransport and os.ErrDeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("WaitUpdate took %v, want ~100ms wait budget", elapsed)
	}
	// A fired deadline abandons the round trip mid-flight; the connection
	// must be poisoned, not reused.
	if _, err := c.Version(h); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("op after fired deadline = %v, want poisoned-connection error", err)
	}
}

// TestWaitUpdateServerDiesMidWait is the regression for the satellite bug:
// a StreamClient parked in WaitUpdate hung forever when the server died
// under it. Now the parked wait must fail promptly — either with the
// server's ErrWaitCanceled farewell or with a transport error, depending on
// how far the shutdown got.
func TestWaitUpdateServerDiesMidWait(t *testing.T) {
	store := NewStore()
	srv, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve() }()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key, err := c.Create("wg", 64)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}

	errc := make(chan error, 1)
	go func() {
		_, err := c.WaitUpdate(h, 0) // no timeouts configured: blocks until the server speaks
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the wait park server-side

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	<-done

	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("WaitUpdate returned nil after server shutdown")
		}
		if !errors.Is(err, ErrWaitCanceled) && !errors.Is(err, ErrTransport) {
			t.Fatalf("WaitUpdate error = %v, want ErrWaitCanceled or ErrTransport", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitUpdate still parked 5s after Server.Close (seed deadlock)")
	}
}

// limitConn passes through to inner until a byte budget is spent, then
// fails every later write — a deterministic mid-stream connection death.
type limitConn struct {
	net.Conn
	mu      sync.Mutex
	budget  int
	tripped bool
}

var errBudget = errors.New("limitconn: write budget exhausted")

func (l *limitConn) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.tripped || l.budget < len(b) {
		l.tripped = true
		return 0, errBudget
	}
	l.budget -= len(b)
	return l.Conn.Write(b)
}

// TestChunkStreamMidSequencePoison: a connection dying between chunks of a
// WRITE+ACCUMULATE sequence poisons the client (the stream is
// desynchronized; the seed kept using it and the next frame landed inside
// the half-finished sequence) and the server reaps the abandoned sequence.
func TestChunkStreamMidSequencePoison(t *testing.T) {
	srv := startServer(t)

	// Control-plane client creates the segments.
	ctl := dialT(t, srv)
	const elems = 3 * writeAccChunkBytes / 4 // three wire chunks
	wgKey, err := ctl.Create("wg", elems*4)
	if err != nil {
		t.Fatal(err)
	}
	dwKey, err := ctl.Create("dw", elems*4)
	if err != nil {
		t.Fatal(err)
	}

	// Data-plane client whose connection dies after ~1.5 chunks.
	nc, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := NewStreamClient(&limitConn{Conn: nc, budget: writeAccChunkBytes + writeAccChunkBytes/2})
	defer c.Close()
	wg, err := c.Attach(wgKey)
	if err != nil {
		t.Fatal(err)
	}
	dw, err := c.Attach(dwKey)
	if err != nil {
		t.Fatal(err)
	}

	data := make([]byte, elems*4)
	err = c.WriteAccumulate(wg, dw, data)
	if err == nil {
		t.Fatal("WriteAccumulate over a dying connection returned nil")
	}
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("mid-sequence failure = %v, want ErrTransport", err)
	}
	// The client is poisoned: no later verb may reuse the desynchronized
	// stream.
	if _, err := c.Version(wg); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("op after mid-sequence failure = %v, want poisoned-connection error", err)
	}

	// The server saw a prefix of the sequence and then the connection
	// closed: it must reap the partial sequence (and count it).
	deadline := time.Now().Add(2 * time.Second)
	for srv.ReapedSequences() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server reaped %d sequences, want 1", srv.ReapedSequences())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerHandlerErrorSurfaced: a connection dying mid-frame is counted
// and logged instead of being swallowed (the seed dropped every handler
// exit silently).
func TestServerHandlerErrorSurfaced(t *testing.T) {
	srv := startServer(t)
	var mu sync.Mutex
	var lines []string
	srv.SetLogf(func(format string, args ...any) {
		// A slow logger: the counter must not move before the line lands.
		time.Sleep(20 * time.Millisecond)
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})

	nc, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write([]byte{0x10, 0x00}); err != nil { // half a frame header
		t.Fatal(err)
	}
	nc.Close()

	deadline := time.Now().Add(2 * time.Second)
	for srv.ConnErrors() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("ConnErrors = %d, want 1 after a mid-frame close", srv.ConnErrors())
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) == 0 || !strings.Contains(lines[0], "smb") {
		t.Fatalf("log lines = %q, want one smb handler-exit line", lines)
	}
}

// TestCleanCloseNotCounted: an orderly client disconnect between frames is
// not a connection error.
func TestCleanCloseNotCounted(t *testing.T) {
	srv := startServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("wg", 64); err != nil {
		t.Fatal(err)
	}
	c.Close()
	time.Sleep(50 * time.Millisecond) // let the handler observe EOF
	if n := srv.ConnErrors(); n != 0 {
		t.Fatalf("ConnErrors = %d after a clean close, want 0", n)
	}
}

// TestServerCloseLeavesNoHandlers: after Close returns — including with a
// waiter parked in WaitUpdate — every handler goroutine has exited (the
// seed's Close deadlocked behind parked waiters; an earlier variant leaked
// them).
func TestServerCloseLeavesNoHandlers(t *testing.T) {
	baseline := runtime.NumGoroutine()

	store := NewStore()
	srv, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { defer close(served); srv.Serve() }()

	clients := make([]*StreamClient, 3)
	for i := range clients {
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	key, err := clients[0].Create("wg", 64)
	if err != nil {
		t.Fatal(err)
	}
	h, err := clients[1].Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		clients[1].WaitUpdate(h, 0) // parks until shutdown
	}()
	time.Sleep(50 * time.Millisecond)

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close deadlocked behind a parked WaitUpdate")
	}
	<-served
	<-parked
	for _, c := range clients {
		c.Close()
	}

	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after Close: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSeqAccumulateDedup drives the stamped opcode directly: a replayed
// (client, seq) pair must acknowledge as a duplicate without re-applying.
func TestSeqAccumulateDedup(t *testing.T) {
	srv := startServer(t)
	c := dialT(t, srv)

	wgKey, err := c.Create("wg", 16)
	if err != nil {
		t.Fatal(err)
	}
	dwKey, err := c.Create("dw", 16)
	if err != nil {
		t.Fatal(err)
	}
	wg, _ := c.Attach(wgKey)
	dw, _ := c.Attach(dwKey)
	if err := c.Write(dw, 0, tensor.Float32Bytes([]float32{1, 2, 3, 4})); err != nil {
		t.Fatal(err)
	}

	applied, err := c.SeqAccumulate(wg, dw, 42, 1)
	if err != nil || !applied {
		t.Fatalf("first SeqAccumulate = (%v, %v), want (true, nil)", applied, err)
	}
	applied, err = c.SeqAccumulate(wg, dw, 42, 1) // the retry replay
	if err != nil || applied {
		t.Fatalf("replayed SeqAccumulate = (%v, %v), want (false, nil)", applied, err)
	}
	if applied, err := c.SeqAccumulate(wg, dw, 43, 1); err != nil || !applied {
		t.Fatalf("different client, same seq = (%v, %v), want (true, nil)", applied, err)
	}

	st := srv.Store().Stats()
	if st.Accumulates != 2 {
		t.Fatalf("accumulates = %d, want 2 (one per distinct (client,seq))", st.Accumulates)
	}
	if st.SeqDuplicates != 1 {
		t.Fatalf("seq duplicates = %d, want 1", st.SeqDuplicates)
	}
	got := make([]float32, 4)
	buf := make([]byte, 16)
	if err := c.Read(wg, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := tensor.DecodeFloat32(buf, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 || got[3] != 8 {
		t.Fatalf("wg = %v, want exactly twice the delta", got)
	}
}

// TestSupervisedExactlyOnceProperty sweeps the exactly-once invariant over
// several fault schedules: per-seed random connection drops layered under
// the client plus a whole-server crash/restart mid-run. Whatever the
// schedule, the fold count must equal the push count and the accumulated
// values must match a fault-free run.
func TestSupervisedExactlyOnceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed fault sweep")
	}
	for _, seed := range []uint64{3, 17, 101, 4242} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			store := NewStore()
			rs := startRestartable(t, store)
			inj := faults.New(faults.Config{DropRate: 0.08, Seed: seed})

			cfg := fastRetry(rs.Addr())
			cfg.Seed = seed
			cfg.Dial = func(addr string) (*StreamClient, error) {
				nc, err := net.DialTimeout("tcp", addr, time.Second)
				if err != nil {
					return nil, fmt.Errorf("dial %s: %w: %w", addr, ErrTransport, err)
				}
				return NewStreamClient(inj.WrapConn(nc)), nil
			}
			c := NewSupervisedClient(cfg)
			defer c.Close()

			const elems = 4
			wgKey, err := c.Create("job/wg", elems*4)
			if err != nil {
				t.Fatal(err)
			}
			dwKey, err := c.Create("job/dw", elems*4)
			if err != nil {
				t.Fatal(err)
			}
			wg, _ := c.Attach(wgKey)
			dw, _ := c.Attach(dwKey)

			delta := tensor.Float32Bytes([]float32{1, 1, 1, 1})
			const pushes = 80
			for i := 0; i < pushes; i++ {
				if i == pushes/2 {
					if err := rs.CrashFor(20 * time.Millisecond); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.WriteAccumulate(wg, dw, delta); err != nil {
					t.Fatalf("push %d: %v", i, err)
				}
			}

			got := make([]float32, elems)
			buf := make([]byte, elems*4)
			if err := c.Read(wg, 0, buf); err != nil {
				t.Fatal(err)
			}
			if err := tensor.DecodeFloat32(buf, got); err != nil {
				t.Fatal(err)
			}
			for i, v := range got {
				if v != pushes {
					t.Fatalf("wg[%d] = %v, want %v", i, v, float32(pushes))
				}
			}
			if acc, p := store.Stats().Accumulates, c.Stats().Pushes; acc != p || p != pushes {
				t.Fatalf("accumulates = %d, pushes = %d, want both %d", acc, p, pushes)
			}
		})
	}
}

var _ io.ReadWriteCloser = (*limitConn)(nil)
