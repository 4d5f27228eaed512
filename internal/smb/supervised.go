package smb

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"shmcaffe/internal/telemetry"
)

// SupervisedClient: the fault-tolerant SMB data path.
//
// A bare StreamClient maps one failure model — the connection is perfect or
// the job is dead. SupervisedClient layers the recovery the paper's
// always-up memory server never needed: per-operation deadlines (via
// StreamClient.SetTimeouts), transport failures answered by an exponential
// backoff + jitter reconnect, a replay of the Fig. 2 attach sequence on the
// fresh connection so the caller's handles stay valid, and sequence-stamped
// pushes (seq.go) so a retried WRITE+ACCUMULATE lands at most once however
// many times the connection died under it.
//
// Retry policy follows the error taxonomy of the wire client:
//
//   - ErrTransport (broken pipe, fired deadline, dial failure): the server
//     may never have seen the request, or may have answered into the void —
//     reconnect and retry. Safe because every verb routed through here is
//     idempotent (Write/Read of fixed ranges, Lookup/Attach) or deduped
//     (SeqAccumulate).
//   - ErrWaitCanceled: the server shut down mid-wait; reconnect and re-wait.
//   - Remote errors (ErrUnknownSegment, ErrOutOfRange...): the server spoke;
//     retrying changes nothing. Returned as-is.
//
// Not fault-tolerant: Free (destroys shared state other workers depend on;
// a retry racing a concurrent Create could destroy the successor).

// supervisedClientIDs hands out process-local default client IDs. Jobs with
// multiple processes MUST set SupervisedConfig.ClientID themselves (e.g.
// rank+1): the dedup table is keyed by ID, and two processes sharing an ID
// would swallow each other's pushes as duplicates.
var supervisedClientIDs atomic.Uint64

// SupervisedConfig configures a SupervisedClient. Zero values get the
// documented defaults.
type SupervisedConfig struct {
	// Addr is the server address, re-dialed on every reconnect.
	Addr string
	// Dial overrides how connections are established (tests inject faulty
	// transports here). Default: Dial(addr).
	Dial func(addr string) (*StreamClient, error)
	// OpTimeout bounds each round trip (default 10s; <0 disables).
	OpTimeout time.Duration
	// WaitTimeout bounds WaitUpdate round trips (default OpTimeout). A
	// WaitUpdate is expected to park, so give it the longer budget.
	WaitTimeout time.Duration
	// MaxAttempts bounds tries per logical operation, dial included
	// (default 10).
	MaxAttempts int
	// BackoffBase is the first reconnect delay (default 20ms); successive
	// attempts double it up to BackoffMax (default 1s), each halved-jittered
	// so a herd of workers reconnecting after a server restart spreads out.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the jitter PRNG (deterministic tests).
	Seed uint64
	// ClientID keys the server-side push dedup. 0 draws a process-local
	// unique ID; multi-process jobs must set it (rank+1).
	ClientID uint64
}

// SupervisedStats snapshots a client's recovery counters.
type SupervisedStats struct {
	Reconnects int64 // connections established after the first
	Retries    int64 // operation attempts beyond the first
	Timeouts   int64 // attempts that failed on a fired deadline
	DupAcks    int64 // pushes acknowledged as server-side duplicates
	Pushes     int64 // logical pushes applied exactly once (the invariant LHS)
}

// SupervisedClient wraps the SMB wire protocol with reconnect-and-retry
// supervision. It implements Client, Notifier, WriteAccumulator and
// SeqAccumulator. Like StreamClient it is safe for concurrent use, with
// operations serialized on one connection.
type SupervisedClient struct {
	cfg SupervisedConfig

	mu   sync.Mutex
	conn *StreamClient // guarded by mu; nil while disconnected
	// keys is the client's own handle directory: public Handle → server
	// SHMKey. It is what survives a crash — handles the caller holds stay
	// valid across reconnects because they resolve through this map, not
	// through server state.
	keys       map[Handle]SHMKey // guarded by mu
	remote     map[Handle]Handle // guarded by mu; public → current conn's handle, cleared on reconnect
	nextHandle Handle            // guarded by mu
	seq        uint64            // guarded by mu; stamp for the next push
	rng        uint64            // guarded by mu; jitter PRNG state

	closed    bool // guarded by mu
	connected bool // guarded by mu; a connection has succeeded at least once

	// wantTrace makes every (re)connection negotiate the trace extension;
	// tc is the caller's current trace context, re-stamped onto each fresh
	// connection so propagation survives reconnects. Both guarded by mu.
	wantTrace bool
	tc        TraceContext

	reconnects atomic.Int64
	retries    atomic.Int64
	timeouts   atomic.Int64
	dupAcks    atomic.Int64
	pushes     atomic.Int64

	inst *supervisedInstruments // set before use; nil = uninstrumented
}

var _ Client = (*SupervisedClient)(nil)
var _ Notifier = (*SupervisedClient)(nil)
var _ WriteAccumulator = (*SupervisedClient)(nil)

// NewSupervisedClient returns a supervised client. The first connection is
// established lazily, so constructing one against a down server succeeds —
// the first operation pays the reconnect.
func NewSupervisedClient(cfg SupervisedConfig) *SupervisedClient {
	if cfg.Dial == nil {
		cfg.Dial = Dial
	}
	if cfg.OpTimeout == 0 {
		cfg.OpTimeout = 10 * time.Second
	} else if cfg.OpTimeout < 0 {
		cfg.OpTimeout = 0
	}
	if cfg.WaitTimeout <= 0 {
		cfg.WaitTimeout = cfg.OpTimeout
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 10
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 20 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = time.Second
	}
	if cfg.ClientID == 0 {
		cfg.ClientID = supervisedClientIDs.Add(1)
	}
	return &SupervisedClient{
		cfg:    cfg,
		keys:   make(map[Handle]SHMKey),
		remote: make(map[Handle]Handle),
		rng:    cfg.Seed ^ cfg.ClientID,
	}
}

// ClientID returns the dedup identity pushes are stamped with.
func (c *SupervisedClient) ClientID() uint64 { return c.cfg.ClientID }

// Stats snapshots the recovery counters.
func (c *SupervisedClient) Stats() SupervisedStats {
	return SupervisedStats{
		Reconnects: c.reconnects.Load(),
		Retries:    c.retries.Load(),
		Timeouts:   c.timeouts.Load(),
		DupAcks:    c.dupAcks.Load(),
		Pushes:     c.pushes.Load(),
	}
}

// Close implements Client. A closed client fails every later operation.
func (c *SupervisedClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn != nil {
		err := c.conn.Close()
		c.conn = nil
		return err
	}
	return nil
}

// errClientClosed distinguishes caller-initiated Close from failures.
var errClientClosed = errors.New("smb: supervised client closed")

// ensureLocked returns a live connection, dialing if necessary. Caller
// holds c.mu. Dial failures are NOT retried here — withRetry owns the
// backoff schedule, so a dead server costs one failed attempt per loop
// iteration like any other transport error.
func (c *SupervisedClient) ensureLocked() (*StreamClient, error) {
	if c.closed {
		return nil, errClientClosed
	}
	if c.conn != nil {
		return c.conn, nil
	}
	sc, err := c.cfg.Dial(c.cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("smb supervised dial: %w", err)
	}
	sc.SetTimeouts(c.cfg.OpTimeout, c.cfg.WaitTimeout)
	if c.wantTrace {
		// Re-negotiate on every fresh connection — the grant is per-conn
		// state on the server. A transport failure here counts as a failed
		// dial; an old server just leaves the connection untraced.
		if _, err := sc.NegotiateTrace(); err != nil {
			sc.Close()
			return nil, fmt.Errorf("smb supervised hello: %w", err)
		}
		sc.SetTraceContext(c.tc)
	}
	// Fresh connection, fresh server-side handle table: the Fig. 2 attach
	// exchange replays lazily via remoteLocked as handles are next used.
	c.conn = sc
	for h := range c.remote {
		delete(c.remote, h)
	}
	if c.connected {
		// Only re-connections count: the lazy first dial is the normal
		// bootstrap, not a recovery.
		n := c.reconnects.Add(1)
		telemetry.RecordEvent(telemetry.EvReconnect, int64(c.cfg.ClientID), n, 0)
		if c.inst != nil {
			c.inst.reconnects.Inc()
		}
	}
	c.connected = true
	return sc, nil
}

// EnableTrace makes the client negotiate the trace extension on every
// connection, including reconnects. Against an old server it degrades
// silently to untraced. Call before traffic (it also upgrades a live
// connection in place).
func (c *SupervisedClient) EnableTrace() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wantTrace = true
	if c.conn != nil {
		if _, err := c.conn.NegotiateTrace(); err != nil {
			c.dropLocked() // transport failure: the next verb redials
			return
		}
		c.conn.SetTraceContext(c.tc)
	}
}

// SetTraceContext implements TraceCarrier. The context survives reconnects:
// every fresh connection is re-stamped with it.
func (c *SupervisedClient) SetTraceContext(tc TraceContext) {
	c.mu.Lock()
	c.tc = tc
	if c.conn != nil {
		c.conn.SetTraceContext(tc)
	}
	c.mu.Unlock()
}

// ClearTraceContext implements TraceCarrier.
func (c *SupervisedClient) ClearTraceContext() {
	c.mu.Lock()
	c.tc = TraceContext{}
	if c.conn != nil {
		c.conn.ClearTraceContext()
	}
	c.mu.Unlock()
}

var _ TraceCarrier = (*SupervisedClient)(nil)

// dropLocked discards the connection after a transport failure.
func (c *SupervisedClient) dropLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// retryable reports whether err warrants a reconnect-and-retry.
func retryable(err error) bool {
	return errors.Is(err, ErrTransport) || errors.Is(err, ErrWaitCanceled)
}

// backoffLocked sleeps the attempt-th reconnect delay (half-jittered
// exponential: d/2 + uniform(0, d/2]). Caller holds c.mu — deliberately, so
// a concurrent caller cannot slip in and race the reconnect.
func (c *SupervisedClient) backoffLocked(attempt int) {
	d := c.cfg.BackoffBase << uint(attempt)
	if d > c.cfg.BackoffMax || d <= 0 {
		d = c.cfg.BackoffMax
	}
	// splitmix64 step (Vigna): one multiply-xor chain per draw, seeded per
	// client so a worker herd's schedules decorrelate deterministically.
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	frac := float64(z>>11) / float64(1<<53)
	time.Sleep(d/2 + time.Duration(frac*float64(d/2)))
}

// withRetry runs op against a live connection, reconnecting and retrying on
// transport failures up to MaxAttempts. Caller holds c.mu for the whole
// schedule: operations on a supervised client serialize exactly like on the
// StreamClient underneath.
func (c *SupervisedClient) withRetry(verb string, op func(sc *StreamClient) error) error {
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			if c.inst != nil {
				c.inst.retries.Inc()
			}
			c.backoffLocked(attempt - 1)
		}
		sc, err := c.ensureLocked()
		if err != nil {
			if errors.Is(err, errClientClosed) {
				return err
			}
			lastErr = err
			continue
		}
		err = op(sc)
		if err == nil {
			return nil
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			c.timeouts.Add(1)
			telemetry.RecordEvent(telemetry.EvDeadlineFired, int64(c.cfg.ClientID), 0, 0)
			if c.inst != nil {
				c.inst.timeouts.Inc()
			}
		}
		if !retryable(err) {
			return err
		}
		lastErr = err
		c.dropLocked()
	}
	telemetry.RecordEvent(telemetry.EvRetriesExhausted, int64(c.cfg.ClientID), int64(c.cfg.MaxAttempts), 0)
	return fmt.Errorf("smb supervised %s: %d attempts exhausted: %w", verb, c.cfg.MaxAttempts, lastErr)
}

// resolveLocked maps a public handle to the current connection's handle,
// replaying Attach on the fresh connection when needed.
func (c *SupervisedClient) resolveLocked(sc *StreamClient, h Handle) (Handle, error) {
	if rh, ok := c.remote[h]; ok {
		return rh, nil
	}
	key, ok := c.keys[h]
	if !ok {
		return 0, fmt.Errorf("smb supervised: %w: handle %d", ErrUnknownHandle, h)
	}
	rh, err := sc.Attach(key)
	if err != nil {
		return 0, err
	}
	c.remote[h] = rh
	return rh, nil
}

// publishLocked mints a public handle for key.
func (c *SupervisedClient) publishLocked(key SHMKey, rh Handle) Handle {
	c.nextHandle++
	h := c.nextHandle
	c.keys[h] = key
	c.remote[h] = rh
	return h
}

// Create implements Client. On a retry after a transport failure the
// original Create may have succeeded server-side, so ErrSegmentExists on a
// later attempt resolves to Lookup of the (durable) segment — idempotent
// create, matching what a restarted worker needs anyway.
func (c *SupervisedClient) Create(name string, size int) (SHMKey, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var key SHMKey
	attempt := 0
	err := c.withRetry("create", func(sc *StreamClient) error {
		attempt++
		k, err := sc.Create(name, size)
		if errors.Is(err, ErrSegmentExists) && attempt > 1 {
			k, err = sc.Lookup(name)
		}
		key = k
		return err
	})
	return key, err
}

// Lookup implements Client.
func (c *SupervisedClient) Lookup(name string) (SHMKey, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var key SHMKey
	err := c.withRetry("lookup", func(sc *StreamClient) error {
		k, err := sc.Lookup(name)
		key = k
		return err
	})
	return key, err
}

// Attach implements Client. The returned handle is the supervised client's
// own: it remains valid across reconnects (the server-side attach replays
// lazily).
func (c *SupervisedClient) Attach(key SHMKey) (Handle, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var h Handle
	err := c.withRetry("attach", func(sc *StreamClient) error {
		rh, err := sc.Attach(key)
		if err != nil {
			return err
		}
		h = c.publishLocked(key, rh)
		return nil
	})
	return h, err
}

// Detach implements Client. The local mapping always goes; the server-side
// detach is best-effort (a dead connection already detached it).
func (c *SupervisedClient) Detach(h Handle) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.keys[h]; !ok {
		return fmt.Errorf("smb supervised: %w: handle %d", ErrUnknownHandle, h)
	}
	rh, attached := c.remote[h]
	delete(c.keys, h)
	delete(c.remote, h)
	if attached && c.conn != nil {
		if err := c.conn.Detach(rh); err != nil && !retryable(err) {
			return err
		}
	}
	return nil
}

// Free implements Client. Deliberately NOT retried: Free destroys shared
// state, and a retry racing a concurrent re-Create could free the
// successor segment.
func (c *SupervisedClient) Free(key SHMKey) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	sc, err := c.ensureLocked()
	if err != nil {
		return err
	}
	err = sc.Free(key)
	if retryable(err) {
		c.dropLocked()
	}
	return err
}

// Read implements Client (idempotent; retried).
func (c *SupervisedClient) Read(h Handle, off int, dst []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.withRetry("read", func(sc *StreamClient) error {
		rh, err := c.resolveLocked(sc, h)
		if err != nil {
			return err
		}
		return sc.Read(rh, off, dst)
	})
}

// Write implements Client (idempotent — same bytes, same range; retried).
func (c *SupervisedClient) Write(h Handle, off int, src []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.withRetry("write", func(sc *StreamClient) error {
		rh, err := c.resolveLocked(sc, h)
		if err != nil {
			return err
		}
		return sc.Write(rh, off, src)
	})
}

// Accumulate implements Client. Routed through the sequence-stamped opcode:
// a bare retried ACCUMULATE could double-apply, which corrupts Wg worse
// than losing the push (see seq.go).
func (c *SupervisedClient) Accumulate(dst, src Handle) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seqAccumulateLocked(dst, src)
}

// seqAccumulateLocked stamps one logical accumulate and retries it to
// completion. The stamp is drawn once, before the retry loop — every retry
// replays the SAME sequence number, which is the whole point.
func (c *SupervisedClient) seqAccumulateLocked(dst, src Handle) error {
	c.seq++
	seq := c.seq
	err := c.withRetry("accumulate", func(sc *StreamClient) error {
		rdst, err := c.resolveLocked(sc, dst)
		if err != nil {
			return err
		}
		rsrc, err := c.resolveLocked(sc, src)
		if err != nil {
			return err
		}
		applied, err := sc.SeqAccumulate(rdst, rsrc, c.cfg.ClientID, seq)
		if err != nil {
			return err
		}
		if !applied {
			c.dupAcks.Add(1)
			if c.inst != nil {
				c.inst.dupAcks.Inc()
			}
		}
		return nil
	})
	if err == nil {
		c.pushes.Add(1)
	}
	return err
}

// SeqAccumulate implements SeqAccumulator, exposing the raw stamped verb
// for callers that manage their own sequence space. Most callers should use
// Accumulate/WriteAccumulate, which stamp automatically.
func (c *SupervisedClient) SeqAccumulate(dst, src Handle, client, seq uint64) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var applied bool
	err := c.withRetry("seq-accumulate", func(sc *StreamClient) error {
		rdst, err := c.resolveLocked(sc, dst)
		if err != nil {
			return err
		}
		rsrc, err := c.resolveLocked(sc, src)
		if err != nil {
			return err
		}
		a, err := sc.SeqAccumulate(rdst, rsrc, client, seq)
		applied = a
		return err
	})
	return applied, err
}

// WriteAccumulate implements WriteAccumulator — the supervised form of the
// worker push (Fig. 6 T.A2+T.A3). The fused chunk pipeline applies chunks
// into Wg as they arrive, which is unretriable by construction (a replay
// re-adds every chunk that landed before the failure). The supervised push
// therefore decomposes into the two-phase recipe that IS safe:
//
//	Write(src, 0, data)   — idempotent staging into the private ΔWx segment
//	SeqAccumulate(dst,src) — deduped fold into Wg
//
// trading the pipeline overlap for at-most-once semantics. Jobs that want
// the pipeline back on a quiet network use a bare StreamClient.
func (c *SupervisedClient) WriteAccumulate(dst, src Handle, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.withRetry("write-accumulate stage", func(sc *StreamClient) error {
		rsrc, err := c.resolveLocked(sc, src)
		if err != nil {
			return err
		}
		return sc.Write(rsrc, 0, data)
	})
	if err != nil {
		return err
	}
	return c.seqAccumulateLocked(dst, src)
}

// Version implements Notifier (read-only; retried).
func (c *SupervisedClient) Version(h Handle) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var v uint64
	err := c.withRetry("version", func(sc *StreamClient) error {
		rh, err := c.resolveLocked(sc, h)
		if err != nil {
			return err
		}
		vv, err := sc.Version(rh)
		v = vv
		return err
	})
	return v, err
}

// WaitUpdate implements Notifier. A wait interrupted by a server shutdown
// (ErrWaitCanceled) or a broken connection resumes on the fresh connection
// with the same since — versions are monotonic per segment lifetime, so the
// resumed wait can only be satisfied by the same-or-later update. Note a
// WaitTimeout shorter than the real update cadence turns this into a
// polling loop; budget it generously.
func (c *SupervisedClient) WaitUpdate(h Handle, since uint64) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var v uint64
	err := c.withRetry("wait-update", func(sc *StreamClient) error {
		rh, err := c.resolveLocked(sc, h)
		if err != nil {
			return err
		}
		vv, err := sc.WaitUpdate(rh, since)
		v = vv
		return err
	})
	return v, err
}
