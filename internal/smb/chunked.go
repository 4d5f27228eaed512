package smb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Chunk-pipelined WRITE+ACCUMULATE streaming.
//
// The classic worker push (Fig. 6 T.A2/T.A3) is two sequential round trips:
// Write the full ΔWx segment, wait for the ack, then Accumulate it into Wg
// and wait again — the server sits idle while the multi-MB frame is on the
// wire, and the wire sits idle while the server adds. The chunked protocol
// turns the push into a pipeline: the client splits the payload into
// stripe-aligned chunks and streams one opWriteAccChunk frame per chunk
// with no per-chunk reply; the server applies chunk k (copy into the src
// segment, add into the dst segment, under the same 64 KiB stripe locks
// every other verb honours) while chunk k+1 is still in flight. A final
// opWriteAccEnd frame collects a single ack carrying the sequence's first
// error, so the failure surface matches the unfused Write+Accumulate pair.
//
// Per-stripe atomicity is unchanged: each chunk covers whole stripes (the
// chunk size equals the stripe size and offsets are stripe-aligned), every
// stripe is copied and accumulated under its exclusive lock, and version
// notification still fires once per logical operation (on the End frame),
// exactly as one Write plus one Accumulate would. See DESIGN.md §11.

const (
	// opWriteAccChunk carries one chunk of a WriteAccumulate sequence. The
	// server applies it immediately and sends no reply.
	opWriteAccChunk opcode = 11
	// opWriteAccEnd closes the sequence. The server replies once, with the
	// sequence's first error or OK — the single ack of the whole pipeline.
	opWriteAccEnd opcode = 12
)

// writeAccPad pads the 24-byte chunk header so the float32 data starts at
// body offset 28. Frame bodies live at the 8-aligned base of the scratch
// buffer and the opcode occupies body offset 0, so with 3 pad bytes the
// data lands 4-byte aligned and the server-side accumulate can take the
// zero-copy tensor.Float32View fast path instead of the pooled decode.
const writeAccPad = 3

// errNoReply is the dispatch sentinel for streamed frames that must not
// generate a response (the pipelined chunk frames).
var errNoReply = errors.New("smb: no reply for streamed frame")

// WriteAccumulator is the optional fused-transfer capability of a Client:
// write data into the src segment starting at offset 0 and accumulate the
// written range into dst, as one pipelined operation. Callers feature-test
// with a type assertion and fall back to Write + Accumulate.
type WriteAccumulator interface {
	WriteAccumulate(dst, src Handle, data []byte) error
}

// WriteAccumulateAt applies one chunk of a chunked WRITE+ACCUMULATE: data
// is copied into the src segment at off, and the same byte range of dst
// gets the freshly written values added in (float32-wise). Both segments
// must have equal size; off and len(data) must be float32-aligned. Each
// overlapped stripe is processed under the exclusive locks of both
// segments (taken in segment-key order, so chunk streams crossing in
// opposite directions cannot deadlock), which preserves the exact
// no-lost-increments guarantee of Accumulate.
//
// Version bumps and the per-operation counters are deferred to
// FinishWriteAccumulate so an N-chunk sequence counts as exactly one Write
// plus one Accumulate; only the byte counters advance per chunk.
//
//shm:hotpath
func (s *Store) WriteAccumulateAt(dst, src Handle, off int, data []byte) error {
	dseg, err := s.lookupHandle(dst)
	if err != nil {
		return err
	}
	sseg, err := s.lookupHandle(src)
	if err != nil {
		return err
	}
	if len(dseg.data) != len(sseg.data) {
		return fmt.Errorf("write-accumulate %q (%d B) += %q (%d B): %w",
			dseg.name, len(dseg.data), sseg.name, len(sseg.data), ErrSizeMismatch)
	}
	if off < 0 || off+len(data) > len(sseg.data) {
		return fmt.Errorf("write-accumulate [%d,%d) of %d-byte segment %q: %w",
			off, off+len(data), len(sseg.data), sseg.name, ErrOutOfRange)
	}
	if off%4 != 0 || len(data)%4 != 0 {
		return fmt.Errorf("write-accumulate chunk [%d,%d) of %q: %w",
			off, off+len(data), sseg.name, ErrNotFloatAligned)
	}
	ins := s.inst.Load()
	timed := ins != nil
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	var waitNs int64

	// Snapshot fence: one chunk mutates both segments (copy into src, add
	// into dst), so each chunk is one cut-atomic unit against snapshots of
	// either. Both gates in segment-key order — the same discipline as the
	// stripe locks — so concurrent chunk streams crossing in opposite
	// directions cannot deadlock. A snapshot can land between chunks of an
	// N-chunk streamed sequence; DESIGN.md §17 documents that granularity.
	if dseg == sseg {
		dseg.gate.RLock()
		defer dseg.gate.RUnlock()
	} else if dseg.key < sseg.key {
		//lint:ignore lockorder the two gates of this class are taken in segment-key order (this branch and its mirror below), so concurrent chunk streams cannot cross
		dseg.gate.RLock()
		defer dseg.gate.RUnlock()
		sseg.gate.RLock()
		defer sseg.gate.RUnlock()
	} else {
		sseg.gate.RLock()
		defer sseg.gate.RUnlock()
		dseg.gate.RLock()
		defer dseg.gate.RUnlock()
	}
	for covered := 0; covered < len(data); {
		start := off + covered
		ci := start / chunkBytes
		_, hi := sseg.chunkRange(ci)
		if end := off + len(data); hi > end {
			hi = end
		}
		part := data[covered : covered+(hi-start)]
		if dseg == sseg {
			// Self-target: one lock; the write lands and is doubled in place.
			waitNs += dseg.lockStripe(ci, timed)
			copy(sseg.data[start:hi], part)
			err = accumulateChunk(dseg.data[start:hi], dseg.data[start:hi])
			dseg.unlockStripe(ci)
		} else {
			// Both stripes exclusively — the copy mutates src, the add
			// mutates dst — in segment-key order (same discipline as
			// Accumulate, so mixed chunked/unfused traffic cannot deadlock;
			// mapped clients order their shared lock words the same way).
			if dseg.key < sseg.key {
				waitNs += dseg.lockStripe(ci, timed)
				//lint:ignore lockorder second stripe of the same class is taken in segment-key order (dseg.key < sseg.key here, the mirror branch below), so concurrent pairs cannot cross
				waitNs += sseg.lockStripe(ci, timed)
			} else {
				waitNs += sseg.lockStripe(ci, timed)
				waitNs += dseg.lockStripe(ci, timed)
			}
			// copy+add rather than the mapped path's fused NT kernel: this
			// fold overlaps the next chunk's wire transfer (T.A2/A3), so its
			// latency is off the critical path, and the ERMSB copy keeps the
			// folded stripes cache-resident for the Reads the server is about
			// to serve — the opposite tradeoff from ShmClient.WriteAccumulate,
			// whose fold IS the whole op (see copyAccumulateChunk).
			copy(sseg.data[start:hi], part)
			err = accumulateChunk(dseg.data[start:hi], sseg.data[start:hi])
			sseg.unlockStripe(ci)
			dseg.unlockStripe(ci)
		}
		if err != nil {
			return err
		}
		covered += hi - start
	}
	// One chunk moves len(data) bytes into src and len(data) accumulated
	// bytes into dst — the same accounting the unfused Write + Accumulate
	// pair reports over the whole segment.
	s.stats.bytesWrite.Add(int64(2 * len(data)))
	if timed {
		ins.chunkApply.ObserveSeconds(time.Since(t0).Nanoseconds())
		ins.stripeWait.ObserveSeconds(waitNs)
	}
	return nil
}

// FinishWriteAccumulate closes a chunked WRITE+ACCUMULATE sequence: it
// bumps the version of both segments (src was written, dst accumulated —
// the same notifications one Write plus one Accumulate would emit) and
// advances the per-operation counters once for the whole sequence.
func (s *Store) FinishWriteAccumulate(dst, src Handle) error {
	dseg, err := s.lookupHandle(dst)
	if err != nil {
		return err
	}
	sseg, err := s.lookupHandle(src)
	if err != nil {
		return err
	}
	s.versions.bump(sseg)
	if dseg != sseg {
		s.versions.bump(dseg)
	}
	s.stats.writes.Add(1)
	s.stats.accumulates.Add(1)
	return nil
}

// WriteAccumulate implements WriteAccumulator for the in-process transport:
// one direct store call (the store already walks stripe by stripe).
func (c *LocalClient) WriteAccumulate(dst, src Handle, data []byte) error {
	if err := c.store.WriteAccumulateAt(dst, src, 0, data); err != nil {
		return err
	}
	return c.store.FinishWriteAccumulate(dst, src)
}

var _ WriteAccumulator = (*LocalClient)(nil)

// writeAccChunkBytes is the client-side chunk size: a whole multiple of the
// lock stripe, so every streamed chunk maps to whole stripes on the server
// and stripe-level contention granularity is unchanged. Four stripes per
// wire chunk amortizes the per-frame header and server dispatch cost while
// keeping the chunk small enough that the server's copy+fold of chunk k
// stays cache-resident and overlaps the wire transfer of chunk k+1.
const writeAccChunkBytes = 4 * chunkBytes

// WriteAccumulate implements WriteAccumulator over the wire: data is split
// into stripe-aligned chunks streamed back-to-back with no per-chunk reply
// — the server accumulates chunk k while chunk k+1 is on the wire — and one
// final End frame collects the sequence's status. Every chunk header is
// stamped into the registered header slab, the iovec list interleaves
// headers with slices of the caller's data, the End frame rides at the
// tail, and the whole pipeline reaches the transport in a single vectored
// write (sg.go), so the steady-state path allocates nothing.
//
//shm:hotpath
func (c *StreamClient) WriteAccumulate(dst, src Handle, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Chunk frames carry the trace header too: the server's per-chunk
	// srv.chunk spans then parent onto the same client push span as the
	// End ack, rendering the pipeline under one trace.
	traced := c.traceOK && c.tc.TraceID != 0
	hb := 5
	if traced {
		hb += traceHeaderLen
	}
	chunkHdr := hb + 24 + writeAccPad // dst, src, off, padding
	endHdr := hb + 16                 // dst, src
	nchunks := (len(data) + writeAccChunkBytes - 1) / writeAccChunkBytes
	need := nchunks*chunkHdr + endHdr
	if cap(c.hdrs) < need {
		//lint:ignore hotalloc the header slab is registered per client and grow-only
		c.hdrs = make([]byte, need)
	}
	slab := c.hdrs[:need]
	c.vw.reset()
	pos := 0
	for off := 0; off < len(data); off += writeAccChunkBytes {
		end := off + writeAccChunkBytes
		if end > len(data) {
			end = len(data)
		}
		h := slab[pos : pos+chunkHdr]
		pos += chunkHdr
		b := stampFrameHdr(h, byte(opWriteAccChunk), end-off, traced, c.tc)
		binary.LittleEndian.PutUint64(h[b:b+8], uint64(dst))
		binary.LittleEndian.PutUint64(h[b+8:b+16], uint64(src))
		binary.LittleEndian.PutUint64(h[b+16:b+24], uint64(off))
		h[b+24], h[b+25], h[b+26] = 0, 0, 0
		c.vw.add(h)
		c.vw.add(data[off:end])
	}
	e := slab[pos : pos+endHdr]
	b := stampFrameHdr(e, byte(opWriteAccEnd), 0, traced, c.tc)
	binary.LittleEndian.PutUint64(e[b:b+8], uint64(dst))
	binary.LittleEndian.PutUint64(e[b+8:b+16], uint64(src))
	c.vw.add(e)
	var t0 time.Time
	if c.chunkInst != nil {
		t0 = time.Now()
	}
	// A failed write poisons (flushLocked): the server saw some prefix of
	// the chunks and is waiting for the rest, so the next verb's frame
	// would land inside the half-finished sequence.
	if err := c.flushLocked(c.opTimeout, "smb chunk stream"); err != nil {
		return err
	}
	if c.chunkInst != nil {
		// Time to push the whole sequence into the transport: under
		// backpressure this is where the pipeline stalls, so the histogram
		// exposes whether the server keeps up with the wire.
		c.chunkInst.chunkWrite.ObserveSeconds(time.Since(t0).Nanoseconds())
	}
	if _, err := c.readReplyLocked(c.opTimeout, nil); err != nil {
		return err
	}
	if c.chunkInst != nil {
		// Every chunk of the sequence is unacknowledged until the End reply:
		// the pipeline depth reached equals the chunk count.
		c.chunkInst.depth.Observe(float64(nchunks))
	}
	return nil
}

var _ WriteAccumulator = (*StreamClient)(nil)

// WriteAccumulate implements WriteAccumulator for the sharded client:
// len(data) must equal the logical segment size; each server receives its
// shard's slice as a chunked push when the backing client supports it and
// as an unfused Write + Accumulate otherwise. Shards run concurrently.
func (s *ShardedClient) WriteAccumulate(dst, src Handle, data []byte) error {
	dsh, err := s.handle(dst)
	if err != nil {
		return err
	}
	ssh, err := s.handle(src)
	if err != nil {
		return err
	}
	if dsh.total != ssh.total {
		return fmt.Errorf("sharded write-accumulate %d vs %d bytes: %w", dsh.total, ssh.total, ErrSizeMismatch)
	}
	if len(data) != ssh.total {
		return fmt.Errorf("sharded write-accumulate %d bytes into %d-byte segment: %w",
			len(data), ssh.total, ErrSizeMismatch)
	}
	return s.parallelRange(ssh, 0, data, func(i, shardOff int, part []byte) error {
		if wa, ok := s.clients[i].(WriteAccumulator); ok {
			return wa.WriteAccumulate(dsh.subs[i], ssh.subs[i], part)
		}
		if err := s.clients[i].Write(ssh.subs[i], shardOff, part); err != nil {
			return err
		}
		return s.clients[i].Accumulate(dsh.subs[i], ssh.subs[i])
	})
}

var _ WriteAccumulator = (*ShardedClient)(nil)
