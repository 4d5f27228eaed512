package smb

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// Vectored TCP data path (DESIGN.md §16.6): the frame protocol's bytes are
// fixed, but bulk payloads are never staged. Outbound, a request's header
// and the caller's payload leave in one writev (net.Buffers), and a chunked
// WRITE+ACCUMULATE sends its whole pipeline (every chunk frame plus the End
// frame) as a single vectored write. Inbound, a bulk reply lands directly
// in the caller's destination buffer (readReplyLocked). The iovec list and
// the chunk-header slab are registered per connection and grow-only, so the
// steady state allocates nothing. On a conn without writev (in-process
// pipes, fault wrappers, the RDS stream) net.Buffers sends one Write per
// iovec: more writes, the same bytes.

// sgMinPayload is the reply size below which the server stages instead of
// vectoring: tiny frames are cheaper copied into one contiguous write than
// described to the kernel as two iovecs.
const sgMinPayload = 4 << 10

// connWritev reports whether conn reaches the kernel's writev via
// net.Buffers.
func connWritev(conn io.ReadWriteCloser) bool {
	switch conn.(type) {
	case *net.TCPConn, *net.UnixConn:
		return true
	}
	return false
}

// vecWriter is a registered iovec list: the [][]byte backing is grow-only
// and owned by one connection, and the net.Buffers header lives inside the
// struct so WriteTo's pointer receiver never forces a fresh heap slice
// header per write (a local `net.Buffers` escapes — one allocation per op,
// exactly what the registered-buffer design exists to avoid).
type vecWriter struct {
	vec  [][]byte    // registered backing, grow-only
	bufs net.Buffers // transient WriteTo view into vec's backing
}

//shm:hotpath
func (vw *vecWriter) reset() { vw.vec = vw.vec[:0] }

//shm:hotpath
func (vw *vecWriter) add(b []byte) {
	//lint:ignore hotalloc the iovec backing is registered per connection and grow-only
	vw.vec = append(vw.vec, b)
}

// writeTo flushes the gathered iovecs as one vectored write and drops the
// payload references so large buffers are not pinned between ops.
//
//shm:hotpath
func (vw *vecWriter) writeTo(w io.Writer) error {
	vw.bufs = net.Buffers(vw.vec)
	_, err := vw.bufs.WriteTo(w) //lint:ignore netdeadline callers arm the connection write deadline before each flush
	vw.bufs = nil
	for i := range vw.vec {
		vw.vec[i] = nil
	}
	vw.vec = vw.vec[:0]
	return err
}

// writeFrameVec writes one frame as [header][payload] in a single vectored
// write, skipping writeFrameInto's staging copy of the payload. The
// server's bulk-reply path: protocol bytes are identical either way.
//
//shm:hotpath
func writeFrameVec(w io.Writer, op byte, payload []byte, vw *vecWriter, scratch *[]byte) error {
	if len(payload)+1 > maxFrame {
		return ErrFrameTooLarge
	}
	if cap(*scratch) < 5 {
		//lint:ignore hotalloc grow-only per-connection staging, amortized to zero
		*scratch = make([]byte, 5)
	}
	buf := (*scratch)[:5]
	stampFrameHdr(buf, op, len(payload), false, TraceContext{})
	vw.reset()
	vw.add(buf)
	vw.add(payload)
	return vw.writeTo(w)
}

// stampFrameHdr fills a frame header: length, opcode (trace-flagged and
// trace-stamped when traced), returning the offset where the payload head
// continues. payload is the byte count that follows h on the wire.
//
//shm:hotpath
func stampFrameHdr(h []byte, op byte, payload int, traced bool, tc TraceContext) int {
	binary.LittleEndian.PutUint32(h[:4], uint32(len(h)-4+payload))
	if !traced {
		h[4] = op
		return 5
	}
	h[4] = op | traceFlagBit
	binary.LittleEndian.PutUint64(h[5:13], tc.TraceID)
	binary.LittleEndian.PutUint64(h[13:21], tc.SpanID)
	binary.LittleEndian.PutUint32(h[21:25], tc.Rank)
	binary.LittleEndian.PutUint32(h[25:29], tc.Iter)
	return 29
}

// gatherRequestLocked stages one request frame into the iovec list: the
// header (plus the trace extension while a context is set) and the staged
// head c.req.buf in the wire scratch, then body straight from the caller's
// buffer. opHello is never trace-flagged — it is what negotiates the
// extension. Caller holds c.mu.
//
//shm:hotpath
func (c *StreamClient) gatherRequestLocked(op opcode, body []byte) error {
	head := c.req.buf
	traced := c.traceOK && c.tc.TraceID != 0 && op != opHello
	hn := 5 + len(head)
	if traced {
		hn += traceHeaderLen
	}
	if hn-4+len(body) > maxFrame {
		return ErrFrameTooLarge
	}
	if cap(c.wire) < hn {
		//lint:ignore hotalloc grow-only per-client staging, amortized to zero
		c.wire = make([]byte, hn)
	}
	buf := c.wire[:hn]
	// The staged head lives inside buf, so only body counts as trailing
	// payload for the length stamp.
	copy(buf[stampFrameHdr(buf, byte(op), len(body), traced, c.tc):], head)
	c.vw.reset()
	c.vw.add(buf)
	if len(body) > 0 {
		c.vw.add(body)
	}
	return nil
}

// flushLocked sends the gathered iovecs as one vectored write under the
// op's write deadline. A poisoned client sends nothing; a failed write
// poisons it: the server saw an unknown prefix of the frames, so the
// framing is desynced. Caller holds c.mu.
//
//shm:hotpath
func (c *StreamClient) flushLocked(timeout time.Duration, what string) error {
	if c.broken != nil {
		return fmt.Errorf("smb: connection poisoned: %w", c.broken)
	}
	dc, deadlines := c.conn.(deadlineConn)
	deadlines = deadlines && timeout > 0
	if deadlines {
		dc.SetWriteDeadline(time.Now().Add(timeout))
	}
	if err := c.vw.writeTo(c.conn); err != nil {
		return c.poisonLocked(fmt.Errorf("%s: %w: %w", what, ErrTransport, err))
	}
	if deadlines {
		dc.SetWriteDeadline(time.Time{})
	}
	return nil
}
