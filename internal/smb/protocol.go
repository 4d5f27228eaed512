package smb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Wire protocol for the TCP transport. Every message is a length-prefixed
// frame:
//
//	[4B frame length (excluding itself)] [1B opcode/status] [payload]
//
// Integers are little-endian fixed width; strings are 2-byte length +
// bytes. The protocol is synchronous RPC: one response per request, in
// order. It stands in for the RDMA verbs + RDS control channel the paper's
// SMB implements in the kernel.

type opcode byte

const (
	opCreate opcode = iota + 1
	opLookup
	opAttach
	opDetach
	opFree
	opRead
	opWrite
	opAccumulate
)

const (
	statusOK  byte = 0
	statusErr byte = 1
)

// maxFrame guards against corrupt length prefixes (1 GiB of payload is far
// above any weight vector in the paper's models).
const maxFrame = 1 << 30

// ErrFrameTooLarge reports a frame exceeding maxFrame.
var ErrFrameTooLarge = errors.New("smb: frame exceeds size limit")

// writeFrameInto writes one frame through a caller-owned, grow-only
// scratch: the header and payload are staged into one buffer and sent with
// a single Write — the server's reply path for control and error replies.
// Local byte arrays escape when passed through the io.Writer interface, so
// the reusable scratch is what keeps the steady-state wire path
// allocation-free (and it halves the syscalls per frame).
//
//shm:hotpath
func writeFrameInto(w io.Writer, op byte, payload []byte, scratch *[]byte) error {
	if len(payload)+1 > maxFrame {
		return ErrFrameTooLarge
	}
	need := 5 + len(payload)
	if cap(*scratch) < need {
		*scratch = make([]byte, need)
	}
	buf := (*scratch)[:need]
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(payload)+1))
	buf[4] = op
	copy(buf[5:], payload)
	_, err := w.Write(buf)
	return err
}

// readFrameInto reads one frame into a caller-owned, grow-only scratch
// buffer: the returned payload aliases *scratch and is valid until the
// next call with the same scratch. The server's connection loop reuses one
// scratch per connection, so steady-state frame reads do not allocate.
//
//shm:hotpath
func readFrameInto(r io.Reader, scratch *[]byte) (op byte, payload []byte, err error) {
	// The length header is read into the scratch too: a local [4]byte array
	// would escape through the io.Reader interface and allocate per frame.
	if cap(*scratch) < 4 {
		*scratch = make([]byte, 64)
	}
	hdr := (*scratch)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n < 1 || n > maxFrame {
		return 0, nil, fmt.Errorf("frame length %d: %w", n, ErrFrameTooLarge)
	}
	if uint32(cap(*scratch)) < n {
		*scratch = make([]byte, n)
	}
	body := (*scratch)[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return body[0], body[1:], nil
}

// scratchPool recycles transient byte buffers across the package: frame
// bodies, sharded-client probe reads, control-slot decodes. Buffers are
// held through a pointer so Put does not allocate.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// getScratch returns a length-n byte buffer from the pool (contents
// undefined) plus the handle to return it with putScratch.
func getScratch(n int) ([]byte, *[]byte) {
	p := scratchPool.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	return (*p)[:n], p
}

func putScratch(p *[]byte) { scratchPool.Put(p) }

// payload builder/reader helpers.

type frameWriter struct{ buf []byte }

func (b *frameWriter) u64(v uint64) *frameWriter {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	b.buf = append(b.buf, tmp[:]...)
	return b
}

func (b *frameWriter) str(s string) *frameWriter {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	var tmp [2]byte
	binary.LittleEndian.PutUint16(tmp[:], uint16(len(s)))
	b.buf = append(b.buf, tmp[:]...)
	b.buf = append(b.buf, s...)
	return b
}

func (b *frameWriter) bytes(p []byte) *frameWriter {
	b.buf = append(b.buf, p...)
	return b
}

type frameReader struct {
	buf []byte
	err error
}

func (r *frameReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[:8])
	r.buf = r.buf[8:]
	return v
}

func (r *frameReader) str() string {
	if r.err != nil {
		return ""
	}
	if len(r.buf) < 2 {
		r.err = io.ErrUnexpectedEOF
		return ""
	}
	n := int(binary.LittleEndian.Uint16(r.buf[:2]))
	r.buf = r.buf[2:]
	if len(r.buf) < n {
		r.err = io.ErrUnexpectedEOF
		return ""
	}
	//lint:ignore hotalloc str decodes only statusErr replies, where the copied message becomes the error the caller returns
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

// skip advances past n bytes of padding.
func (r *frameReader) skip(n int) {
	if r.err != nil {
		return
	}
	if len(r.buf) < n {
		r.err = io.ErrUnexpectedEOF
		return
	}
	r.buf = r.buf[n:]
}

func (r *frameReader) rest() []byte {
	if r.err != nil {
		return nil
	}
	b := r.buf
	r.buf = nil
	return b
}
