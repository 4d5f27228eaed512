package smb

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire-level trace propagation. A client that has negotiated the trace
// feature may prefix any request with a fixed-size trace header, carried by
// setting the high bit of the opcode byte:
//
//	[4B len] [1B opcode|0x80] [8B traceID] [8B spanID] [4B rank] [4B iter] [payload]
//
// The server strips the header before dispatch and records its own spans
// (dispatch, accumulate apply, chunk pipeline, waits) as children of the
// client's span, so a merged Chrome trace shows the causal chain
// worker push → server apply across processes.
//
// Backward compatibility is by negotiation, not by guessing: a client only
// sets the flag after an opHello exchange in which the server granted the
// trace feature. An old server answers opHello with a remote "unknown
// opcode" error — a clean, correctly-framed reply — so a new client simply
// runs untraced. An old client never sets the flag, so a new server serves
// it byte-for-byte as before. No frame with the flag ever reaches a peer
// that cannot parse it.

// traceFlagBit marks a request frame as carrying the trace extension
// header. It is an opcode-byte modifier, not an opcode: real opcodes stay
// below 0x80. Deliberately NOT named op* — the wireproto lint analyzer
// checks dispatch coverage of opcode constants, and this is not one.
const traceFlagBit = 0x80

// traceHeaderLen is the fixed size of the trace extension header.
const traceHeaderLen = 24

// opHello negotiates optional protocol features. Request payload: u64
// bitmask of features the client wants. Reply payload: u64 bitmask of
// features the server grants (always a subset). Old servers answer with an
// "unknown opcode" remote error, which clients treat as "no features".
const opHello opcode = 14

// helloFeatureTrace is the trace-extension feature bit.
const helloFeatureTrace uint64 = 1 << 0

// TraceContext identifies the client-side span on whose behalf a request is
// sent. TraceID groups one logical operation (e.g. one parameter push);
// SpanID is the client span the server's spans become children of. Rank and
// Iter ride along for labeling. The zero TraceContext means "untraced".
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
	Rank    uint32
	Iter    uint32
}

// TraceCarrier is implemented by clients that can stamp outgoing requests
// with a trace context (StreamClient, SupervisedClient). Callers set the
// context before an operation and clear it after; an empty context (zero
// TraceID) disables stamping.
type TraceCarrier interface {
	SetTraceContext(tc TraceContext)
	ClearTraceContext()
}

// NegotiateTrace performs the opHello feature exchange and reports whether
// the server granted the trace extension. Against an old server the hello
// comes back as a clean, correctly-framed "unknown opcode" remote error —
// the method then returns (false, nil) and the connection stays fully
// usable, just untraced. Only transport failures surface as errors.
func (c *StreamClient) NegotiateTrace() (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.traceOK = false
	c.beginLocked().u64(helloFeatureTrace)
	resp, err := c.roundTripLocked(opHello)
	if err != nil {
		if errors.Is(err, ErrTransport) {
			return false, err
		}
		return false, nil // old server: opcode rejected, framing intact
	}
	fr := frameReader{buf: resp}
	granted := fr.u64()
	if fr.err != nil {
		return false, fr.err
	}
	c.traceOK = granted&helloFeatureTrace != 0
	return c.traceOK, nil
}

// SetTraceContext implements TraceCarrier: while tc is nonzero (and the
// server granted the feature), every request is stamped with it.
func (c *StreamClient) SetTraceContext(tc TraceContext) {
	c.mu.Lock()
	c.tc = tc
	c.mu.Unlock()
}

// ClearTraceContext implements TraceCarrier.
func (c *StreamClient) ClearTraceContext() {
	c.mu.Lock()
	c.tc = TraceContext{}
	c.mu.Unlock()
}

var _ TraceCarrier = (*StreamClient)(nil)

// parseTraceExt splits a flagged request body into its trace context and
// the real payload. An undersized header is a framing error: the server
// must drop the connection rather than reply, because the request may be a
// streamed chunk frame that expects no reply — answering it would desync
// the request/response pairing.
func parseTraceExt(payload []byte) (TraceContext, []byte, error) {
	if len(payload) < traceHeaderLen {
		return TraceContext{}, nil, fmt.Errorf("smb: truncated trace header (%d bytes)", len(payload))
	}
	tc := TraceContext{
		TraceID: binary.LittleEndian.Uint64(payload[0:8]),
		SpanID:  binary.LittleEndian.Uint64(payload[8:16]),
		Rank:    binary.LittleEndian.Uint32(payload[16:20]),
		Iter:    binary.LittleEndian.Uint32(payload[20:24]),
	}
	return tc, payload[traceHeaderLen:], nil
}
