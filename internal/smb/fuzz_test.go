package smb

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDispatch feeds arbitrary request payloads to every opcode: the
// server must return an error or a response, never panic — malformed
// frames from a buggy or hostile client cannot take the memory server
// down.
func FuzzDispatch(f *testing.F) {
	f.Add(byte(opCreate), []byte{})
	f.Add(byte(opRead), []byte{1, 2, 3})
	f.Add(byte(opWrite), bytes.Repeat([]byte{0xff}, 40))
	f.Add(byte(opAccumulate), []byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2})
	f.Add(byte(opWriteAccChunk), []byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4}) // hdr+pad+one float
	f.Add(byte(opWriteAccChunk), []byte{7})                 // truncated header
	f.Add(byte(opWriteAccEnd), bytes.Repeat([]byte{0}, 16)) // end without chunks
	f.Add(byte(opHello), []byte{1, 0, 0, 0, 0, 0, 0, 0})    // feature negotiation
	f.Add(byte(opHello), []byte{})                          // truncated hello
	f.Add(byte(opAccumulate)|traceFlagBit, []byte{1})       // flagged op leaks to dispatch
	f.Add(byte(99), []byte{1})
	f.Fuzz(func(t *testing.T, op byte, payload []byte) {
		srv := &Server{store: NewStore()}
		// Prepare one real segment so handle-bearing ops can hit both
		// the found and not-found paths.
		key, _ := srv.store.Create("seed", 16)
		h, _ := srv.store.Attach(key)
		// opWaitUpdate on the live handle blocks until another writer
		// bumps the segment version — there is none here, so that one
		// input would hang the fuzzer rather than find a bug. Invalid
		// handles still exercise the WaitUpdate parse/lookup paths.
		if opcode(op) == opWaitUpdate && len(payload) >= 8 &&
			binary.LittleEndian.Uint64(payload) == uint64(h) {
			t.Skip("WaitUpdate on live handle blocks by design")
		}
		_, _ = srv.dispatch(opcode(op), payload, &connState{})
	})
}

// FuzzFrameRoundTrip: any frame written by writeFrameInto is read back
// intact by readFrameInto.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(byte(1), []byte("payload"))
	f.Add(byte(0), []byte{})
	f.Fuzz(func(t *testing.T, op byte, payload []byte) {
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		var buf bytes.Buffer
		var wscratch, rscratch []byte
		if err := writeFrameInto(&buf, op, payload, &wscratch); err != nil {
			t.Skip()
		}
		gotOp, gotPayload, err := readFrameInto(&buf, &rscratch)
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		if gotOp != op || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("frame round trip mismatch")
		}
	})
}

// FuzzReadFrame: arbitrary bytes must never panic the frame reader.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 0, 0, 1, 2, 3, 4, 5})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// Trace-flagged frame: 25-byte body (opcode|0x80 + 24-byte header).
	f.Add(append([]byte{25, 0, 0, 0, byte(opAccumulate) | traceFlagBit},
		bytes.Repeat([]byte{0xab}, 24)...))
	// Flagged frame whose body is shorter than the trace header.
	f.Add([]byte{3, 0, 0, 0, byte(opWrite) | traceFlagBit, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		var scratch []byte
		op, payload, err := readFrameInto(bytes.NewReader(data), &scratch)
		if err != nil || op&traceFlagBit == 0 {
			return
		}
		// Flagged frames must split cleanly or be rejected — never panic.
		_, _, _ = parseTraceExt(payload)
	})
}
