// Binary wire protocol (version 1). The JSON envelope of protocol.go is the
// compat/debug transport; the hot path frames the same payloads in a
// length-prefixed binary codec so a pooled connection can carry many
// concurrent requests (pipelining) matched back to callers by request ID.
//
// Frame layout, all multi-byte lengths as unsigned varints, IDs big-endian:
//
//	+------+------+---------+------+-------+
//	| 0xF5 | 0x9C | version | kind | flags |   5 fixed header bytes
//	+------+------+---------+------+-------+
//	| request id (uvarint)                 |
//	+--------------------------------------+
//	request  (kind=1):
//	| type len (uvarint) | type bytes      |
//	| [trace: 8B trace id, 8B span id]     |   present iff flags&trace
//	| payload len (uvarint) | payload      |
//	response (kind=2):
//	| [error len (uvarint) | error bytes]  |   present iff !(flags&ok)
//	| payload len (uvarint) | payload      |
//
// The first magic byte doubles as the protocol sniff: a server peeks one
// byte and routes 0xF5 to the binary loop, anything else (in practice '{')
// to the line-delimited JSON loop — that is the whole negotiation handshake,
// so mixed fleets interoperate with zero extra round trips. Every frame
// carries the version byte; a server that cannot speak the version answers
// with one version-1 error frame and closes.
//
// Payload bytes remain JSON-encoded: the binary layer replaces the envelope
// (the per-request cost), not the payload schema, so the two transports stay
// bit-compatible at the application layer.
package ishare

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"fgcs/internal/otrace"
)

// FrameVersion is the binary protocol version this build speaks. Version
// mismatches are rejected at decode time on both sides.
const FrameVersion = 1

// Frame kinds.
const (
	// FrameRequest marks a client->server frame.
	FrameRequest = 1
	// FrameResponse marks a server->client frame.
	FrameResponse = 2
)

const (
	frameMagic0 = 0xF5
	frameMagic1 = 0x9C

	// Request flags.
	frameFlagTrace   = 1 << 0 // a 16-byte trace header follows the type
	frameFlagSampled = 1 << 1 // the carried trace is sampled

	// Response flags.
	frameFlagOK         = 1 << 0 // the handler succeeded
	frameFlagOverloaded = 1 << 1 // the request was shed by admission control

	// maxFrameTypeBytes caps the request-type string; protocol verbs are
	// short ASCII names.
	maxFrameTypeBytes = 256
	// maxFrameErrBytes caps a response's error string.
	maxFrameErrBytes = 64 << 10
)

// Frame is one decoded binary-protocol message. Request frames populate
// Type/Trace, response frames populate OK/Overloaded/Err; both carry an ID
// and an optional payload of JSON bytes.
type Frame struct {
	// Kind is FrameRequest or FrameResponse.
	Kind byte
	// Version is the protocol version the frame was encoded with.
	Version byte
	// ID matches a response to its pipelined request on one connection.
	ID uint64
	// Type is the request verb (request frames only).
	Type string
	// Trace is the propagated trace context (request frames; zero when the
	// request is untraced).
	Trace otrace.Link
	// OK reports handler success (response frames only).
	OK bool
	// Overloaded marks a response shed by server admission control; the
	// client surfaces it as a RemoteError with CodeOverloaded.
	Overloaded bool
	// Err is the application error message when !OK.
	Err string
	// Payload is the JSON-encoded application payload (may be empty).
	Payload []byte
}

// AppendRequestFrame encodes one request frame onto buf and returns the
// extended slice. A zero link omits the trace header, keeping untraced
// requests as small as the pre-tracing protocol.
func AppendRequestFrame(buf []byte, id uint64, typ string, link otrace.Link, payload []byte) []byte {
	return append(appendRequestHead(buf, id, typ, link, len(payload)), payload...)
}

// appendRequestHead encodes a request frame up to its n payload bytes, so a
// writer can send the payload from where it already is.
func appendRequestHead(buf []byte, id uint64, typ string, link otrace.Link, n int) []byte {
	flags := byte(0)
	if link.TraceID != 0 {
		flags |= frameFlagTrace
		if link.Sampled {
			flags |= frameFlagSampled
		}
	}
	buf = append(buf, frameMagic0, frameMagic1, FrameVersion, FrameRequest, flags)
	buf = binary.AppendUvarint(buf, id)
	buf = binary.AppendUvarint(buf, uint64(len(typ)))
	buf = append(buf, typ...)
	if flags&frameFlagTrace != 0 {
		buf = binary.BigEndian.AppendUint64(buf, uint64(link.TraceID))
		buf = binary.BigEndian.AppendUint64(buf, uint64(link.SpanID))
	}
	return binary.AppendUvarint(buf, uint64(n))
}

// AppendResponseFrame encodes one response frame onto buf and returns the
// extended slice. The error string is encoded only on failure.
func AppendResponseFrame(buf []byte, id uint64, ok, overloaded bool, errMsg string, payload []byte) []byte {
	return append(appendResponseHead(buf, id, ok, overloaded, errMsg, len(payload)), payload...)
}

// appendResponseHead encodes a response frame up to its n payload bytes.
func appendResponseHead(buf []byte, id uint64, ok, overloaded bool, errMsg string, n int) []byte {
	flags := byte(0)
	if ok {
		flags |= frameFlagOK
	}
	if overloaded {
		flags |= frameFlagOverloaded
	}
	buf = append(buf, frameMagic0, frameMagic1, FrameVersion, FrameResponse, flags)
	buf = binary.AppendUvarint(buf, id)
	if !ok {
		buf = binary.AppendUvarint(buf, uint64(len(errMsg)))
		buf = append(buf, errMsg...)
	}
	return binary.AppendUvarint(buf, uint64(n))
}

// ErrFrameVersion reports a frame encoded with a binary-protocol version
// this build does not speak.
var ErrFrameVersion = fmt.Errorf("ishare: unsupported binary protocol version")

// DecodeFrame reads one binary frame from br, enforcing the payload byte cap
// (maxPayload <= 0 uses the server's 1 MiB default). Length prefixes are
// untrusted: allocation grows in bounded chunks as bytes actually arrive, so
// a hostile length cannot balloon memory, and every structural violation
// (bad magic, wrong version, oversize field, truncation) is an error rather
// than a panic. This is the entry point FuzzDecodeFrame exercises.
func DecodeFrame(br *bufio.Reader, maxPayload int64) (Frame, error) {
	if maxPayload <= 0 {
		maxPayload = 1 << 20
	}
	f, err := decodeFrameHead(br)
	if err != nil {
		return Frame{}, err
	}
	payload, err := readLenPrefixed(br, nil, maxPayload, "payload")
	if err != nil {
		return Frame{}, err
	}
	if len(payload) > 0 {
		f.Payload = payload
	}
	return f, nil
}

// decodeFrameHead reads everything of one frame up to its payload length,
// so a reader that learns the request ID first can choose where the payload
// goes (the pool's reader puts it in the waiting call's buffer).
func decodeFrameHead(br *bufio.Reader) (Frame, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return Frame{}, fmt.Errorf("ishare: frame header: %w", err)
	}
	if hdr[0] != frameMagic0 || hdr[1] != frameMagic1 {
		return Frame{}, fmt.Errorf("ishare: bad frame magic %#02x%02x", hdr[0], hdr[1])
	}
	if hdr[2] != FrameVersion {
		return Frame{}, fmt.Errorf("%w: got %d, speak %d", ErrFrameVersion, hdr[2], FrameVersion)
	}
	f := Frame{Version: hdr[2], Kind: hdr[3]}
	flags := hdr[4]
	if f.Kind != FrameRequest && f.Kind != FrameResponse {
		return Frame{}, fmt.Errorf("ishare: bad frame kind %d", f.Kind)
	}
	id, err := binary.ReadUvarint(br)
	if err != nil {
		return Frame{}, fmt.Errorf("ishare: frame id: %w", err)
	}
	f.ID = id
	switch f.Kind {
	case FrameRequest:
		typ, err := readLenPrefixed(br, nil, maxFrameTypeBytes, "type")
		if err != nil {
			return Frame{}, err
		}
		f.Type = string(typ)
		if flags&frameFlagTrace != 0 {
			var ids [16]byte
			if _, err := io.ReadFull(br, ids[:]); err != nil {
				return Frame{}, fmt.Errorf("ishare: frame trace header: %w", err)
			}
			f.Trace = otrace.Link{
				TraceID: otrace.TraceID(binary.BigEndian.Uint64(ids[:8])),
				SpanID:  otrace.SpanID(binary.BigEndian.Uint64(ids[8:])),
				Sampled: flags&frameFlagSampled != 0,
			}
		}
	case FrameResponse:
		f.OK = flags&frameFlagOK != 0
		f.Overloaded = flags&frameFlagOverloaded != 0
		if !f.OK {
			msg, err := readLenPrefixed(br, nil, maxFrameErrBytes, "error")
			if err != nil {
				return Frame{}, err
			}
			f.Err = string(msg)
		}
	}
	return f, nil
}

// readLenPrefixed reads a uvarint length and that many bytes, appended to
// dst, rejecting lengths above max with ErrMessageTooLarge. The buffer grows
// in 64 KiB chunks paced by actual arrival, so a lying length prefix on a
// truncated stream cannot allocate more than one chunk beyond the received
// bytes.
func readLenPrefixed(br *bufio.Reader, dst []byte, max int64, what string) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("ishare: frame %s length: %w", what, err)
	}
	if int64(n) < 0 || int64(n) > max {
		return nil, fmt.Errorf("%w: frame %s of %d bytes (cap %d)", ErrMessageTooLarge, what, n, max)
	}
	const chunk = 64 << 10
	buf := dst
	for int64(len(buf)-len(dst)) < int64(n) {
		k := int64(n) - int64(len(buf)-len(dst))
		if k > chunk {
			k = chunk
		}
		start := len(buf)
		buf = append(buf, make([]byte, k)...)
		if _, err := io.ReadFull(br, buf[start:]); err != nil {
			return nil, fmt.Errorf("ishare: frame %s: %w", what, err)
		}
	}
	return buf, nil
}
