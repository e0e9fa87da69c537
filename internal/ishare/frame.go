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
//
// Every JSON encode and decode of the wire path, on both transports and both
// ends, goes through one recycled codec: appendJSON writes exactly
// json.Marshal's bytes onto a buffer the caller recycles, and decodeJSON
// decodes exactly as json.Unmarshal does through a pooled json.Decoder, so
// the bytes on the wire are those of a plain Marshal. Buffers are owned as
// follows. A request frame's payload is read into its frameTask, and a JSON
// line's payload into its connection's jsonConn: a handler may read
// Request.Payload only until it returns. A response payload is encoded into
// the task's (or jsonConn's) second buffer, and the frame head (or JSON
// line) into a third; the batch writer copies head and payload, so both are
// free again once enqueue returns. No buffer over poolBufMax goes back to a
// pool.
package ishare

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"fgcs/internal/otrace"
)

// frameVersion is the binary protocol version this build speaks. Version
// mismatches are rejected at decode time on both sides.
const frameVersion = 1

// Frame kinds.
const (
	// frameRequest marks a client->server frame.
	frameRequest = 1
	// frameResponse marks a server->client frame.
	frameResponse = 2
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
	// Kind is frameRequest or frameResponse.
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
	// client surfaces it as a remoteError with codeOverloaded.
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
	buf = append(buf, frameMagic0, frameMagic1, frameVersion, frameRequest, flags)
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
	buf = append(buf, frameMagic0, frameMagic1, frameVersion, frameResponse, flags)
	buf = binary.AppendUvarint(buf, id)
	if !ok {
		buf = binary.AppendUvarint(buf, uint64(len(errMsg)))
		buf = append(buf, errMsg...)
	}
	return binary.AppendUvarint(buf, uint64(n))
}

// errFrameVersion reports a frame encoded with a binary-protocol version
// this build does not speak.
var errFrameVersion = fmt.Errorf("ishare: unsupported binary protocol version")

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
	hdr, err := peekFull(br, 5)
	if err != nil {
		return Frame{}, fmt.Errorf("ishare: frame header: %w", err)
	}
	_, _ = br.Discard(5) // hdr stays valid: br reads nothing until ReadUvarint
	if hdr[0] != frameMagic0 || hdr[1] != frameMagic1 {
		return Frame{}, fmt.Errorf("ishare: bad frame magic %#02x%02x", hdr[0], hdr[1])
	}
	if hdr[2] != frameVersion {
		return Frame{}, fmt.Errorf("%w: got %d, speak %d", errFrameVersion, hdr[2], frameVersion)
	}
	f := Frame{Version: hdr[2], Kind: hdr[3]}
	flags := hdr[4]
	if f.Kind != frameRequest && f.Kind != frameResponse {
		return Frame{}, fmt.Errorf("ishare: bad frame kind %d", f.Kind)
	}
	id, err := binary.ReadUvarint(br)
	if err != nil {
		return Frame{}, fmt.Errorf("ishare: frame id: %w", err)
	}
	f.ID = id
	switch f.Kind {
	case frameRequest:
		if f.Type, err = readFrameType(br); err != nil {
			return Frame{}, err
		}
		if flags&frameFlagTrace != 0 {
			ids, err := peekFull(br, 16)
			if err != nil {
				return Frame{}, fmt.Errorf("ishare: frame trace header: %w", err)
			}
			f.Trace = otrace.Link{
				TraceID: otrace.TraceID(binary.BigEndian.Uint64(ids[:8])),
				SpanID:  otrace.SpanID(binary.BigEndian.Uint64(ids[8:])),
				Sampled: flags&frameFlagSampled != 0,
			}
			_, _ = br.Discard(16)
		}
	case frameResponse:
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

// peekFull is io.ReadFull of n bytes without the copy: the bytes are br's
// own, valid until br next reads, and the caller discards them. n must fit
// br's buffer (bufio's minimum is 16).
func peekFull(br *bufio.Reader, n int) ([]byte, error) {
	b, err := br.Peek(n)
	if err == io.EOF && len(b) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

// servedTypes is every request type a route table serves (gatewayRPCTypes),
// so readFrameType can hand back the table's own string. It is set in init:
// the route tables reach decodeFrameHead through the federation's callers,
// and an initializer naming them here would be an initialization cycle.
var servedTypes []string

func init() { servedTypes = gatewayRPCTypes }

// readFrameType reads a request frame's type. A type some route table serves
// comes back as that table's string without allocating; only an unknown type
// is copied out of br. The type is peeked in place: its maxFrameTypeBytes cap
// is well under a bufio.Reader's default buffer.
func readFrameType(br *bufio.Reader) (string, error) {
	n, err := readLen(br, maxFrameTypeBytes, "type")
	if err != nil {
		return "", err
	}
	b, err := br.Peek(int(n))
	if err != nil {
		return "", fmt.Errorf("ishare: frame type: %w", err)
	}
	typ := ""
	for _, t := range servedTypes {
		if string(b) == t {
			typ = t
			break
		}
	}
	if typ == "" {
		typ = string(b)
	}
	_, _ = br.Discard(int(n))
	return typ, nil
}

// readLen reads a uvarint length, rejecting lengths above max with
// errMessageTooLarge; the stream is then positioned at the first of the n
// bytes, so a reader may still skip them (discardN).
func readLen(br *bufio.Reader, max int64, what string) (uint64, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("ishare: frame %s length: %w", what, err)
	}
	if int64(n) < 0 || int64(n) > max {
		return n, fmt.Errorf("%w: frame %s of %d bytes (cap %d)", errMessageTooLarge, what, n, max)
	}
	return n, nil
}

// readLenPrefixed reads a uvarint length and that many bytes, appended to
// dst, rejecting lengths above max with errMessageTooLarge.
func readLenPrefixed(br *bufio.Reader, dst []byte, max int64, what string) ([]byte, error) {
	n, err := readLen(br, max, what)
	if err != nil {
		return nil, err
	}
	return readN(br, dst, n, what)
}

// readN reads n bytes appended to dst. The buffer grows in 64 KiB chunks
// paced by actual arrival, so a lying length prefix on a truncated stream
// cannot allocate more than one chunk beyond the received bytes.
func readN(br *bufio.Reader, dst []byte, n uint64, what string) ([]byte, error) {
	const chunk = 64 << 10
	buf := dst
	for uint64(len(buf)-len(dst)) < n {
		k := n - uint64(len(buf)-len(dst))
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

// discardN skips n bytes of br without keeping them.
func discardN(br *bufio.Reader, n uint64) error {
	for n > 0 {
		k := n
		if k > 1<<30 {
			k = 1 << 30
		}
		if _, err := br.Discard(int(k)); err != nil {
			return err
		}
		n -= k
	}
	return nil
}

// jsonEncoder is a recycled json.Encoder that writes onto the slice it is
// handed (see appendJSON).
type jsonEncoder struct {
	enc *json.Encoder
	dst []byte
}

func (e *jsonEncoder) Write(p []byte) (int, error) {
	e.dst = append(e.dst, p...)
	return len(p), nil
}

var jsonEncoders = sync.Pool{New: func() interface{} {
	e := &jsonEncoder{}
	e.enc = json.NewEncoder(e)
	return e
}}

// appendJSON appends the JSON encoding of v to dst: exactly json.Marshal's
// bytes, without the copy Marshal returns them in. A recycled json.Encoder
// writes them onto dst, and the newline it ends them with is dropped. On
// error dst comes back unchanged.
func appendJSON(dst []byte, v interface{}) ([]byte, error) {
	e := jsonEncoders.Get().(*jsonEncoder)
	e.dst = dst
	err := e.enc.Encode(v)
	out := e.dst
	e.dst = nil
	jsonEncoders.Put(e)
	if err != nil {
		return dst, err
	}
	return out[:len(out)-1], nil
}

// jsonDecoder is a recycled json.Decoder reading from its own bytes.Reader
// (see decodeJSON). A decoder goes back to the pool only with nothing
// buffered, so the next message starts on a clean stream.
type jsonDecoder struct {
	r   bytes.Reader
	dec *json.Decoder
}

var jsonDecoders = sync.Pool{New: func() interface{} {
	d := &jsonDecoder{}
	d.dec = json.NewDecoder(&d.r)
	return d
}}

// decodeJSON decodes data into v with json.Unmarshal's result — the same
// error or nil and the same value — through a recycled json.Decoder, which
// keeps the decoder state Unmarshal allocates afresh on every call. Input
// that is not exactly one valid JSON value, a decode that fails and a
// message over poolBufMax all take json.Unmarshal itself (the first before
// anything is decoded, so v is touched only as Unmarshal would touch it).
// A decoder that failed, or stopped short of the end of data, is dropped.
func decodeJSON(data []byte, v interface{}) error {
	if len(data) > poolBufMax || !json.Valid(data) {
		return json.Unmarshal(data, v)
	}
	d := jsonDecoders.Get().(*jsonDecoder)
	d.r.Reset(data)
	start := d.dec.InputOffset()
	err := d.dec.Decode(v)
	clean := err == nil && d.dec.InputOffset()-start == int64(len(data))
	d.r.Reset(nil)
	if clean {
		jsonDecoders.Put(d)
	}
	if err != nil {
		return json.Unmarshal(data, v)
	}
	return nil
}
