package ishare

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"fgcs/internal/otrace"
)

func decodeBytes(t *testing.T, data []byte, max int64) (Frame, error) {
	t.Helper()
	return DecodeFrame(bufio.NewReader(bytes.NewReader(data)), max)
}

func TestFrameRequestRoundTrip(t *testing.T) {
	cases := []struct {
		name    string
		id      uint64
		typ     string
		link    otrace.Link
		payload []byte
	}{
		{"bare", 1, MsgQueryTR, otrace.Link{}, nil},
		{"payload", 1 << 40, MsgSubmit, otrace.Link{}, []byte(`{"work_seconds":300}`)},
		{"traced", 7, msgJobStatus, otrace.Link{TraceID: 0xdeadbeef, SpanID: 0x1234}, []byte(`{}`)},
		{"sampled", 8, msgQueryStats, otrace.Link{TraceID: 1, SpanID: 2, Sampled: true}, nil},
		// Crosses the 64 KiB chunk boundary of the alloc-capped reader.
		{"large", 9, msgFedQueryTR, otrace.Link{}, bytes.Repeat([]byte("x"), 70<<10)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := AppendRequestFrame(nil, tc.id, tc.typ, tc.link, tc.payload)
			f, err := decodeBytes(t, buf, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if f.Kind != frameRequest || f.Version != frameVersion {
				t.Fatalf("kind/version = %d/%d", f.Kind, f.Version)
			}
			if f.ID != tc.id || f.Type != tc.typ || f.Trace != tc.link {
				t.Fatalf("decoded %+v, want id=%d type=%s trace=%+v", f, tc.id, tc.typ, tc.link)
			}
			if !bytes.Equal(f.Payload, tc.payload) {
				t.Fatalf("payload %d bytes, want %d", len(f.Payload), len(tc.payload))
			}
		})
	}
}

func TestFrameResponseRoundTrip(t *testing.T) {
	cases := []struct {
		name           string
		ok, overloaded bool
		errMsg         string
		payload        []byte
	}{
		{"ok", true, false, "", []byte(`{"tr":0.91}`)},
		{"app-error", false, false, "unknown machine m9", nil},
		{"overloaded", false, true, "server overloaded", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := AppendResponseFrame(nil, 42, tc.ok, tc.overloaded, tc.errMsg, tc.payload)
			f, err := decodeBytes(t, buf, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if f.Kind != frameResponse || f.ID != 42 {
				t.Fatalf("kind/id = %d/%d", f.Kind, f.ID)
			}
			if f.OK != tc.ok || f.Overloaded != tc.overloaded || f.Err != tc.errMsg {
				t.Fatalf("decoded %+v, want ok=%v overloaded=%v err=%q", f, tc.ok, tc.overloaded, tc.errMsg)
			}
			if !bytes.Equal(f.Payload, tc.payload) {
				t.Fatalf("payload %q, want %q", f.Payload, tc.payload)
			}
		})
	}
}

// TestFramePipelinedStream decodes several frames back to back off one
// reader, as the connection read loops do.
func TestFramePipelinedStream(t *testing.T) {
	var buf []byte
	for id := uint64(1); id <= 5; id++ {
		buf = AppendRequestFrame(buf, id, MsgQueryTR, otrace.Link{}, []byte{'0' + byte(id)})
	}
	br := bufio.NewReader(bytes.NewReader(buf))
	for id := uint64(1); id <= 5; id++ {
		f, err := DecodeFrame(br, 1<<20)
		if err != nil {
			t.Fatalf("frame %d: %v", id, err)
		}
		if f.ID != id || f.Payload[0] != '0'+byte(id) {
			t.Fatalf("frame %d decoded as %+v", id, f)
		}
	}
	if _, err := DecodeFrame(br, 1<<20); !errors.Is(err, io.EOF) {
		t.Fatalf("after last frame: %v, want EOF", err)
	}
}

func TestDecodeFrameRejects(t *testing.T) {
	valid := AppendRequestFrame(nil, 1, MsgQueryTR, otrace.Link{}, []byte(`{}`))

	badMagic := append([]byte{}, valid...)
	badMagic[0] = '{'
	if _, err := decodeBytes(t, badMagic, 0); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: %v", err)
	}

	badVersion := append([]byte{}, valid...)
	badVersion[2] = 99
	if _, err := decodeBytes(t, badVersion, 0); !errors.Is(err, errFrameVersion) {
		t.Fatalf("bad version: %v, want errFrameVersion", err)
	}

	badKind := append([]byte{}, valid...)
	badKind[3] = 7
	if _, err := decodeBytes(t, badKind, 0); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("bad kind: %v", err)
	}

	// A declared payload length over the cap is rejected from the prefix
	// alone — no allocation, no read.
	oversize := []byte{frameMagic0, frameMagic1, frameVersion, frameRequest, 0}
	oversize = binary.AppendUvarint(oversize, 1)
	oversize = binary.AppendUvarint(oversize, uint64(len(MsgQueryTR)))
	oversize = append(oversize, MsgQueryTR...)
	oversize = binary.AppendUvarint(oversize, 1<<30)
	if _, err := decodeBytes(t, oversize, 1<<20); !errors.Is(err, errMessageTooLarge) {
		t.Fatalf("oversize payload: %v, want errMessageTooLarge", err)
	}

	// An oversize type length is rejected even under a generous payload cap.
	badType := []byte{frameMagic0, frameMagic1, frameVersion, frameRequest, 0}
	badType = binary.AppendUvarint(badType, 1)
	badType = binary.AppendUvarint(badType, maxFrameTypeBytes+1)
	if _, err := decodeBytes(t, badType, 1<<20); !errors.Is(err, errMessageTooLarge) {
		t.Fatalf("oversize type: %v, want errMessageTooLarge", err)
	}

	// Truncation anywhere in the frame is an error, never a hang or panic.
	for cut := 1; cut < len(valid); cut++ {
		if _, err := decodeBytes(t, valid[:cut], 0); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
}

// TestDecodeFrameHeadTruncated cuts a traced request frame inside its fixed
// header and inside its trace header, the two parts read in place: every cut
// fails as io.ReadFull fails (EOF on no bytes, unexpected EOF on some), and
// whole frames still decode back to back through a reader whose buffer is
// no bigger than the trace header.
func TestDecodeFrameHeadTruncated(t *testing.T) {
	link := otrace.Link{TraceID: 0x0102030405060708, SpanID: 0x1112131415161718, Sampled: true}
	frame := AppendRequestFrame(nil, 9, MsgQueryTR, link, []byte(`{"length_seconds":60}`))
	traceAt := 5 + 1 + 1 + len(MsgQueryTR) // fixed header, id 9, type length, type
	for _, tc := range []struct {
		what     string
		from, to int
	}{{"frame header", 0, 5}, {"frame trace header", traceAt, traceAt + 16}} {
		for cut := tc.from; cut < tc.to; cut++ {
			want := io.ErrUnexpectedEOF
			if cut == tc.from {
				want = io.EOF
			}
			if _, err := decodeBytes(t, frame[:cut], 0); !errors.Is(err, want) || !strings.Contains(err.Error(), tc.what+":") {
				t.Errorf("cut at byte %d: %v, want %s: %v", cut, err, tc.what, want)
			}
		}
	}
	br := bufio.NewReaderSize(bytes.NewReader(append(append([]byte{}, frame...), frame...)), 16)
	for i := 0; i < 2; i++ {
		f, err := DecodeFrame(br, 0)
		if err != nil || f.ID != 9 || f.Type != MsgQueryTR || f.Trace != link || string(f.Payload) != `{"length_seconds":60}` {
			t.Fatalf("frame %d through a 16-byte reader: %+v, %v", i, f, err)
		}
	}
}

// TestDecodeFrameLyingLength declares an in-cap payload length on a stream
// that ends early: the chunked reader must fail on arrival, not trust the
// prefix.
func TestDecodeFrameLyingLength(t *testing.T) {
	lying := []byte{frameMagic0, frameMagic1, frameVersion, frameRequest, 0}
	lying = binary.AppendUvarint(lying, 1)
	lying = binary.AppendUvarint(lying, uint64(len(MsgQueryTR)))
	lying = append(lying, MsgQueryTR...)
	lying = binary.AppendUvarint(lying, 512<<10) // claims 512 KiB...
	lying = append(lying, "only this"...)        // ...delivers 9 bytes
	if _, err := decodeBytes(t, lying, 1<<20); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("lying length: %v, want unexpected EOF", err)
	}
}

// FuzzDecodeFrame hammers the decoder with arbitrary bytes. Two invariants:
// the decoder never panics (structural violations must all surface as
// errors), and any frame that decodes re-encodes canonically — encoding the
// decoded frame and decoding it again converges to a byte-stable form.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(AppendRequestFrame(nil, 3, MsgQueryTR, otrace.Link{TraceID: 5, SpanID: 6, Sampled: true}, []byte(`{"length_seconds":3600}`)))
	f.Add(AppendResponseFrame(nil, 3, true, false, "", []byte(`{"tr":0.97}`)))
	f.Add(AppendResponseFrame(nil, 4, false, true, "server overloaded", nil))
	// Truncated mid-payload.
	f.Add(AppendRequestFrame(nil, 1, MsgSubmit, otrace.Link{}, []byte(`{"name":"j"}`))[:12])
	// Bad magic (a JSON client on the binary port).
	f.Add([]byte(`{"type":"query-tr"}` + "\n"))
	// Oversize declared length on a truncated stream.
	lying := []byte{frameMagic0, frameMagic1, frameVersion, frameRequest, 0, 1, byte(len(MsgQueryTR))}
	lying = append(lying, MsgQueryTR...)
	f.Add(binary.AppendUvarint(lying, 1<<40))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(bufio.NewReader(bytes.NewReader(data)), 1<<16)
		if err != nil {
			return
		}
		var buf []byte
		encode := func(fr Frame) []byte {
			if fr.Kind == frameRequest {
				return AppendRequestFrame(nil, fr.ID, fr.Type, fr.Trace, fr.Payload)
			}
			return AppendResponseFrame(nil, fr.ID, fr.OK, fr.Overloaded, fr.Err, fr.Payload)
		}
		buf = encode(fr)
		fr2, err := DecodeFrame(bufio.NewReader(bytes.NewReader(buf)), 1<<16)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v\nframe: %+v", err, fr)
		}
		if buf2 := encode(fr2); !bytes.Equal(buf, buf2) {
			t.Fatalf("encoding not canonical:\nfirst:  %x\nsecond: %x", buf, buf2)
		}
	})
}
