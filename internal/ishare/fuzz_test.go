package ishare

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// readMessage reads one JSON envelope from data into out the way both JSON
// request loops do — serveJSON a request, exchange a response: one capped
// line through a bufio.Reader, then decodeJSON.
func readMessage(data []byte, max int64, out interface{}) error {
	line, err := readLineCapped(bufio.NewReader(bytes.NewReader(data)), max)
	if err != nil {
		return err
	}
	return decodeJSON(line, out)
}

// FuzzRecycledDecodeMatchesUnmarshal holds decodeJSON to json.Unmarshal on
// arbitrary bytes, decoded into a query payload, a request envelope and a
// client's response envelope: the same error or nil, and the same value.
// After each, a canonical message decoded through the same pool must come
// out exact, so no state leaks from a failed or part-buffered decode.
func FuzzRecycledDecodeMatchesUnmarshal(f *testing.F) {
	// testdata/fuzz holds the canonical query, trailing bytes after a value,
	// type errors, truncation, invalid UTF-8 and a message over poolBufMax.
	for _, seed := range []string{
		` {"guest_mem_mb":7}`,
		`{"length_seconds":1e999}`,
		``,
		`null`,
		`12`,
		`"query-tr"`,
		`{"type":"submit","payload":null}`,
		`{"ok":true,"payload":{"tr":0.93,"history_windows":12,"current_state":"S1","cache_hits":4}}`,
		`{"ok":false,"error":"server overloaded","code":"overloaded"}`,
		`{"ok":true,"payload":[1,2]}`,
	} {
		f.Add([]byte(seed))
	}
	canonical := []byte(`{"length_seconds":3600,"guest_mem_mb":100}`)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mk := range []func() interface{}{
			func() interface{} { return new(QueryTRReq) },
			func() interface{} { return new(Request) },
			func() interface{} { return &responseEnvelope{Payload: new(QueryTRResp)} },
		} {
			got, want := mk(), mk()
			gotErr, wantErr := decodeJSON(data, got), json.Unmarshal(data, want)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%T from %q: decodeJSON returned %v, json.Unmarshal %v", got, data, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%T from %q: decodeJSON gave %+v, json.Unmarshal %+v", got, data, got, want)
			}
			var next QueryTRReq
			if err := decodeJSON(canonical, &next); err != nil || next != (QueryTRReq{LengthSeconds: 3600, GuestMemMB: 100}) {
				t.Fatalf("after %q the canonical message decoded to %+v, %v", data, next, err)
			}
		}
	})
}

// FuzzDecodeRequest hammers the server's capped request reader with
// arbitrary bytes. A successful decode must survive a marshal/decode round
// trip, and no input may panic the reader under any byte cap.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"type":"query-tr","payload":{"length_seconds":3600,"guest_mem_mb":100}}`))
	f.Add([]byte(`{"type":"submit","payload":{"name":"sim1","work_seconds":7200,"mem_mb":100,"idempotency_key":"a/b-k1"}}`))
	f.Add([]byte(`{"type":"job-status","payload":{"job_id":"lab-01-job-1"}}`))
	f.Add([]byte(`{"type":"query-stats","payload":{"calibration":true}}`))
	f.Add([]byte(`{"type":"register","payload":{"machine_id":"m","addr":"1.2.3.4:7070","ttl_seconds":90}}`))
	f.Add([]byte(`{"type":""}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte{0x00, 0xff, 0xfe})
	// Trace-context propagation: a sampled header, a parentless header, a
	// malformed (non-hex) header — all must decode, and well-formed span and
	// trace IDs must survive the round trip.
	f.Add([]byte(`{"type":"query-tr","payload":{"length_seconds":60},"trace":{"trace_id":"00000000000007a5","span_id":"deadbeefcafef00d","sampled":true}}`))
	f.Add([]byte(`{"type":"query-traces","payload":{"limit":5,"events":true},"trace":{"trace_id":"ffffffffffffffff"}}`))
	f.Add([]byte(`{"type":"submit","trace":{"trace_id":"not hex","span_id":"","sampled":true}}`))
	// Unknown fields ride along without breaking old/new interop.
	f.Add([]byte(`{"type":"query-tr","payload":{"length_seconds":60},"trace":{"trace_id":"00000000000007a5","future_field":1},"another_unknown":"x"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		// A tiny cap must degrade to an error, never a panic.
		var req Request
		_ = readMessage(data, 8, &req)
		req = Request{}
		if err := readMessage(data, 1<<16, &req); err != nil {
			return
		}
		// The trace header must never panic the link parser, and any
		// well-formed link must survive re-encoding.
		link := req.Trace.link()
		out, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %v", err)
		}
		var again Request
		if err := readMessage(out, 1<<16, &again); err != nil {
			t.Fatalf("re-decode of %q: %v", out, err)
		}
		if again.Type != req.Type {
			t.Fatalf("type changed across round trip: %q -> %q", req.Type, again.Type)
		}
		if again.Trace.link() != link {
			t.Fatalf("trace link changed across round trip: %+v -> %+v", link, again.Trace.link())
		}
	})
}

// FuzzDecodeResponse does the same for the client's response reader, which
// reads whatever a (possibly compromised or buggy) far end sent back.
func FuzzDecodeResponse(f *testing.F) {
	f.Add([]byte(`{"ok":true,"payload":{"tr":0.93,"history_windows":12}}`))
	f.Add([]byte(`{"ok":false,"error":"machine lab-01 already runs a guest job"}`))
	f.Add([]byte(`{"ok":true,"payload":{"resources":[{"machine_id":"m","addr":"a:1"}]}}`))
	f.Add([]byte(`{"ok":true}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"ok":"yes"}`))
	f.Add([]byte{'{'})
	// Responses from a newer peer may carry fields this build has never
	// heard of (e.g. trace echoes); they must be tolerated, not rejected.
	f.Add([]byte(`{"ok":true,"payload":{"machine_id":"m1","total_recorded":3,"traces":[{"trace_id":"00000000000007a5","spans":[{"trace_id":"00000000000007a5","span_id":"0000000000000001","name":"gateway.dispatch"}]}]}}`))
	f.Add([]byte(`{"ok":true,"trace":{"trace_id":"00000000000007a5"},"future_field":[1,2,3]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp response
		_ = readMessage(data, 8, &resp)
		resp = response{}
		if err := readMessage(data, 1<<16, &resp); err != nil {
			return
		}
		out, err := json.Marshal(resp)
		if err != nil {
			t.Fatalf("decoded response does not re-encode: %v", err)
		}
		var again response
		if err := readMessage(out, 1<<16, &again); err != nil {
			t.Fatalf("re-decode of %q: %v", out, err)
		}
		if again.OK != resp.OK || again.Error != resp.Error {
			t.Fatalf("envelope changed across round trip: %+v -> %+v", resp, again)
		}
	})
}
