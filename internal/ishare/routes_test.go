package ishare

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/otrace"
	"fgcs/internal/simclock"
)

// wantMalformed is the wire contract of a payload that does not decode: the
// error text each request type has always been refused with. A new table row
// must state its text here before the matrix below passes.
var wantMalformed = map[string]string{
	MsgQueryTR:      "malformed query payload",
	MsgSubmit:       "malformed submit payload",
	msgJobStatus:    "malformed status payload",
	msgKillJob:      "malformed kill payload",
	msgQueryStats:   "malformed stats payload",
	msgQueryTraces:  "malformed traces payload",
	msgQueryObs:     "malformed obs payload",
	msgRegister:     "malformed register payload",
	msgDiscover:     "malformed discover payload",
	msgFedQueryTR:   "malformed fed query payload",
	msgFedSubmit:    "malformed fed submit payload",
	msgFedJobStatus: "malformed fed status payload",
	msgFedKill:      "malformed fed kill payload",
	msgFedSync:      "malformed fed sync payload",
}

// payloadOptional names the request types served without a payload.
var payloadOptional = map[string]bool{
	msgQueryStats: true, msgQueryTraces: true, msgQueryObs: true, msgDiscover: true,
}

func routeTypes[S any](routes []route[S]) []string {
	var out []string
	for _, r := range routes {
		out = append(out, r.typ)
	}
	return out
}

// declaredMsgTypes parses the package for every string constant named Msg*
// or msg*.
func declaredMsgTypes(t *testing.T) map[string]string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, f := range pkgs["ishare"].Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if !strings.HasPrefix(strings.ToLower(name.Name), "msg") || i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					v, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					out[name.Name] = v
				}
			}
		}
	}
	return out
}

// TestRouteTablesComplete: the Msg*/msg* constants and the types the tables
// serve are the same set, no table serves a type twice, and what NewNodeObs
// pre-registers is exactly the two tables' union — so a request of a known
// type never lands in type="other".
func TestRouteTablesComplete(t *testing.T) {
	gwTypes, fedTypes := routeTypes(gatewayRoutes), routeTypes(fedRoutes)
	served := make(map[string]bool)
	for _, types := range [][]string{gwTypes, fedTypes} {
		seen := make(map[string]bool)
		for _, typ := range types {
			if seen[typ] {
				t.Errorf("%q has two rows in one table", typ)
			}
			seen[typ], served[typ] = true, true
		}
	}
	declared := make(map[string]bool)
	for name, typ := range declaredMsgTypes(t) {
		declared[typ] = true
		if !served[typ] {
			t.Errorf("%s (%q) is served by no route table", name, typ)
		}
	}
	for typ := range served {
		if !declared[typ] {
			t.Errorf("%q is served but declared by no Msg*/msg* constant", typ)
		}
	}

	o := NewNodeObs()
	if len(o.requests) != len(served)+1 || len(gatewayRPCTypes) != len(served) {
		t.Fatalf("NewNodeObs registers %d types beside %q (list has %d), the tables serve %d", len(o.requests)-1, rpcOther, len(gatewayRPCTypes), len(served))
	}
	for typ := range served {
		if o.requests[typ] == nil || o.errors[typ] == nil || o.rpcSeconds[typ] == nil {
			t.Errorf("%q has no pre-registered request/error/latency series", typ)
		}
	}
	// Served through both shells, every type is counted under its own name.
	node := testNode(t, simclock.NewVirtual(monday), nil)
	gh := node.Gateway.Handler()
	for _, typ := range gwTypes {
		_, _ = gh(Request{Type: typ})
	}
	fobs := NewNodeObs()
	fh := ringOfOne(t, FedConfig{Obs: fobs}).Handler()
	for _, typ := range fedTypes {
		_, _ = fh(Request{Type: typ})
	}
	for name, want := range map[string]struct {
		o     *NodeObs
		types []string
	}{"gateway": {node.Obs(), gwTypes}, "fed": {fobs, fedTypes}} {
		var st QueryStatsResp
		want.o.servingStats(&st)
		if st.Requests[rpcOther] != 0 || len(st.Requests) != len(want.types) {
			t.Errorf("%s counted %v, want one series per served type %v and none under %q", name, st.Requests, want.types, rpcOther)
		}
	}
}

// TestRouteTablesRefuseMalformedPayloads drives the malformed-payload matrix
// from the tables, for both servers: garbage is refused with the type's
// contract text, and a missing payload is the zero request exactly where it
// always was.
func TestRouteTablesRefuseMalformedPayloads(t *testing.T) {
	node := testNode(t, simclock.NewVirtual(monday), nil)
	servers := []struct {
		name    string
		h       Handler
		types   []string
		unknown string
	}{
		{"gateway", node.Gateway.Handler(), routeTypes(gatewayRoutes), `gateway: unknown request type "bogus"`},
		{"fed", ringOfOne(t, FedConfig{Obs: NewNodeObs()}).Handler(), routeTypes(fedRoutes), `fed: unknown request type "bogus"`},
	}
	for _, srv := range servers {
		for _, typ := range srv.types {
			want, ok := wantMalformed[typ]
			if !ok {
				t.Errorf("%s serves %q, which has no malformed-payload text in wantMalformed", srv.name, typ)
				continue
			}
			for _, garbage := range []string{`{bad`, `[1]`, `"x"`} {
				if _, err := srv.h(Request{Type: typ, Payload: json.RawMessage(garbage)}); err == nil || err.Error() != want {
					t.Errorf("%s %s with payload %s: err = %v, want %q", srv.name, typ, garbage, err, want)
				}
			}
			_, err := srv.h(Request{Type: typ})
			if refused := err != nil && err.Error() == want; refused == payloadOptional[typ] {
				t.Errorf("%s %s without a payload: err = %v, payload optional = %v", srv.name, typ, err, payloadOptional[typ])
			}
		}
		if _, err := srv.h(Request{Type: "bogus"}); err == nil || err.Error() != srv.unknown {
			t.Errorf("%s unknown type: err = %v, want %q", srv.name, err, srv.unknown)
		}
	}
}

// serveRow runs one table row directly — no shell, so no dispatch span lands
// in the flight recorder under test.
func serveRow[S any](t *testing.T, s S, routes []route[S], typ string, req interface{}) (interface{}, error) {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range routes {
		if r.typ == typ {
			return r.serve(s, context.Background(), Request{Type: typ, Payload: raw})
		}
	}
	t.Fatalf("no row for %q", typ)
	return nil, nil
}

// TestQueryTracesSameFromGatewayAndPeer: a host gateway and a federation peer
// of the same name, over the same flight recorder and the same saved previous
// flight, answer every form of query-traces identically.
func TestQueryTracesSameFromGatewayAndPeer(t *testing.T) {
	start := time.Date(2005, 9, 2, 8, 30, 0, 0, time.UTC)
	record := func(rec *otrace.Recorder, seed uint64, names ...string) {
		tr := otrace.New(otrace.Config{SampleRate: 1, Seed: seed, Recorder: rec, Clock: &tickClock{t: start}})
		for _, name := range names {
			_, span := tr.Start(context.Background(), name)
			span.End()
		}
		rec.AddLogEvent(otrace.LogEvent{Time: start, Level: "WARN", Msg: names[0] + " warned"})
	}
	old := otrace.NewRecorder(8)
	record(old, 3, "old-run.a", "old-run.b")
	prev := old.Snapshot(start)
	live := otrace.NewRecorder(8)
	record(live, 4, "live.a", "live.b", "live.c")
	tracer := otrace.New(otrace.Config{Recorder: live})

	clock := &stepClock{now: start}
	sm, err := NewStateManager("reg", period, avail.DefaultConfig(), clock, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sm.obsv.SetTracing(tracer)
	gw, err := NewGateway("reg", avail.DefaultConfig(), period, clock, sm)
	if err != nil {
		t.Fatal(err)
	}
	peerObs := NewNodeObs()
	peerObs.SetTracing(tracer)
	peer := ringOfOne(t, FedConfig{Obs: peerObs})

	liveID, prevID := live.Snapshot(time.Time{}).TracesLimit(1)[0].TraceID.String(), prev.Traces[0].TraceID.String()
	cases := []struct {
		name      string
		req       QueryTracesReq
		noPrev    bool
		wantErr   string
		wantSpans []string // root span names, in answer order
		wantEvent string
	}{
		{name: "live listing", req: QueryTracesReq{}, wantSpans: []string{"live.c", "live.b", "live.a"}},
		{name: "live limit", req: QueryTracesReq{Limit: 2}, wantSpans: []string{"live.c", "live.b"}},
		{name: "live by id", req: QueryTracesReq{TraceID: liveID}, wantSpans: []string{"live.c"}},
		{name: "live events", req: QueryTracesReq{Limit: 1, Events: true}, wantSpans: []string{"live.c"}, wantEvent: "live.a warned"},
		{name: "live unknown id", req: QueryTracesReq{TraceID: prevID}, wantErr: "trace " + prevID + " not retained"},
		{name: "bad id", req: QueryTracesReq{TraceID: "zz"}, wantErr: `bad trace id "zz"`},
		{name: "previous listing", req: QueryTracesReq{Previous: true}, wantSpans: []string{"old-run.b", "old-run.a"}},
		{name: "previous by id", req: QueryTracesReq{Previous: true, TraceID: prevID}, wantSpans: []string{"old-run.b"}},
		{name: "previous events", req: QueryTracesReq{Previous: true, Events: true, Limit: 1}, wantSpans: []string{"old-run.b"}, wantEvent: "old-run.a warned"},
		{name: "previous unknown id", req: QueryTracesReq{Previous: true, TraceID: liveID}, wantErr: "trace " + liveID + " not in the previous flight"},
		{name: "previous never saved", req: QueryTracesReq{Previous: true}, noPrev: true,
			wantErr: "no previous flight snapshot (node not started with -data-dir, or first run)"},
	}
	for _, tc := range cases {
		saved := prev
		if tc.noPrev {
			saved = nil
		}
		sm.obsv.SetPrevFlight(saved)
		peerObs.SetPrevFlight(saved)
		fromGW, gwErr := serveRow(t, gw, gatewayRoutes, msgQueryTraces, tc.req)
		fromPeer, peerErr := serveRow(t, peer, fedRoutes, msgQueryTraces, tc.req)
		if tc.wantErr != "" {
			if gwErr == nil || gwErr.Error() != tc.wantErr || peerErr == nil || peerErr.Error() != tc.wantErr {
				t.Errorf("%s: gateway err %v, peer err %v, want %q from both", tc.name, gwErr, peerErr, tc.wantErr)
			}
			continue
		}
		if gwErr != nil || peerErr != nil {
			t.Errorf("%s: gateway err %v, peer err %v", tc.name, gwErr, peerErr)
			continue
		}
		if !reflect.DeepEqual(fromGW, fromPeer) {
			t.Errorf("%s: gateway answered %+v, peer %+v", tc.name, fromGW, fromPeer)
		}
		resp := fromGW.(QueryTracesResp)
		var spans []string
		for _, rec := range resp.Traces {
			spans = append(spans, rec.Root().Name)
		}
		wantTotal := uint64(3)
		if tc.req.Previous {
			wantTotal = 2
		}
		if resp.MachineID != "reg" || resp.TotalRecorded != wantTotal || !reflect.DeepEqual(spans, tc.wantSpans) {
			t.Errorf("%s: answered %+v (roots %v), want roots %v of %d recorded", tc.name, resp, spans, tc.wantSpans, wantTotal)
		}
		if (tc.wantEvent == "") != (len(resp.Events) == 0) || (tc.wantEvent != "" && resp.Events[0].Msg != tc.wantEvent) {
			t.Errorf("%s: events %+v, want %q", tc.name, resp.Events, tc.wantEvent)
		}
	}
}

// echoRow is a query-tr row that answers with its request: TR is the length
// and HistoryWindows the memory. A negative length is refused, with an
// answer beside the error as a handler may return one.
func echoRow(seen func(QueryTRReq)) route[struct{}] {
	return on(MsgQueryTR, "query", false, func(_ struct{}, _ context.Context, q QueryTRReq) (QueryTRResp, error) {
		seen(q)
		resp := QueryTRResp{TR: q.LengthSeconds, HistoryWindows: int(q.GuestMemMB)}
		if q.LengthSeconds < 0 {
			return resp, errors.New("refused")
		}
		return resp, nil
	})
}

// TestPooledRowsKeepConcurrentAnswersApart holds 64 query-tr's of distinct
// lengths inside one row's handler at once, all on one pooled connection:
// each request and each boxed answer comes from the row's pools, and each
// caller must still get its own answer.
func TestPooledRowsKeepConcurrentAnswersApart(t *testing.T) {
	const n = 64
	entered, release := make(chan struct{}, n), make(chan struct{})
	routes := []route[struct{}]{echoRow(func(QueryTRReq) {
		entered <- struct{}{}
		<-release
	})}
	h := serveRoutes(struct{}{}, routes, "gateway", "machine", "m", func() *otrace.Tracer { return nil }, nil)
	pn := &pipeNet{srv: ServeListener(nil, h, ServerConfig{PerConnInflight: n})}
	caller := &Caller{Pool: &Pool{Dialer: pn, MaxPerHost: 1}}
	defer caller.Pool.Close()
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := QueryTRReq{LengthSeconds: float64(60 * (i + 1)), GuestMemMB: float64(i)}
			var out QueryTRResp
			if err := caller.Call(context.Background(), "m", MsgQueryTR, req, &out, 10*time.Second); err != nil {
				errs <- err
			} else if out.TR != req.LengthSeconds || out.HistoryWindows != i {
				errs <- fmt.Errorf("request %d (length %v) got %+v", i, req.LengthSeconds, out)
			}
		}(i)
	}
	for i := 0; i < n; i++ {
		<-entered
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if pn.dials != 1 {
		t.Errorf("%d dials, want the one pooled connection", pn.dials)
	}
}

// TestPooledRowGivesBackCleanValues: a payload that decodes partway before it
// fails, and a request its handler refuses, both give the row's pooled
// request back zeroed, so the next request sees only its own fields; a
// refused request takes no answer box, and an answered one encodes exactly
// its own answer. A direct Handler call still gets the typed answer beside
// the error.
func TestPooledRowGivesBackCleanValues(t *testing.T) {
	var seen []QueryTRReq
	row := echoRow(func(q QueryTRReq) { seen = append(seen, q) })
	serve := func(payload string, pooled bool) (interface{}, error) {
		return row.serve(struct{}{}, context.Background(), Request{Type: MsgQueryTR, Payload: json.RawMessage(payload), pooled: pooled})
	}
	answer := func(payload, want string) {
		t.Helper()
		p, err := serve(payload, true)
		box, ok := p.(*respBox[QueryTRResp])
		if err != nil || !ok {
			t.Fatalf("%s answered %T, %v; want a pooled box", payload, p, err)
		}
		raw, err := box.appendTo(nil)
		box.release()
		if err != nil || string(raw) != want {
			t.Fatalf("%s: box encodes %s, %v; want %s", payload, raw, err, want)
		}
	}
	const tail = `,"current_state":"","cache_hits":0,"cache_misses":0}`
	for i := 0; i < 3; i++ {
		answer(`{"length_seconds":60,"guest_mem_mb":5}`, `{"tr":60,"history_windows":5`+tail)
		if p, err := serve(`{"length_seconds":-1}`, true); err == nil || p != nil {
			t.Fatalf("refused request served %v, %v; want no payload and the error", p, err)
		}
		// The decode sets the memory before it fails on the length.
		if _, err := serve(`{"guest_mem_mb":7,"length_seconds":"x"}`, true); err == nil || err.Error() != wantMalformed[MsgQueryTR] {
			t.Fatalf("malformed payload: %v", err)
		}
		answer(`{"length_seconds":60}`, `{"tr":60,"history_windows":0`+tail)
	}
	want := []QueryTRReq{{LengthSeconds: 60, GuestMemMB: 5}, {LengthSeconds: -1}, {LengthSeconds: 60}}
	if want = slices.Concat(want, want, want); !reflect.DeepEqual(seen, want) {
		t.Errorf("the handler saw %+v, want %+v: a pooled request came back dirty", seen, want)
	}
	if p, err := serve(`{"length_seconds":-2}`, false); err == nil || p != (QueryTRResp{TR: -2}) {
		t.Errorf("direct refused call = %v, %v; want the typed answer and the error", p, err)
	}
}

// TestGatewayHandlerWarmQueryAllocs is a tripwire on the serving shell: a
// warm query-tr through Gateway.Handler() — span check, row lookup, payload
// decode, the state manager's cached answer, RPC metrics — costs one
// allocation on linux/amd64 with go 1.24: the typed response's interface
// box, which a direct call gets and a served one does not. It cost two
// before the row pooled the request struct the payload decodes into, and
// six while the payload was decoded by json.Unmarshal, whose decoder state
// is allocated afresh on every call; decodeJSON recycles it.
func TestGatewayHandlerWarmQueryAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops puts at random under -race; the plain run measures")
	}
	clock := simclock.NewVirtual(time.Date(2005, 9, 16, 8, 30, 0, 0, time.UTC)) // a Friday
	node := testNode(t, clock, historyMachine("lab-01", 25, 9))
	node.Gateway.Record(clock.Now(), sample(5, 400))
	h := node.Gateway.Handler()
	req := Request{Type: MsgQueryTR, Payload: json.RawMessage(`{"length_seconds":3600,"guest_mem_mb":100}`)}
	query := func() {
		if _, err := h(req); err != nil {
			t.Fatal(err)
		}
	}
	// Fill the tracker's pending ring (4 096 entries, eight a query) so its
	// doubling is behind us, as it is on any node that has served for a while.
	for i := 0; i < 600; i++ {
		query()
	}
	if got := testing.AllocsPerRun(200, query); got > 2 {
		t.Fatalf("a warm query-tr through Gateway.Handler() makes %v allocations, want at most 2", got)
	}
}
