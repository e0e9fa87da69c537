package ishare

import (
	"context"
	"encoding/json"
	"testing/quick"

	"fgcs/internal/rng"
	"net"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/simclock"
)

func TestRegistryOverTCP(t *testing.T) {
	ctx := context.Background()
	srv := buildFederation(t, 1, 0, nil)[0].srv // a ring of one over TCP

	if err := RegisterWithTTL(ctx, nil, srv.Addr(), "lab-01", "10.0.0.1:9000", 0, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := RegisterWithTTL(ctx, nil, srv.Addr(), "lab-02", "10.0.0.2:9000", 0, time.Second); err != nil {
		t.Fatal(err)
	}
	resources, err := FedClient{Addr: srv.Addr(), Timeout: time.Second}.discover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(resources) != 2 || resources[0].MachineID != "lab-01" || resources[1].MachineID != "lab-02" {
		t.Fatalf("resources = %+v", resources)
	}
	// Re-registration refreshes, not duplicates.
	if err := RegisterWithTTL(ctx, nil, srv.Addr(), "lab-01", "10.0.0.1:9999", 0, time.Second); err != nil {
		t.Fatal(err)
	}
	resources, _ = FedClient{Addr: srv.Addr(), Timeout: time.Second}.discover(ctx)
	if len(resources) != 2 || resources[0].Addr != "10.0.0.1:9999" {
		t.Fatalf("after refresh: %+v", resources)
	}
}

func TestRegistryRejectsBadRequests(t *testing.T) {
	reg := ringOfOne(t, FedConfig{})
	if err := reg.register(context.Background(), registerReq{}); err == nil {
		t.Fatal("empty resource accepted")
	}
	h := reg.Handler()
	if _, err := h(Request{Type: "bogus"}); err == nil {
		t.Fatal("unknown type accepted")
	}
	for _, typ := range []string{msgRegister, msgDiscover} {
		if _, err := h(Request{Type: typ, Payload: json.RawMessage(`{`)}); err == nil {
			t.Fatalf("malformed %s payload accepted", typ)
		}
	}
}

func TestGatewayOverTCPEndToEnd(t *testing.T) {
	now := time.Date(2005, 9, 2, 8, 30, 0, 0, time.UTC)
	clock := simclock.NewVirtual(now)
	node, err := NewHostNode(NodeConfig{
		MachineID: "lab-01",
		Cfg:       avail.DefaultConfig(),
		Period:    period,
		Clock:     clock,
		Preloaded: historyMachine("lab-01", 11, -1),
	}, staticSource{})
	if err != nil {
		t.Fatal(err)
	}
	node.Gateway.Record(now, sample(5, 400))

	regSrv := buildFederation(t, 1, 0, nil)[0].srv
	gwSrv, err := node.Gateway.ServeConfig("127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer gwSrv.Close()
	if err := RegisterWithTTL(context.Background(), nil, regSrv.Addr(), "lab-01", gwSrv.Addr(), 0, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	sched, err := FedClient{Addr: regSrv.Addr(), Timeout: time.Second}.Scheduler(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Candidates) != 1 {
		t.Fatalf("candidates = %+v", sched.Candidates)
	}
	job := SubmitReq{Name: "remote-job", WorkSeconds: 120, MemMB: 80}
	best, resp, err := sched.SubmitBest(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if best.TR != 1 {
		t.Fatalf("TR over TCP = %v", best.TR)
	}
	// Drive the node to completion and check status over TCP.
	feed(node.Gateway, now.Add(period), sample(5, 400), 25)
	api := RemoteGateway{Addr: gwSrv.Addr(), Timeout: time.Second}
	st, err := api.JobStatus(context.Background(), JobStatusReq{JobID: resp.JobID})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "completed" {
		t.Fatalf("remote status = %+v", st)
	}
	// Remote kill of a finished job errors cleanly.
	if _, err := api.Kill(context.Background(), JobStatusReq{JobID: resp.JobID}); err == nil {
		t.Fatal("kill of finished job accepted")
	}
}

func TestServerRejectsMalformedStream(t *testing.T) {
	srv, err := NewServerConfig("127.0.0.1:0", func(Request) (interface{}, error) { return nil, nil }, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("malformed request got OK")
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServerConfig("127.0.0.1:0", nil, ServerConfig{}); err == nil {
		t.Fatal("nil handler accepted")
	}
	if _, err := NewServerConfig("256.256.256.256:0", func(Request) (interface{}, error) { return nil, nil }, ServerConfig{}); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestCallErrors(t *testing.T) {
	if err := (*Caller)(nil).Call(context.Background(), "127.0.0.1:1", msgDiscover, nil, nil, 50*time.Millisecond); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestGatewayHandlerBadPayloads(t *testing.T) {
	clock := simclock.NewVirtual(monday)
	node := testNode(t, clock, nil)
	h := node.Gateway.Handler()
	for _, typ := range []string{MsgQueryTR, MsgSubmit, msgJobStatus, msgKillJob} {
		if _, err := h(Request{Type: typ, Payload: json.RawMessage(`{bad`)}); err == nil {
			t.Errorf("malformed %s payload accepted", typ)
		}
	}
	if _, err := h(Request{Type: "bogus"}); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestHostNodeStartStop(t *testing.T) {
	clock := simclock.NewVirtual(monday)
	node := testNode(t, clock, nil)
	node.Start()
	deadline := time.Now().Add(2 * time.Second)
	for clock.PendingTimers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("monitor never armed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	clock.Advance(period)
	deadline = time.Now().Add(2 * time.Second)
	for node.SM.recorder.Days() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no samples after advance")
		}
		time.Sleep(100 * time.Microsecond)
	}
	node.Stop()
}

func TestNodeConfigValidation(t *testing.T) {
	if _, err := NewHostNode(NodeConfig{}, staticSource{}); err == nil {
		t.Fatal("missing machine id accepted")
	}
	bad := NodeConfig{MachineID: "x", Cfg: avail.Config{Th1: 90, Th2: 10, SuspendLimit: time.Minute}}
	if _, err := NewHostNode(bad, staticSource{}); err == nil {
		t.Fatal("invalid avail config accepted")
	}
	// Mismatched preloaded period.
	pre := historyMachine("x", 1, -1) // 6 s period
	cfg := NodeConfig{MachineID: "x", Cfg: avail.DefaultConfig(), Period: time.Minute, Preloaded: pre}
	if _, err := NewHostNode(cfg, staticSource{}); err == nil {
		t.Fatal("mismatched preloaded period accepted")
	}
}

// Property: every protocol payload type survives a JSON round trip through
// the envelope encoding the wire uses.
func TestProtocolRoundTripProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		reqs := []interface{}{
			QueryTRReq{LengthSeconds: r.Uniform(1, 1e5), GuestMemMB: r.Uniform(0, 512)},
			SubmitReq{Name: "job", WorkSeconds: r.Uniform(1, 1e5), MemMB: r.Uniform(0, 512), InitialProgressSeconds: r.Uniform(0, 10)},
			JobStatusReq{JobID: "j-1"},
			registerReq{MachineID: "m", Addr: "127.0.0.1:1"},
		}
		for _, payload := range reqs {
			raw, err := json.Marshal(payload)
			if err != nil {
				return false
			}
			var env Request
			b, err := json.Marshal(Request{Type: "t", Payload: raw})
			if err != nil {
				return false
			}
			if err := json.Unmarshal(b, &env); err != nil {
				return false
			}
			switch p := payload.(type) {
			case QueryTRReq:
				var got QueryTRReq
				if err := json.Unmarshal(env.Payload, &got); err != nil || got != p {
					return false
				}
			case SubmitReq:
				var got SubmitReq
				if err := json.Unmarshal(env.Payload, &got); err != nil || got != p {
					return false
				}
			case JobStatusReq:
				var got JobStatusReq
				if err := json.Unmarshal(env.Payload, &got); err != nil || got != p {
					return false
				}
			case registerReq:
				var got registerReq
				if err := json.Unmarshal(env.Payload, &got); err != nil || got != p {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}
