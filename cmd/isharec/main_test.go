package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fgcs/internal/flagdoc"
	"fgcs/internal/ishare"
)

var update = flag.Bool("update", false, "rewrite the isharec flag tables in README.md")

// TestFlagTables holds README's two isharec tables, the global flags and
// each subcommand's, to the registered flags (-update rewrites them).
func TestFlagTables(t *testing.T) {
	global := flag.NewFlagSet("isharec", flag.ContinueOnError)
	registerGlobals(global, &globals{})
	flagdoc.Check(t, "../../README.md", "isharec", flagdoc.Table(nil, global), *update)
	sets := make([]*flag.FlagSet, len(commands))
	for i, cmd := range commands {
		sets[i] = flag.NewFlagSet(cmd, flag.ContinueOnError)
		registerCommand(cmd, sets[i], &options{})
	}
	flagdoc.Check(t, "../../README.md", "isharec-commands", flagdoc.Table(commands, sets...), *update)
}

// serve starts a protocol server on a loopback port whose handler is read
// per request, so a federation peer can listen before its ring is known.
func serve(t *testing.T, h *atomic.Pointer[ishare.Handler]) string {
	t.Helper()
	srv, err := ishare.NewServerConfig("127.0.0.1:0", func(req ishare.Request) (interface{}, error) {
		return (*h.Load())(req)
	}, ishare.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

// stubMachine answers query-tr with a fixed TR, accepts every submit, and
// reports any job running, or killed by kill-job.
func stubMachine(t *testing.T, id string, tr float64) string {
	var h atomic.Pointer[ishare.Handler]
	fn := ishare.Handler(func(req ishare.Request) (interface{}, error) {
		switch req.Type {
		case ishare.MsgQueryTR:
			return ishare.QueryTRResp{TR: tr, HistoryWindows: 7, CurrentState: "S1"}, nil
		case ishare.MsgSubmit:
			return ishare.SubmitResp{JobID: id + "-job-1"}, nil
		case "job-status", "kill-job":
			var jr ishare.JobStatusReq
			if err := json.Unmarshal(req.Payload, &jr); err != nil {
				return nil, err
			}
			state := map[string]string{"job-status": "running", "kill-job": "killed"}[req.Type]
			return ishare.JobStatusResp{JobID: jr.JobID, State: state, WorkSeconds: 3600}, nil
		}
		return nil, fmt.Errorf("stub %s: unexpected %s", id, req.Type)
	})
	h.Store(&fn)
	return serve(t, &h)
}

// stubTRs are the stub machines every test ring holds, with their TRs.
var stubTRs = map[string]float64{"m-a": 0.9, "m-b": 0.4, "m-c": 0.7}

// fedRing starts an n-peer federation without replicas, so each machine is
// held by its owner alone, and registers the stub machines through its first
// peer. n = 1 is a registry (ishared -registry-only).
func fedRing(t *testing.T, n int) []ishare.Peer {
	cells := make([]atomic.Pointer[ishare.Handler], n)
	peers := make([]ishare.Peer, n)
	for i := range peers {
		peers[i] = ishare.Peer{ID: fmt.Sprintf("gw%d", i+1), Addr: serve(t, &cells[i])}
	}
	for i := range peers {
		gw, err := ishare.NewFedGateway(ishare.FedConfig{Self: peers[i], Peers: peers, Replicas: -1, Timeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		h := gw.Handler()
		cells[i].Store(&h)
	}
	for id, tr := range stubTRs {
		if err := ishare.RegisterWithTTL(context.Background(), nil, peers[0].Addr, id, stubMachine(t, id, tr), 0, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return peers
}

// registryClient is isharec -registry addr.
func registryClient(t *testing.T, addr string) client {
	caller := &ishare.Caller{Pool: &ishare.Pool{}}
	t.Cleanup(func() { caller.Pool.Close() })
	return client{registry: addr, timeout: 2 * time.Second, caller: caller}
}

// capture runs one isharec command and returns what it printed to stdout.
func capture(t *testing.T, cl client, cmd string, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	err = run(cl, cmd, args)
	os.Stdout = stdout
	w.Close()
	got := <-out
	if err != nil {
		t.Fatalf("isharec %s %v: %v\n%s", cmd, args, err, got)
	}
	return got
}

// TestRankAndSubmitAgreeAcrossEntryModes: -registry naming a registry (a
// ring of one) and naming the second peer of a two-peer ring, whose three
// machines were registered through the first, print the same machines,
// order and TRs, and submit places the job on the top-ranked machine.
func TestRankAndSubmitAgreeAcrossEntryModes(t *testing.T) {
	want := `machine      TR       state    history
m-a          0.9000   S1       7 days
m-c          0.7000   S1       7 days
m-b          0.4000   S1       7 days
`
	entries := map[string]string{"registry": fedRing(t, 1)[0].Addr, "peer of two": fedRing(t, 2)[1].Addr}
	for name, entry := range entries {
		cl := registryClient(t, entry)
		if got := capture(t, cl, "rank", "-work", "2h", "-mem", "100"); got != want {
			t.Errorf("rank via %s printed\n%s\nwant\n%s", name, got, want)
		}
		got := capture(t, cl, "submit", "-name", "sim1", "-work", "1h")
		if want := "submitted sim1 to m-a (TR 0.9000): job id m-a-job-1\n"; got != want {
			t.Errorf("submit via %s printed %q, want %q", name, got, want)
		}
	}
}

// TestRegistryRoutesJobCommandsAndFleetStats: through the second peer of a
// two-peer ring, status and kill -machine reach a job on a machine the
// first peer's shard holds, status without -machine is refused, and stats
// -fleet merges both peers.
func TestRegistryRoutesJobCommandsAndFleetStats(t *testing.T) {
	peers := fedRing(t, 2)
	ring := ishare.NewRing(0)
	for _, p := range peers {
		if err := ring.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	machine := ""
	for id := range stubTRs {
		if owner, _ := ring.Owner(id); owner.ID == peers[0].ID {
			machine = id
		}
	}
	if machine == "" {
		t.Fatalf("no stub machine in %s's shard: rename one", peers[0].ID)
	}
	cl := registryClient(t, peers[1].Addr)
	job := machine + "-job-1"
	for cmd, state := range map[string]string{"status": "running", "kill": "killed"} {
		got := capture(t, cl, cmd, "-machine", machine, "-job", job)
		if want := fmt.Sprintf("job %s: %s (0/3600 s done)\n", job, state); got != want {
			t.Errorf("%s printed %q, want %q", cmd, got, want)
		}
	}
	if err := run(cl, "status", []string{"-job", job}); err == nil || !strings.Contains(err.Error(), "-machine") {
		t.Errorf("status without -machine: err = %v, want one naming -machine", err)
	}
	got := capture(t, cl, "stats", "-fleet")
	if want := "fleet via gw2: 2 peer(s) — 2 ok, 0 stale, 0 unreachable\n"; !strings.HasPrefix(got, want) {
		t.Errorf("stats -fleet printed\n%s\nwant it to open with %q", got, want)
	}
}
