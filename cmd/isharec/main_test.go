package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
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

// stubMachine answers query-tr with a fixed TR and accepts every submit.
func stubMachine(t *testing.T, id string, tr float64) string {
	var h atomic.Pointer[ishare.Handler]
	fn := ishare.Handler(func(req ishare.Request) (interface{}, error) {
		switch req.Type {
		case ishare.MsgQueryTR:
			return ishare.QueryTRResp{TR: tr, HistoryWindows: 7, CurrentState: "S1"}, nil
		case ishare.MsgSubmit:
			return ishare.SubmitResp{JobID: id + "-job-1"}, nil
		}
		return nil, fmt.Errorf("stub %s: unexpected %s", id, req.Type)
	})
	h.Store(&fn)
	return serve(t, &h)
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

// TestRankAndSubmitAgreeAcrossEntryModes: on a two-peer ring holding three
// machines in disjoint shards, rank through -fed and through -registry (the
// same peer) print the same machines, order and TRs, and submit -fed places
// the job on the top-ranked machine.
func TestRankAndSubmitAgreeAcrossEntryModes(t *testing.T) {
	cells := make([]atomic.Pointer[ishare.Handler], 2)
	peers := make([]ishare.Peer, len(cells))
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
	for id, tr := range map[string]float64{"m-a": 0.9, "m-b": 0.4, "m-c": 0.7} {
		if err := ishare.RegisterWithTTL(context.Background(), nil, peers[0].Addr, id, stubMachine(t, id, tr), 0, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	entry := peers[1].Addr
	caller := &ishare.Caller{Pool: &ishare.Pool{}}
	defer caller.Pool.Close()
	fed := client{fed: entry, timeout: 2 * time.Second, caller: caller}
	reg := client{registry: entry, timeout: 2 * time.Second, caller: caller}
	want := `machine      TR       state    history
m-a          0.9000   S1       7 days
m-c          0.7000   S1       7 days
m-b          0.4000   S1       7 days
`
	for name, cl := range map[string]client{"-fed": fed, "-registry": reg} {
		if got := capture(t, cl, "rank", "-work", "2h", "-mem", "100"); got != want {
			t.Errorf("rank %s printed\n%s\nwant\n%s", name, got, want)
		}
	}
	got := capture(t, fed, "submit", "-name", "sim1", "-work", "1h")
	if want := "submitted sim1 to m-a (TR 0.9000): job id m-a-job-1\n"; got != want {
		t.Errorf("submit -fed printed %q, want %q", got, want)
	}
}
