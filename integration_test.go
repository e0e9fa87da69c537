// Cross-module integration test: the full life of an FGCS deployment, from
// synthetic monitoring history through persistence, prediction, the live
// TCP daemons and supervised guest execution. Every subsystem of the
// repository participates.
package fgcs_test

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/ishare"
	"fgcs/internal/predict"
	"fgcs/internal/simclock"
	"fgcs/internal/trace"
	"fgcs/internal/workload"
)

func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	// 1. Three weeks of monitoring history for two machines.
	params := workload.DefaultParams()
	params.Machines = 2
	params.Days = 21
	ds, err := workload.Generate(params)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Save and reload through the compressed codec, as a trace file
	//    ishared -trace preloads.
	path := filepath.Join(t.TempDir(), "testbed.trace.gz")
	if err := trace.SaveFile(path, ds); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.MachineDays() != ds.MachineDays() {
		t.Fatalf("persistence lost days: %d != %d", loaded.MachineDays(), ds.MachineDays())
	}

	// 3. Library-level prediction over the reloaded history.
	pred := predict.SMP{Cfg: avail.DefaultConfig()}
	weekdays := loaded.Machines[0].DaysOfType(trace.Weekday)
	w := predict.Window{Start: 9 * time.Hour, Length: 2 * time.Hour}
	point, err := pred.Predict(weekdays, w)
	if err != nil {
		t.Fatal(err)
	}
	if point.TR < 0 || point.TR > 1 {
		t.Fatalf("TR = %v", point.TR)
	}

	// 4. The live system: registry + two host nodes over real TCP,
	//    discovered and ranked by the client scheduler.
	now := loaded.Machines[0].Days[20].Date.Add(9 * time.Hour)
	clock := simclock.NewVirtual(now)
	self := ishare.Peer{ID: "registry", Addr: "registry.invalid:1"} // a ring of one never dials
	reg, err := ishare.NewFedGateway(ishare.FedConfig{Self: self, Peers: []ishare.Peer{self}, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	regSrv, err := reg.ServeConfig("127.0.0.1:0", ishare.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer regSrv.Close()
	var gateways []*ishare.Gateway
	for _, m := range loaded.Machines {
		node, err := ishare.NewHostNode(ishare.NodeConfig{
			MachineID: m.ID,
			Cfg:       avail.DefaultConfig(),
			Period:    m.Period,
			Clock:     clock,
			Preloaded: m,
		}, staticOKSource{})
		if err != nil {
			t.Fatal(err)
		}
		node.Gateway.Record(now, trace.Sample{CPU: 8, FreeMemMB: 350, Up: true})
		srv, err := node.Gateway.ServeConfig("127.0.0.1:0", ishare.ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if err := ishare.RegisterWithTTL(context.Background(), nil, regSrv.Addr(), m.ID, srv.Addr(), 0, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		gateways = append(gateways, node.Gateway)
	}
	sched, err := ishare.FedClient{Addr: regSrv.Addr(), Timeout: 2 * time.Second}.Scheduler(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ranked, rankFails, err := sched.Rank(context.Background(), ishare.SubmitReq{Name: "job", WorkSeconds: 2 * 3600, MemMB: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rankFails) != 0 {
		t.Fatalf("rank failures = %v", rankFails)
	}
	if len(ranked) != 2 {
		t.Fatalf("ranked %d machines", len(ranked))
	}
	for _, r := range ranked {
		if r.TR < 0 || r.TR > 1 || r.HistoryWindows == 0 {
			t.Fatalf("rank entry %+v", r)
		}
	}

	// 5. Supervised execution over TCP: submit, drive the gateways, watch
	//    it complete.
	sv := &ishare.Supervisor{Sched: sched, Clock: clock, PollInterval: 6 * time.Second}
	done := make(chan struct{})
	var run ishare.JobRun
	var runErr error
	go func() {
		defer close(done)
		run, runErr = sv.Run(context.Background(), ishare.SubmitReq{Name: "integration", WorkSeconds: 60, MemMB: 50})
	}()
	deadline := time.Now().Add(15 * time.Second)
	for {
		select {
		case <-done:
		default:
			if time.Now().After(deadline) {
				t.Fatal("supervised run did not finish")
			}
			tnow := clock.Now()
			for _, g := range gateways {
				g.Record(tnow, trace.Sample{CPU: 8, FreeMemMB: 350, Up: true})
			}
			clock.Advance(6 * time.Second)
			time.Sleep(100 * time.Microsecond)
			continue
		}
		break
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if run.Final.State != "completed" {
		t.Fatalf("supervised run = %+v", run.Final)
	}
}

type staticOKSource struct{}

func (staticOKSource) Read() (float64, float64, error) { return 8, 350, nil }
