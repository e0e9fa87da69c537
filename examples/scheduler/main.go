// Scheduler example: proactive, availability-aware job placement on a
// simulated FGCS testbed (the motivating application of the paper).
//
// A client must place a stream of compute jobs on lab machines. The first
// half prints experiment X1 (experiments.RunX1, the same rows as
// `experiments -run x1`): the TR-aware policy picks the machine with the
// highest predicted temporal reliability over the job's window, next to an
// oracle, round-robin and random placement on the same recorded futures, so
// the comparison shows exactly what the prediction buys: fewer guest kills
// and fewer wasted compute hours. The second half makes one such decision
// through the real iShare components.
//
//	go run ./examples/scheduler
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/experiments"
	"fgcs/internal/ishare"
	"fgcs/internal/trace"
)

func main() {
	// A heterogeneous testbed: two busy machines near the lab entrance,
	// two normal ones, two quiet ones in the corner. The scheduler knows
	// nothing about this — it only sees the monitor histories.
	ds, err := experiments.HeterogeneousTestbed(90, experiments.DefaultTestbedScales, 100)
	if err != nil {
		log.Fatal(err)
	}
	cfg := experiments.DefaultX1Config()
	rows, err := experiments.RunX1(ds, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%dh jobs at %v o'clock on %d machines, after %d days of history\n\n",
		cfg.JobHours, cfg.StartHours, len(ds.Machines), cfg.HistoryDays)
	for _, r := range rows {
		total := r.Completed + r.Killed
		fmt.Printf("%-12s completed %3d / %3d (%.0f%%), killed %d, wasted %.0f h\n",
			r.Policy+":", r.Completed, total, 100*float64(r.Completed)/float64(total), r.Killed, r.WastedHours)
	}

	// The same decision through the real iShare components, end to end:
	// gateways + state managers on an in-process testbed.
	fmt.Println("\n--- live query through the iShare gateway stack ---")
	demoLiveQuery(ds, cfg.Cfg, cfg.JobHours)
}

// demoLiveQuery wires real gateways/state managers for each machine and lets
// the client-side scheduler rank them, exactly as cmd/isharec does over TCP.
func demoLiveQuery(ds *trace.Dataset, cfg avail.Config, jobHours int) {
	// "Now": 09:00 on the first test weekday.
	now := time.Date(2005, 11, 14, 9, 0, 0, 0, time.UTC)
	sched := &ishare.Scheduler{}
	for _, m := range ds.Machines {
		node, err := ishare.NewHostNode(ishare.NodeConfig{
			MachineID: m.ID,
			Cfg:       cfg,
			Period:    m.Period,
			Clock:     fixedClock{now},
			Preloaded: m,
		}, nullSource{})
		if err != nil {
			log.Fatal(err)
		}
		// Prime the current state with one live sample.
		node.Gateway.Record(now, trace.Sample{CPU: 10, FreeMemMB: 300, Up: true})
		sched.Candidates = append(sched.Candidates, ishare.Candidate{MachineID: m.ID, API: node.Gateway})
	}
	job := ishare.SubmitReq{Name: "live-job", WorkSeconds: float64(jobHours) * 3600, MemMB: 100}
	ranked, _, err := sched.Rank(context.Background(), job)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s %-8s %s\n", "machine", "TR", "state")
	for _, rk := range ranked {
		fmt.Printf("%-10s %-8.4f %s\n", rk.MachineID, rk.TR, rk.CurrentState)
	}
	best, resp, err := sched.SubmitBest(context.Background(), job)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job %s placed on %s\n", resp.JobID, best.MachineID)
}

type fixedClock struct{ t time.Time }

func (c fixedClock) Now() time.Time                       { return c.t }
func (c fixedClock) After(time.Duration) <-chan time.Time { return make(chan time.Time) }
func (c fixedClock) Sleep(time.Duration)                  {}

type nullSource struct{}

func (nullSource) Read() (float64, float64, error) { return 10, 300, nil }
