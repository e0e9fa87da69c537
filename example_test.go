package fgcs_test

import (
	"fmt"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/predict"
	"fgcs/internal/trace"
	"fgcs/internal/workload"
)

// Example is the quickstart: generate a synthetic testbed trace, build the
// semi-Markov availability predictor over one machine's history, and predict
// the temporal reliability of a few future time windows. Run it with
//
//	go test -run '^Example$' -v .
func Example() {
	// 1. A month of monitoring history for one lab machine (in a real
	//    deployment this comes from the resource monitor's logs).
	params := workload.DefaultParams()
	params.Machines = 1
	params.Days = 28
	ds, err := workload.Generate(params)
	if err != nil {
		fmt.Println(err)
		return
	}
	machine := ds.Machines[0]
	fmt.Printf("history: %s, %d days at %v sampling\n", machine.ID, len(machine.Days), machine.Period)

	// 2. Build the predictor (Th1/Th2 thresholds, suspend limit and guest
	//    working set all default to the paper's testbed values).
	p := predict.SMP{Cfg: avail.DefaultConfig()}

	// 3. Predict TR for guest jobs of different lengths at different
	//    times of day.
	fmt.Printf("\n%-22s %-10s %s\n", "window", "TR", "meaning")
	for _, w := range []predict.Window{
		{Start: 2 * time.Hour, Length: 2 * time.Hour},  // overnight: lab is idle
		{Start: 8 * time.Hour, Length: 2 * time.Hour},  // morning
		{Start: 14 * time.Hour, Length: 2 * time.Hour}, // afternoon
		{Start: 19 * time.Hour, Length: 2 * time.Hour}, // evening project rush
		{Start: 8 * time.Hour, Length: 10 * time.Hour}, // a long job across the day
	} {
		pred, err := p.Predict(machine.DaysOfType(trace.Weekday), w)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%-22s %-10.4f chance the guest job survives\n", w, pred.TR)
	}

	// 4. The scheduler-style query: a 3-hour job submitted "now".
	//    It pools the same-type history days strictly before "now".
	now := params.Start.AddDate(0, 0, 21).Add(10*time.Hour + 30*time.Minute)
	midnight, w := predict.WindowAt(now, 3*time.Hour, machine.Period)
	var days []*trace.Day
	for _, d := range machine.DaysOfType(trace.TypeOfDate(midnight)) {
		if d.Date.Before(midnight) {
			days = append(days, d)
		}
	}
	pred, err := p.Predict(days, w)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("\n3h job at %v: TR = %.4f\n", now.Format("Mon 15:04"), pred.TR)

	// Output:
	// history: lab-01, 28 days at 6s sampling
	//
	// window                 TR         meaning
	// 02:00+2h0m0s           1.0000     chance the guest job survives
	// 08:00+2h0m0s           0.7926     chance the guest job survives
	// 14:00+2h0m0s           0.5826     chance the guest job survives
	// 19:00+2h0m0s           0.3099     chance the guest job survives
	// 08:00+10h0m0s          0.1197     chance the guest job survives
	//
	// 3h job at Mon 10:30: TR = 0.7189
}
