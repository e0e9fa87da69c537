// Checkpointing example: the proactive job management the paper's prediction
// enables (Section 1 and future work) — turning checkpointing on adaptively
// based on the predicted temporal reliability.
//
// A 4-hour compute job is submitted to a busy lab machine at 08:00. Three
// recovery policies run against the identical recorded future:
//
//   - restart:     no checkpoints; every guest kill loses all progress;
//   - fixed:       checkpoint every 30 minutes regardless of prediction;
//   - TR-adaptive: query the SMP predictor and checkpoint at an interval
//     sized so that the probability of losing the interval is bounded.
//
// The example reports wall-clock completion time, kills survived and compute
// hours lost for each policy.
//
//	go run ./examples/checkpointing
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/ishare"
	"fgcs/internal/predict"
	"fgcs/internal/simclock"
	"fgcs/internal/trace"
	"fgcs/internal/workload"
)

const (
	jobWork  = 4 * time.Hour
	jobMemMB = 100
	startDay = 60 // first test day
	// ckptCost is the compute time consumed by taking one checkpoint
	// (serializing and shipping the guest state).
	ckptCost = 2 * time.Minute
)

func main() {
	params := workload.DefaultParams()
	params.Machines = 1
	params.Days = 90
	params.ActivityScale = 1.3 // a busy machine, so failures actually happen
	ds, err := workload.Generate(params)
	if err != nil {
		log.Fatal(err)
	}
	machine := ds.Machines[0]

	// Evaluate over every test weekday: some are calm (checkpoint
	// overhead is pure waste), some kill the job repeatedly (recovery is
	// everything). A useful policy must win on average.
	var testDays []int
	for d := startDay; d < params.Days-2; d++ {
		if machine.Days[d].Type() == trace.Weekday {
			testDays = append(testDays, d)
		}
	}
	fmt.Printf("job: %v of compute, submitted at 08:00 on each of %d weekdays of %s\n",
		jobWork, len(testDays), machine.ID)
	fmt.Printf("checkpoint cost: %v of compute per checkpoint\n", ckptCost)

	// The TR-adaptive policy sizes its checkpoint interval so the
	// predicted probability of losing an interval stays below 25%.
	weekdays := machine.DaysOfType(trace.Weekday)
	adaptive := chooseInterval(weekdays, 8*time.Hour)
	fmt.Printf("predicted TR at 08:00: 1h=%.3f 2h=%.3f 4h=%.3f -> adaptive checkpoint interval %v\n\n",
		mustTR(weekdays, 8*time.Hour, time.Hour),
		mustTR(weekdays, 8*time.Hour, 2*time.Hour),
		mustTR(weekdays, 8*time.Hour, 4*time.Hour),
		adaptive)

	fmt.Printf("\n%-14s %-14s %-14s %-7s %s\n", "policy", "mean wall", "worst wall", "kills", "checkpoints")
	for _, pol := range []struct {
		name string
		ckpt time.Duration // 0 = restart from scratch
	}{
		{"restart", 0},
		{"fixed-15m", 15 * time.Minute},
		{"fixed-2h", 2 * time.Hour},
		{"TR-adaptive", adaptive},
	} {
		var total, worst time.Duration
		kills, ckpts := 0, 0
		for _, day := range testDays {
			res := runPolicy(machine, day, pol.ckpt)
			total += res.wall
			if res.wall > worst {
				worst = res.wall
			}
			kills += res.kills
			ckpts += res.checkpoints
		}
		mean := total / time.Duration(len(testDays))
		fmt.Printf("%-14s %-14s %-14s %-7d %d\n", pol.name, mean.Round(time.Minute), worst.Round(time.Minute), kills, ckpts)
	}
	fmt.Println("\nCheckpointing guided by the availability prediction keeps the lost work")
	fmt.Println("bounded without checkpointing blindly often — the proactive management")
	fmt.Println("the paper's prediction framework was built for.")
}

// mustTR is the SMP's predicted TR of a window over the weekday history.
func mustTR(days []*trace.Day, start, length time.Duration) float64 {
	pr, err := predict.SMP{Cfg: avail.DefaultConfig()}.Predict(days, predict.Window{Start: start, Length: length})
	if err != nil {
		log.Fatal(err)
	}
	return pr.TR
}

// chooseInterval applies the Young/Daly optimum interval sqrt(2*C*MTBF)
// with the mean time between failures derived from the PREDICTED temporal
// reliability: lambda = -ln(TR(W))/W. This is exactly the proactive use of
// the prediction the paper proposes — no failure log parsing, no manual
// tuning, just a TR query.
func chooseInterval(days []*trace.Day, start time.Duration) time.Duration {
	window := jobWork
	tr := mustTR(days, start, window)
	if tr >= 0.999 {
		return jobWork // effectively no checkpointing needed
	}
	if tr < 1e-6 {
		tr = 1e-6
	}
	lambda := -math.Log(tr) / window.Hours() // failures per hour
	hours := math.Sqrt(2 * ckptCost.Hours() / lambda)
	iv := time.Duration(hours * float64(time.Hour)).Round(time.Minute)
	if iv < 5*time.Minute {
		iv = 5 * time.Minute
	}
	if iv > jobWork {
		iv = jobWork
	}
	return iv
}

type result struct {
	wall        time.Duration
	kills       int
	lost        time.Duration
	checkpoints int
}

// runPolicy replays the machine's recorded days through a real gateway,
// resubmitting the job after each kill (from the last checkpoint when the
// policy checkpoints).
func runPolicy(machine *trace.Machine, dayIdx int, ckpt time.Duration) result {
	cfg := avail.DefaultConfig()
	clock := simclock.NewVirtual(machine.Days[dayIdx].Date)
	sm, err := ishare.NewStateManager(machine.ID, machine.Period, cfg, clock, nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	gw, err := ishare.NewGateway(machine.ID, cfg, machine.Period, clock, sm)
	if err != nil {
		log.Fatal(err)
	}

	var res result
	checkpointed := 0.0 // seconds of progress safely persisted
	start := 8 * time.Hour
	submit := func(resume float64) string {
		resp, err := gw.Submit(context.Background(), ishare.SubmitReq{
			Name:                   "sim",
			WorkSeconds:            jobWork.Seconds(),
			MemMB:                  jobMemMB,
			InitialProgressSeconds: resume,
		})
		if err != nil {
			log.Fatal(err)
		}
		return resp.JobID
	}
	jobID := submit(0)
	elapsed := time.Duration(0)

	for d := dayIdx; d < len(machine.Days); d++ {
		day := machine.Days[d]
		lo := 0
		if d == dayIdx {
			lo = day.IndexAt(start)
		}
		for i := lo; i < day.Len(); i++ {
			t := day.Date.Add(time.Duration(i) * day.Period)
			gw.Record(t, day.Samples[i])
			elapsed += day.Period
			st, err := gw.JobStatus(context.Background(), ishare.JobStatusReq{JobID: jobID})
			if err != nil {
				log.Fatal(err)
			}
			switch st.State {
			case "completed":
				res.wall = elapsed
				return res
			case "killed":
				res.kills++
				res.lost += time.Duration(st.ProgressSeconds-checkpointed) * time.Second
				resume := 0.0
				if ckpt > 0 {
					resume = checkpointed
				}
				jobID = submit(resume)
			default:
				if ckpt > 0 && time.Duration(st.ProgressSeconds-checkpointed)*time.Second >= ckpt {
					checkpointed = st.ProgressSeconds // take a checkpoint
					res.checkpoints++
					elapsed += ckptCost // checkpointing stalls the guest
				}
			}
		}
	}
	res.wall = elapsed
	return res
}
