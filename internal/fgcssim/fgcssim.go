// Package fgcssim simulates a complete FGCS deployment end to end: a
// testbed of host machines replaying their recorded days, a stream of guest
// jobs, and a placement policy that decides where each job runs. Guest jobs
// progress, get reniced, suspended and killed through the real iShare
// gateway state machine; killed jobs are re-placed (resuming from
// checkpointed progress) until they complete. A checkpoint costs the guest
// CheckpointCost of compute inside the replay, and a kill loses a checkpoint
// still being written.
//
// The simulator measures what the paper declares the primary performance
// metric for compute-bound guest jobs — response time (Section 1) — and so
// quantifies the end-to-end benefit of availability prediction: proactive,
// TR-aware placement against prediction-oblivious baselines on identical job
// streams and identical machine futures.
package fgcssim

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/ishare"
	"fgcs/internal/rng"
	"fgcs/internal/simclock"
	"fgcs/internal/trace"
)

// Policy selects how jobs are placed on machines.
type Policy int

const (
	// PolicyTRAware places through the scheduler that ships: ishare.Scheduler
	// asks every free machine's gateway for its temporal reliability over
	// the job's remaining work and memory footprint and submits to the best.
	PolicyTRAware Policy = iota
	// PolicyRandom picks a free machine uniformly.
	PolicyRandom
	// PolicyRoundRobin cycles through the machines.
	PolicyRoundRobin
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyTRAware:
		return "tr-aware"
	case PolicyRandom:
		return "random"
	case PolicyRoundRobin:
		return "round-robin"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// JobSpec is one guest job of the stream.
type JobSpec struct {
	ID      string
	Arrival time.Time
	Work    time.Duration
	MemMB   float64
}

// JobResult is the outcome of one job.
type JobResult struct {
	JobSpec
	Completed bool
	// Response is completion time minus arrival time (queueing included).
	Response time.Duration
	// Kills counts guest terminations the job survived via re-placement.
	Kills int
	// LostCompute is the compute kills threw away: everything the guest ran
	// after its last completed checkpoint, a checkpoint being written
	// included.
	LostCompute time.Duration
	// Checkpoints counts the checkpoints the job completed.
	Checkpoints int
	// Machines lists every machine the job ran on.
	Machines []string
}

// Config parameterizes a simulation run.
type Config struct {
	// Dataset is the testbed trace; all machines must cover the same
	// dates.
	Dataset *trace.Dataset
	// Cfg is the availability model configuration.
	Cfg avail.Config
	// Policy selects the placement strategy.
	Policy Policy
	// StartDay is the first replayed day index (earlier days are the
	// predictor's history).
	StartDay int
	// HistoryDays bounds the predictor's day pool (0 = all).
	HistoryDays int
	// CheckpointInterval is how much new progress a job accumulates
	// before its next checkpoint is taken, each at CheckpointCost;
	// progress past the last completed checkpoint is lost on a kill.
	// Default: 30 minutes. An interval of at least the job's work never
	// checkpoints, so a kill restarts the job.
	CheckpointInterval time.Duration
	// Seed drives the random policy.
	Seed uint64
}

// Result aggregates a run.
type Result struct {
	Policy Policy
	Jobs   []JobResult
	// MeanResponse and P95Response are over completed jobs.
	MeanResponse, P95Response time.Duration
	// CompletedJobs counts jobs that finished within the simulated span.
	CompletedJobs int
	// TotalKills counts guest terminations across all jobs.
	TotalKills int
	// TotalLost is the compute redone across all jobs.
	TotalLost time.Duration
	// TotalCheckpoints counts the checkpoints taken across all jobs.
	TotalCheckpoints int
}

// CheckpointCost is the compute one checkpoint takes. The guest makes no
// progress while it writes one.
const CheckpointCost = 2 * time.Minute

// machineState is the simulator's view of one host node.
type machineState struct {
	machine *trace.Machine
	gateway *ishare.Gateway
	sm      *ishare.StateManager
	// jobIdx is the index of the active job in the run's job table, -1
	// when the machine is free.
	jobIdx int
	jobID  string
}

type activeJob struct {
	spec       JobSpec
	checkpoint float64 // seconds of persisted progress
	planned    int     // checkpoints the current placement takes if it runs to the end
	lost       float64 // compute seconds lost to kills
	kills      int
	ckpts      int
	machines   []string
	done       bool
	doneAt     time.Time
}

// Run simulates the job stream over the dataset under the policy.
func Run(cfg Config, jobs []JobSpec) (Result, error) {
	if cfg.Dataset == nil || len(cfg.Dataset.Machines) == 0 {
		return Result{}, fmt.Errorf("fgcssim: empty dataset")
	}
	days := len(cfg.Dataset.Machines[0].Days)
	for _, m := range cfg.Dataset.Machines {
		if len(m.Days) != days {
			return Result{}, fmt.Errorf("fgcssim: machine %s has %d days, want %d", m.ID, len(m.Days), days)
		}
	}
	if cfg.StartDay < 1 || cfg.StartDay >= days {
		return Result{}, fmt.Errorf("fgcssim: start day %d outside (0, %d)", cfg.StartDay, days)
	}
	if err := cfg.Cfg.Validate(); err != nil {
		return Result{}, err
	}
	ckptIv := cfg.CheckpointInterval.Seconds()
	if ckptIv <= 0 {
		ckptIv = 30 * 60
	}
	// A placement runs the job from its checkpoint in segments of ckptIv of
	// work, each but the last followed by a checkpoint: the gateway counts
	// both as the guest's progress, so a placement's work is the remaining
	// work plus its checkpoints' cost.
	ckptCost := CheckpointCost.Seconds()
	segment := ckptIv + ckptCost
	period := cfg.Dataset.Machines[0].Period
	clock := simclock.NewVirtual(cfg.Dataset.Machines[0].Days[cfg.StartDay].Date)
	r := rng.New(cfg.Seed)

	// Build a node per machine, without a monitor: the replay below feeds
	// its gateway. The days before StartDay are the history its state
	// manager predicts from until the replayed days accumulate.
	var machines []*machineState
	byID := make(map[string]int, len(cfg.Dataset.Machines))
	for mi, m := range cfg.Dataset.Machines {
		node, err := ishare.NewHostNode(ishare.NodeConfig{
			MachineID:   m.ID,
			Cfg:         cfg.Cfg,
			Period:      period,
			Clock:       clock,
			Preloaded:   &trace.Machine{ID: m.ID, Period: m.Period, Days: m.Days[:cfg.StartDay:cfg.StartDay]},
			HistoryDays: cfg.HistoryDays,
		}, nil)
		if err != nil {
			return Result{}, err
		}
		byID[m.ID] = mi
		machines = append(machines, &machineState{machine: m, gateway: node.Gateway, sm: node.SM, jobIdx: -1})
	}

	// Job table sorted by arrival.
	table := make([]*activeJob, len(jobs))
	for i, j := range jobs {
		if j.Work <= 0 {
			return Result{}, fmt.Errorf("fgcssim: job %s has non-positive work", j.ID)
		}
		table[i] = &activeJob{spec: j}
	}
	sort.SliceStable(table, func(a, b int) bool { return table[a].spec.Arrival.Before(table[b].spec.Arrival) })

	rrNext := 0
	place := func(ji int) bool {
		job := table[ji]
		// Free machines in a recoverable state only — the scheduler's
		// QueryTR reports the current state, and no client submits to a
		// machine that is down or overloaded right now (its TR is 0).
		var free []int
		for mi, ms := range machines {
			if ms.jobIdx < 0 && ms.sm.CurrentState().Recoverable() {
				free = append(free, mi)
			}
		}
		if len(free) == 0 {
			return false
		}
		// Checkpoints strictly before the end: one per full segment of
		// work left, the last segment excepted.
		job.planned = int(math.Ceil((job.spec.Work.Seconds()-job.checkpoint)/ckptIv)) - 1
		req := ishare.SubmitReq{
			Name:                   job.spec.ID,
			WorkSeconds:            job.spec.Work.Seconds() + float64(job.planned)*ckptCost,
			MemMB:                  job.spec.MemMB,
			InitialProgressSeconds: job.checkpoint,
		}
		var pick int
		var resp ishare.SubmitResp
		var err error
		switch cfg.Policy {
		case PolicyRandom:
			pick = free[r.Intn(len(free))]
			resp, err = machines[pick].gateway.Submit(context.Background(), req)
		case PolicyRoundRobin:
			pick = free[rrNext%len(free)]
			rrNext++
			resp, err = machines[pick].gateway.Submit(context.Background(), req)
		default: // PolicyTRAware
			sched := ishare.Scheduler{}
			for _, mi := range free {
				sched.Candidates = append(sched.Candidates,
					ishare.Candidate{MachineID: machines[mi].machine.ID, API: machines[mi].gateway})
			}
			var best ishare.Ranked
			best, resp, err = sched.SubmitBest(context.Background(), req)
			pick = byID[best.MachineID]
		}
		if err != nil {
			return false
		}
		machines[pick].jobIdx = ji
		machines[pick].jobID = resp.JobID
		job.machines = append(job.machines, machines[pick].machine.ID)
		return true
	}

	nextArrival := 0
	var queue []int
	for dayIdx := cfg.StartDay; dayIdx < days; dayIdx++ {
		dayLen := cfg.Dataset.Machines[0].Days[dayIdx].Len()
		for i := 0; i < dayLen; i++ {
			now := cfg.Dataset.Machines[0].Days[dayIdx].Date.Add(time.Duration(i) * period)
			clock.AdvanceTo(now)
			// Feed this tick's samples into every gateway.
			for _, ms := range machines {
				s := ms.machine.Days[dayIdx].Samples[i]
				ms.gateway.Record(now, s)
			}
			// Harvest completions/kills.
			for _, ms := range machines {
				if ms.jobIdx < 0 {
					continue
				}
				st, err := ms.gateway.JobStatus(context.Background(), ishare.JobStatusReq{JobID: ms.jobID})
				if err != nil {
					continue
				}
				job := table[ms.jobIdx]
				switch st.State {
				case "completed":
					job.ckpts += job.planned
					job.done = true
					job.doneAt = now
					ms.jobIdx = -1
				case "killed":
					// The placement spent n full segments, whose
					// checkpoints completed, then a remainder the kill
					// lost.
					spent := st.ProgressSeconds - job.checkpoint
					n := min(int(spent/segment), job.planned)
					job.ckpts += n
					job.checkpoint += float64(n) * ckptIv
					job.lost += spent - float64(n)*segment
					job.kills++
					queue = append(queue, ms.jobIdx)
					ms.jobIdx = -1
				}
			}
			// Admit arrivals.
			for nextArrival < len(table) && !table[nextArrival].spec.Arrival.After(now) {
				queue = append(queue, nextArrival)
				nextArrival++
			}
			// Place queued jobs, FIFO.
			for len(queue) > 0 {
				if !place(queue[0]) {
					break
				}
				queue = queue[1:]
			}
		}
	}

	// Collect results.
	res := Result{Policy: cfg.Policy}
	var responses []float64
	for _, job := range table {
		jr := JobResult{JobSpec: job.spec, Completed: job.done, Kills: job.kills,
			LostCompute: time.Duration(job.lost * float64(time.Second)), Checkpoints: job.ckpts, Machines: job.machines}
		if job.done {
			jr.Response = job.doneAt.Sub(job.spec.Arrival)
			responses = append(responses, jr.Response.Seconds())
			res.CompletedJobs++
		}
		res.TotalKills += job.kills
		res.TotalCheckpoints += job.ckpts
		res.TotalLost += time.Duration(job.lost * float64(time.Second))
		res.Jobs = append(res.Jobs, jr)
	}
	if len(responses) > 0 {
		sum := 0.0
		for _, v := range responses {
			sum += v
		}
		res.MeanResponse = time.Duration(sum / float64(len(responses)) * float64(time.Second))
		sort.Float64s(responses)
		idx := int(0.95 * float64(len(responses)-1))
		res.P95Response = time.Duration(responses[idx] * float64(time.Second))
	}
	return res, nil
}

// PoissonJobs draws a job stream: arrivals uniform over the working hours of
// the simulated span, lognormal work (median ~1.5 h), working sets in the
// SPEC range of the paper.
func PoissonJobs(n int, ds *trace.Dataset, startDay int, seed uint64) ([]JobSpec, error) {
	if ds == nil || len(ds.Machines) == 0 {
		return nil, fmt.Errorf("fgcssim: empty dataset")
	}
	days := len(ds.Machines[0].Days)
	if startDay < 0 || startDay >= days {
		return nil, fmt.Errorf("fgcssim: start day out of range")
	}
	r := rng.New(seed)
	jobs := make([]JobSpec, n)
	for i := range jobs {
		day := startDay + r.Intn(days-startDay)
		// Arrive during working hours so jobs do not trivially run on
		// empty overnight machines.
		offset := time.Duration(r.Uniform(8, 17) * float64(time.Hour))
		work := time.Duration(r.LogNormal(8.6, 0.5) * float64(time.Second)) // median ~90 min
		if work > 6*time.Hour {
			work = 6 * time.Hour
		}
		if work < 10*time.Minute {
			work = 10 * time.Minute
		}
		jobs[i] = JobSpec{
			ID:      fmt.Sprintf("job-%03d", i),
			Arrival: ds.Machines[0].Days[day].Date.Add(offset),
			Work:    work,
			MemMB:   r.Uniform(29, 193),
		}
	}
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].Arrival.Before(jobs[b].Arrival) })
	return jobs, nil
}
