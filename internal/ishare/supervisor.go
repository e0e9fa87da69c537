package ishare

import (
	"context"
	"fmt"
	"time"

	"fgcs/internal/otrace"
	"fgcs/internal/simclock"
)

// Supervisor drives a guest job to completion across machine failures: it
// places the job on the most reliable machine, polls its status, and on an
// unrecoverable failure migrates the job — resuming from its checkpointed
// progress — to the next-best machine. This closes the loop the paper
// motivates: prediction-driven placement plus checkpoint-based migration
// (Sections 1 and 5.1).
type Supervisor struct {
	// Sched ranks and submits.
	Sched *Scheduler
	// Clock paces the polling; defaults to the wall clock.
	Clock simclock.Clock
	// PollInterval defaults to the monitoring period (6 s).
	PollInterval time.Duration
	// MaxMigrations bounds recovery attempts. nil defaults to 5; a
	// pointer to 0 means "never migrate" — the pointer form exists
	// precisely so zero is expressible.
	MaxMigrations *int
	// UnreachableGrace distinguishes a network flake from a revoked
	// machine: JobStatus transport failures are tolerated until they
	// persist for this long, and only then is the machine declared
	// unreachable (URR) and the job migrated. 0 keeps the strict
	// behavior: the first failed poll migrates.
	UnreachableGrace time.Duration
}

// Placement records one stop of a supervised job.
type Placement struct {
	MachineID string
	JobID     string
	// TR is the predicted reliability at submission.
	TR float64
	// Outcome is the terminal status on this machine ("completed",
	// "killed", or "abandoned" if the supervisor gave up while running).
	Outcome string
	Reason  string
}

// JobRun is the outcome of a supervised execution.
type JobRun struct {
	Placements []Placement
	// Final is the last observed status.
	Final JobStatusResp
	// Migrations counts recoveries after kills.
	Migrations int
	// TransientErrors counts status polls that failed but were forgiven
	// within the unreachable-grace window.
	TransientErrors int
}

func (sv *Supervisor) defaults() (simclock.Clock, time.Duration, int) {
	clock := sv.Clock
	if clock == nil {
		clock = simclock.Real{}
	}
	poll := sv.PollInterval
	if poll <= 0 {
		poll = 6 * time.Second
	}
	max := 5
	if sv.MaxMigrations != nil && *sv.MaxMigrations >= 0 {
		max = *sv.MaxMigrations
	}
	return clock, poll, max
}

// Run submits the job and supervises it to completion (or until the
// migration budget is exhausted). It blocks; pace it with a virtual clock in
// simulations. Each placement (initial submit or migration) runs in a
// "supervisor.place" child span of ctx's active span, so a recorded trace of
// a supervised job shows every machine it touched and why it moved.
func (sv *Supervisor) Run(ctx context.Context, job SubmitReq) (JobRun, error) {
	if sv.Sched == nil {
		return JobRun{}, fmt.Errorf("ishare: supervisor needs a scheduler")
	}
	clock, poll, maxMig := sv.defaults()
	var run JobRun
	progress := job.InitialProgressSeconds
	for attempt := 0; ; attempt++ {
		job.InitialProgressSeconds = progress
		pctx, pspan := otrace.StartSpan(ctx, "supervisor.place")
		if pspan != nil {
			pspan.SetAttr(otrace.Int("placement", attempt+1))
		}
		ranked, resp, err := sv.Sched.SubmitBest(pctx, job)
		if err != nil {
			pspan.SetError(err)
			pspan.End()
			return run, fmt.Errorf("ishare: placement %d failed: %w", attempt+1, err)
		}
		if pspan != nil {
			pspan.SetAttr(otrace.String("machine", ranked.MachineID))
		}
		pspan.End()
		placement := Placement{MachineID: ranked.MachineID, JobID: resp.JobID, TR: ranked.TR}
		var unreachableFor time.Duration
		for {
			clock.Sleep(poll)
			st, err := ranked.API.JobStatus(ctx, JobStatusReq{JobID: resp.JobID})
			if err != nil {
				// Distinguish a transient flake from sustained
				// unreachability: only the latter is a revocation.
				unreachableFor += poll
				if unreachableFor < sv.UnreachableGrace {
					run.TransientErrors++
					continue
				}
				// The machine vanished (URR): treat as a kill with the
				// last known progress.
				st = JobStatusResp{JobID: resp.JobID, State: "killed", Reason: "gateway unreachable (URR)",
					ProgressSeconds: progress, WorkSeconds: job.WorkSeconds}
			} else {
				unreachableFor = 0
			}
			run.Final = st
			switch st.State {
			case "completed":
				placement.Outcome = "completed"
				run.Placements = append(run.Placements, placement)
				return run, nil
			case "killed":
				placement.Outcome = "killed"
				placement.Reason = st.Reason
				run.Placements = append(run.Placements, placement)
				// Checkpoint-on-kill always succeeds (the paper's migration
				// scenario): resume from the progress at the kill.
				progress = st.ProgressSeconds
				if progress >= job.WorkSeconds {
					progress = job.WorkSeconds * 0.999
				}
				if attempt+1 > maxMig {
					return run, fmt.Errorf("ishare: job killed %d times, migration budget exhausted", attempt+1)
				}
				run.Migrations++
			default:
				if st.ProgressSeconds > progress {
					progress = st.ProgressSeconds
				}
				continue
			}
			break // killed: re-place
		}
	}
}
