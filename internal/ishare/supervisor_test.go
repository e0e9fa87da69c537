package ishare

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/simclock"
	"fgcs/internal/trace"
)

// supervisedPair builds two gateways on a shared virtual clock: "good"
// (clean history) and "bad" (fails daily at 9:00, so it ranks below).
func supervisedPair(t *testing.T, clock *simclock.Virtual) (good, bad *Gateway) {
	t.Helper()
	mk := func(id string, failHour int) *Gateway {
		sm, err := NewStateManager(id, period, avail.DefaultConfig(), clock, historyMachine(id, 11, failHour), 0)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGateway(id, avail.DefaultConfig(), period, clock, sm)
		if err != nil {
			t.Fatal(err)
		}
		g.Record(clock.Now(), sample(5, 400))
		return g
	}
	return mk("good", -1), mk("bad", 9)
}

// drive advances the virtual clock and concurrently feeds samples into the
// gateways so the supervisor's polling loop makes progress.
func drive(t *testing.T, clock *simclock.Virtual, done <-chan struct{}, feedFn func(now time.Time)) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case <-done:
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Error("supervised run did not finish")
			return
		}
		feedFn(clock.Now())
		clock.Advance(period)
		time.Sleep(50 * time.Microsecond)
	}
}

func TestSupervisorCompletesOnHealthyMachine(t *testing.T) {
	now := time.Date(2005, 9, 2, 8, 0, 0, 0, time.UTC)
	clock := simclock.NewVirtual(now)
	good, bad := supervisedPair(t, clock)
	sv := &Supervisor{
		Sched: &Scheduler{Candidates: []Candidate{
			{MachineID: "good", API: good},
			{MachineID: "bad", API: bad},
		}},
		Clock:        clock,
		PollInterval: period,
	}
	var run JobRun
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		run, err = sv.Run(context.Background(), SubmitReq{Name: "job", WorkSeconds: 120, MemMB: 50})
	}()
	drive(t, clock, done, func(now time.Time) {
		good.Record(now, sample(5, 400))
		bad.Record(now, sample(5, 400))
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Final.State != "completed" || run.Migrations != 0 {
		t.Fatalf("run = %+v", run)
	}
	if len(run.Placements) != 1 || run.Placements[0].MachineID != "good" {
		t.Fatalf("placements = %+v", run.Placements)
	}
}

func TestSupervisorMigratesAfterKill(t *testing.T) {
	now := time.Date(2005, 9, 2, 8, 0, 0, 0, time.UTC)
	clock := simclock.NewVirtual(now)
	good, bad := supervisedPair(t, clock)
	// Force the first placement onto "good"... then crash it mid-job so
	// the supervisor must migrate to "bad".
	sv := &Supervisor{
		Sched: &Scheduler{Candidates: []Candidate{
			{MachineID: "good", API: good},
			{MachineID: "bad", API: bad},
		}},
		Clock:        clock,
		PollInterval: period,
	}
	var run JobRun
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		run, err = sv.Run(context.Background(), SubmitReq{Name: "job", WorkSeconds: 600, MemMB: 50})
	}()
	var mu sync.Mutex
	killed := false
	drive(t, clock, done, func(now time.Time) {
		mu.Lock()
		defer mu.Unlock()
		// Crash "good" once its job is underway.
		if !killed && now.Sub(clock.Now()) == 0 {
			if st, err := good.JobStatus(context.Background(), JobStatusReq{JobID: "good-job-1"}); err == nil &&
				st.State == "running" && st.ProgressSeconds > 60 {
				good.Record(now, trace.Sample{Up: false})
				killed = true
				return
			}
		}
		good.Record(now, sample(5, 400))
		bad.Record(now, sample(5, 400))
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Final.State != "completed" {
		t.Fatalf("final = %+v", run.Final)
	}
	if run.Migrations != 1 || len(run.Placements) != 2 {
		t.Fatalf("run = %+v", run)
	}
	if run.Placements[0].MachineID != "good" || run.Placements[0].Outcome != "killed" {
		t.Fatalf("first placement = %+v", run.Placements[0])
	}
	if !strings.Contains(run.Placements[0].Reason, "S5") {
		t.Fatalf("kill reason = %q", run.Placements[0].Reason)
	}
	if run.Placements[1].MachineID != "bad" || run.Placements[1].Outcome != "completed" {
		t.Fatalf("second placement = %+v", run.Placements[1])
	}
	// Progress carried over: the second machine resumed, not restarted —
	// its job finished with full work recorded.
	if run.Final.ProgressSeconds != run.Final.WorkSeconds {
		t.Fatalf("final progress = %v/%v", run.Final.ProgressSeconds, run.Final.WorkSeconds)
	}
}

func TestSupervisorGivesUpAfterBudget(t *testing.T) {
	now := time.Date(2005, 9, 2, 8, 0, 0, 0, time.UTC)
	clock := simclock.NewVirtual(now)
	good, _ := supervisedPair(t, clock)
	sv := &Supervisor{
		Sched:         &Scheduler{Candidates: []Candidate{{MachineID: "good", API: good}}},
		Clock:         clock,
		PollInterval:  period,
		MaxMigrations: intp(1),
	}
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err = sv.Run(context.Background(), SubmitReq{Name: "job", WorkSeconds: 600, MemMB: 50})
	}()
	drive(t, clock, done, func(now time.Time) {
		// Permanently overloaded: every placement dies.
		good.Record(now, sample(95, 400))
	})
	if err == nil || !strings.Contains(err.Error(), "migration budget") {
		t.Fatalf("err = %v, want migration budget exhaustion", err)
	}
}

func TestSupervisorValidation(t *testing.T) {
	sv := &Supervisor{}
	if _, err := sv.Run(context.Background(), SubmitReq{Name: "x", WorkSeconds: 1}); err == nil {
		t.Fatal("nil scheduler accepted")
	}
}

func intp(v int) *int { return &v }

// TestSupervisorDefaults pins the zero-value semantics of MaxMigrations:
// nil means "default", pointer-to-zero means zero. This is the regression
// test for the old int field, whose zero value was silently remapped to 5.
func TestSupervisorDefaults(t *testing.T) {
	_, poll, max := (&Supervisor{}).defaults()
	if poll != 6*time.Second || max != 5 {
		t.Fatalf("nil defaults = (poll %v, max %d), want (6s, 5)", poll, max)
	}
	if _, _, max = (&Supervisor{MaxMigrations: intp(0)}).defaults(); max != 0 {
		t.Fatalf("explicit zero = %d, want 0", max)
	}
	if _, _, max = (&Supervisor{MaxMigrations: intp(-1)}).defaults(); max != 5 {
		t.Fatalf("out-of-range = %d, want the default 5", max)
	}
}

// TestSupervisorZeroMigrationsMeansNoRecovery proves MaxMigrations:
// a pointer to 0 disables migration entirely — the first kill is terminal.
func TestSupervisorZeroMigrationsMeansNoRecovery(t *testing.T) {
	now := time.Date(2005, 9, 2, 8, 0, 0, 0, time.UTC)
	clock := simclock.NewVirtual(now)
	good, _ := supervisedPair(t, clock)
	sv := &Supervisor{
		Sched:         &Scheduler{Candidates: []Candidate{{MachineID: "good", API: good}}},
		Clock:         clock,
		PollInterval:  period,
		MaxMigrations: intp(0),
	}
	var run JobRun
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		run, err = sv.Run(context.Background(), SubmitReq{Name: "job", WorkSeconds: 600, MemMB: 50})
	}()
	drive(t, clock, done, func(now time.Time) {
		good.Record(now, sample(95, 400)) // permanently overloaded: dies fast
	})
	if err == nil || !strings.Contains(err.Error(), "migration budget") {
		t.Fatalf("err = %v, want immediate budget exhaustion", err)
	}
	if run.Migrations != 0 || len(run.Placements) != 1 {
		t.Fatalf("run = %+v, want exactly one placement and zero migrations", run)
	}
}

// downableAPI wraps a gateway; once down it fails every call with a
// transport error, modelling a partitioned machine. failFrom counts
// JobStatus polls: the Nth poll (1-based) and everything after it fail,
// until failFor polls have failed.
var errInjectedUnreachable = fmt.Errorf("machine unreachable")

type downableAPI struct {
	GatewayAPI
	mu       sync.Mutex
	polls    int
	failFrom int
	failFor  int
}

func (d *downableAPI) down() bool {
	return d.polls >= d.failFrom && d.polls < d.failFrom+d.failFor
}

func (d *downableAPI) JobStatus(ctx context.Context, req JobStatusReq) (JobStatusResp, error) {
	d.mu.Lock()
	d.polls++
	bad := d.down()
	d.mu.Unlock()
	if bad {
		return JobStatusResp{}, &transportError{errInjectedUnreachable}
	}
	return d.GatewayAPI.JobStatus(context.Background(), req)
}

func (d *downableAPI) QueryTR(ctx context.Context, req QueryTRReq) (QueryTRResp, error) {
	d.mu.Lock()
	bad := d.down()
	d.mu.Unlock()
	if bad {
		return QueryTRResp{}, &transportError{errInjectedUnreachable}
	}
	return d.GatewayAPI.QueryTR(context.Background(), req)
}

func (d *downableAPI) Submit(ctx context.Context, req SubmitReq) (SubmitResp, error) {
	d.mu.Lock()
	bad := d.down()
	d.mu.Unlock()
	if bad {
		return SubmitResp{}, &transportError{errInjectedUnreachable}
	}
	return d.GatewayAPI.Submit(context.Background(), req)
}

// TestSupervisorGraceForgivesTransientFlakes: two failed polls inside a
// three-poll grace window are forgiven; the job completes in one placement
// with the flakes counted.
func TestSupervisorGraceForgivesTransientFlakes(t *testing.T) {
	now := time.Date(2005, 9, 2, 8, 0, 0, 0, time.UTC)
	clock := simclock.NewVirtual(now)
	good, _ := supervisedPair(t, clock)
	flaky := &downableAPI{GatewayAPI: good, failFrom: 3, failFor: 2}
	sv := &Supervisor{
		Sched:            &Scheduler{Candidates: []Candidate{{MachineID: "good", API: flaky}}},
		Clock:            clock,
		PollInterval:     period,
		UnreachableGrace: 3 * period,
	}
	var run JobRun
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		run, err = sv.Run(context.Background(), SubmitReq{Name: "job", WorkSeconds: 120, MemMB: 50})
	}()
	drive(t, clock, done, func(now time.Time) {
		good.Record(now, sample(5, 400))
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Final.State != "completed" || run.Migrations != 0 || len(run.Placements) != 1 {
		t.Fatalf("run = %+v, want completion in one placement", run)
	}
	if run.TransientErrors != 2 {
		t.Fatalf("TransientErrors = %d, want 2", run.TransientErrors)
	}
}

// TestSupervisorSustainedUnreachabilityMigrates: when polls keep failing
// past the grace window the machine is declared unreachable (URR) and the
// job migrates with its last known progress.
func TestSupervisorSustainedUnreachabilityMigrates(t *testing.T) {
	now := time.Date(2005, 9, 2, 8, 0, 0, 0, time.UTC)
	clock := simclock.NewVirtual(now)
	good, bad := supervisedPair(t, clock)
	// "good" ranks first, then partitions forever after its 3rd poll.
	parted := &downableAPI{GatewayAPI: good, failFrom: 3, failFor: 1 << 30}
	sv := &Supervisor{
		Sched: &Scheduler{Candidates: []Candidate{
			{MachineID: "good", API: parted},
			{MachineID: "bad", API: bad},
		}},
		Clock:            clock,
		PollInterval:     period,
		UnreachableGrace: 2 * period,
	}
	var run JobRun
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		run, err = sv.Run(context.Background(), SubmitReq{Name: "job", WorkSeconds: 300, MemMB: 50})
	}()
	drive(t, clock, done, func(now time.Time) {
		good.Record(now, sample(5, 400))
		bad.Record(now, sample(5, 400))
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Final.State != "completed" || run.Migrations != 1 || len(run.Placements) != 2 {
		t.Fatalf("run = %+v, want one URR migration", run)
	}
	if run.Placements[0].MachineID != "good" || !strings.Contains(run.Placements[0].Reason, "URR") {
		t.Fatalf("first placement = %+v, want URR kill on good", run.Placements[0])
	}
	if run.Placements[1].MachineID != "bad" || run.Placements[1].Outcome != "completed" {
		t.Fatalf("second placement = %+v", run.Placements[1])
	}
	// The first failed poll was inside the grace window and forgiven.
	if run.TransientErrors != 1 {
		t.Fatalf("TransientErrors = %d, want 1", run.TransientErrors)
	}
}

// recordingAPI is a scripted GatewayAPI: it answers every TR query with tr
// and records the length it was asked about, accepts every submit and
// records its checkpoint, and reports the statuses in order, one per poll.
type recordingAPI struct {
	GatewayAPI // Kill is never called
	tr         float64
	statuses   []JobStatusResp
	queried    []float64
	resumed    []float64
}

func (r *recordingAPI) QueryTR(_ context.Context, req QueryTRReq) (QueryTRResp, error) {
	r.queried = append(r.queried, req.LengthSeconds)
	return QueryTRResp{TR: r.tr, CurrentState: "S1"}, nil
}

func (r *recordingAPI) Submit(_ context.Context, req SubmitReq) (SubmitResp, error) {
	r.resumed = append(r.resumed, req.InitialProgressSeconds)
	return SubmitResp{JobID: fmt.Sprintf("job-%d", len(r.resumed))}, nil
}

func (r *recordingAPI) JobStatus(_ context.Context, req JobStatusReq) (JobStatusResp, error) {
	st := r.statuses[0]
	r.statuses = r.statuses[1:]
	st.JobID = req.JobID
	return st, nil
}

// TestSupervisorRanksMigrationOverRemainingWork: a job killed 400 s into
// 1000 s of work is re-placed with its checkpoint, so the second ranking must
// ask every machine about the 600 s that are left, not the full length.
func TestSupervisorRanksMigrationOverRemainingWork(t *testing.T) {
	first := &recordingAPI{tr: 0.9, statuses: []JobStatusResp{
		{State: "killed", Reason: "host CPU load steadily above Th2 (UEC, S3)", ProgressSeconds: 400, WorkSeconds: 1000},
		{State: "completed", ProgressSeconds: 1000, WorkSeconds: 1000},
	}}
	second := &recordingAPI{tr: 0.5}
	sched := &Scheduler{Candidates: []Candidate{{MachineID: "first", API: first}, {MachineID: "second", API: second}}}
	sv := &Supervisor{Sched: sched, Clock: &stepClock{now: time.Date(2005, 9, 2, 8, 0, 0, 0, time.UTC)}, PollInterval: period}
	run, err := sv.Run(context.Background(), SubmitReq{Name: "job", WorkSeconds: 1000, MemMB: 50})
	if err != nil {
		t.Fatal(err)
	}
	if run.Final.State != "completed" || run.Migrations != 1 {
		t.Fatalf("run = %+v, want one migration to completion", run)
	}
	for _, api := range []*recordingAPI{first, second} {
		if len(api.queried) != 2 || api.queried[0] != 1000 || api.queried[1] != 600 {
			t.Fatalf("query-tr lengths = %v, want [1000 600]", api.queried)
		}
	}
	if len(first.resumed) != 2 || first.resumed[1] != 400 {
		t.Fatalf("submitted checkpoints = %v, want [0 400]", first.resumed)
	}

	// A checkpoint no gateway's Submit would admit fails before any query.
	for _, bad := range []SubmitReq{
		{WorkSeconds: 100, InitialProgressSeconds: 100},
		{WorkSeconds: 100, InitialProgressSeconds: -1},
		{WorkSeconds: 0},
	} {
		if _, _, err := sched.Rank(context.Background(), bad); err == nil {
			t.Errorf("Scheduler.Rank accepted %+v", bad)
		}
	}
	if len(first.queried) != 2 {
		t.Fatalf("out-of-range checkpoints were queried: %v", first.queried)
	}
}
