package ishare

import (
	"context"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/faultnet"
	"fgcs/internal/trace"
)

// stepClock drives the chaos testbed. The supervisor's poll loop is the only
// sleeper: each Sleep synchronously runs one step of the chaos schedule —
// advance virtual time, apply scheduled partitions and crashes, feed every
// gateway one monitoring sample. Because the whole run is then a single
// thread of control (supervisor RPC → step → RPC → ...), every dial hits the
// fault network in the same order on every run, which is what makes the
// fault schedule and the decision trace byte-reproducible.
type stepClock struct {
	mu   sync.Mutex
	now  time.Time
	step int
	hook func(step int, now time.Time)
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After returns a never-firing channel: nothing in the chaos testbed waits
// on timers, and an accidental waiter should hang visibly rather than spin.
func (c *stepClock) After(d time.Duration) <-chan time.Time {
	return make(chan time.Time)
}

func (c *stepClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.step++
	c.now = c.now.Add(d)
	step, now, hook := c.step, c.now, c.hook
	c.mu.Unlock()
	if hook != nil {
		hook(step, now)
	}
}

// chaosResult captures everything that must be identical across two runs
// with the same seed. While m1 is partitioned every dial to it is refused
// without a draw, and how many such dials the client's real-time retry
// backoff fits in before the supervisor gives up is wall-clock pacing, not a
// seeded decision: trace holds each run of consecutive partition refusals
// of one address as one line, and dialFails counts the seeded refusals only.
type chaosResult struct {
	run        JobRun
	err        error
	trace      []string
	dialFails  int
	transients int
}

// partitionRefusalRE matches the fault network's trace line for a dial
// refused by a partition, capturing the address.
var partitionRefusalRE = regexp.MustCompile(`^dial (\S+) #\d+: partitioned$`)

// seededTrace collapses each run of consecutive partition refusals of one
// address into a single line; it returns the collapsed trace and the number
// of partition refusals it saw.
func seededTrace(trace []string) (out []string, partitionRefusals int) {
	for _, line := range trace {
		if m := partitionRefusalRE.FindStringSubmatch(line); m != nil {
			partitionRefusals++
			line = "dial " + m[1] + ": partitioned"
			if len(out) > 0 && out[len(out)-1] == line {
				continue
			}
		}
		out = append(out, line)
	}
	return out, partitionRefusals
}

// runChaosOnce brings up a five-machine iShare testbed on an in-memory
// network whose every client RPC rides a seeded fault plan (25% dial
// refusals plus mid-stream resets, partial writes and corruption), and
// supervises one job through a scripted outage timeline:
//
//	step  8: m1 (hosting the job) is partitioned — polls fail until the
//	         grace window expires, then the supervisor migrates (URR).
//	step 16: m2 (the new host) is revoked by its owner (down samples) —
//	         the gateway kills the guest (S5) and the supervisor migrates
//	         again, onto m3.
//	step 24: m1 heals (visible in the trace; the breaker keeps it benched).
//
// All faults are drawn from the seed; each gateway is registered under its
// machine name, so the schedule is keyed by names that are the same on
// every run.
// With binary set, the client rides pooled multiplexed binary connections
// through the same fault network (partitions sever the pooled connections);
// otherwise it uses the JSON dial-per-RPC compat path.
func runChaosOnce(t *testing.T, seed uint64, binary bool) chaosResult {
	t.Helper()
	start := time.Date(2005, 9, 2, 8, 30, 0, 0, time.UTC)
	fn := faultnet.New(seed, faultnet.Config{
		DialFailProb:     0.25,
		ResetProb:        0.10,
		PartialWriteProb: 0.05,
		CorruptProb:      0.05,
	})
	clock := &stepClock{now: start}
	caller := &Caller{
		Dialer: fn,
		// Tight real-time backoff: the virtual clock cannot pace retries
		// because nothing advances it while an RPC is in flight.
		Retry:      RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
		JitterSeed: seed + 1,
	}
	if binary {
		pool := &Pool{Dialer: fn}
		defer pool.Close()
		caller.Pool = pool
	}

	const machines = 5
	gws := make([]*Gateway, machines)
	for i := 0; i < machines; i++ {
		id := fmt.Sprintf("m%d", i+1)
		sm, err := NewStateManager(id, period, avail.DefaultConfig(), clock, historyMachine(id, 11, -1), 0)
		if err != nil {
			t.Fatal(err)
		}
		gw, err := NewGateway(id, avail.DefaultConfig(), period, clock, sm)
		if err != nil {
			t.Fatal(err)
		}
		gw.Record(start, sample(5, 400))
		gws[i] = gw
	}
	sched := &Scheduler{
		Breakers: NewBreakerSet(BreakerConfig{Threshold: 1, Cooldown: time.Hour}, clock),
	}
	for i, gw := range gws {
		id := fmt.Sprintf("m%d", i+1)
		fn.Handle(id, memServe(gw.Handler()))
		sched.Candidates = append(sched.Candidates, Candidate{
			MachineID: id,
			API:       RemoteGateway{Addr: id, Timeout: 2 * time.Second, Caller: caller},
		})
	}

	const (
		partitionStep = 8
		crashStep     = 16
		healStep      = 24
	)
	clock.hook = func(step int, now time.Time) {
		switch step {
		case partitionStep:
			fn.Partition("m1")
		case healStep:
			fn.Heal("m1")
		}
		for i, gw := range gws {
			s := sample(5, 400)
			if i == 1 && step >= crashStep {
				s = trace.Sample{Up: false}
			}
			gw.Record(now, s)
		}
	}

	sv := &Supervisor{
		Sched:            sched,
		Clock:            clock,
		PollInterval:     period,
		UnreachableGrace: 3 * period,
	}
	run, err := sv.Run(context.Background(), SubmitReq{Name: "chaos-job", WorkSeconds: 300, MemMB: 50})
	trace, partitionRefusals := seededTrace(fn.Trace())
	return chaosResult{
		run:        run,
		err:        err,
		trace:      trace,
		dialFails:  fn.DialFailures() - partitionRefusals,
		transients: run.TransientErrors,
	}
}

// TestChaosJobSurvivesPartitionsAndCrashes is the acceptance test for the
// fault-tolerance stack: under sustained dial failures, stream faults, a
// network partition and a machine revocation, the supervised job still
// completes — by migrating twice — and the entire failure schedule is
// byte-deterministic: a second run with the same seed reproduces the same
// fault trace and the same placements.
func TestChaosJobSurvivesPartitionsAndCrashes(t *testing.T) {
	const seed = 7
	a := runChaosOnce(t, seed, false)
	if a.err != nil {
		t.Fatalf("chaos run failed: %v\nplacements: %+v", a.err, a.run.Placements)
	}
	if a.run.Final.State != "completed" {
		t.Fatalf("job did not complete: final = %+v", a.run.Final)
	}
	if a.run.Migrations != 2 || len(a.run.Placements) != 3 {
		t.Fatalf("migrations = %d, placements = %+v; want 2 migrations over 3 placements",
			a.run.Migrations, a.run.Placements)
	}
	p := a.run.Placements
	if p[0].MachineID != "m1" || p[0].Outcome != "killed" || !strings.Contains(p[0].Reason, "unreachable") {
		t.Fatalf("placement 0 = %+v, want URR kill on partitioned m1", p[0])
	}
	if p[1].MachineID != "m2" || p[1].Outcome != "killed" || !strings.Contains(p[1].Reason, "S5") {
		t.Fatalf("placement 1 = %+v, want S5 revocation kill on m2", p[1])
	}
	if p[2].MachineID != "m3" || p[2].Outcome != "completed" {
		t.Fatalf("placement 2 = %+v, want completion on m3", p[2])
	}
	// The run resumed from checkpoints: the final machine reported full
	// work done even though it only executed the tail.
	if a.run.Final.ProgressSeconds != a.run.Final.WorkSeconds {
		t.Fatalf("final progress = %v/%v", a.run.Final.ProgressSeconds, a.run.Final.WorkSeconds)
	}
	// The network actually hurt: injected dial failures beyond the
	// partition refusals alone, and at least the two scheduled partition
	// events in the trace.
	if a.dialFails < 10 {
		t.Fatalf("only %d injected dial failures; the fault layer barely fired", a.dialFails)
	}
	joined := strings.Join(a.trace, "\n")
	if !strings.Contains(joined, "partition m1") || !strings.Contains(joined, "heal m1") {
		t.Fatalf("trace missing partition lifecycle:\n%s", joined)
	}
	if !strings.Contains(joined, "refused") {
		t.Fatalf("trace has no random dial refusals:\n%s", joined)
	}
	// URR grace: the two polls inside the grace window were forgiven
	// before the third declared the machine gone.
	if a.transients < 2 {
		t.Fatalf("TransientErrors = %d, want >= 2 (grace-window forgiveness)", a.transients)
	}

	// Determinism: an identical seed reproduces the identical run.
	b := runChaosOnce(t, seed, false)
	if b.err != nil {
		t.Fatalf("second chaos run failed: %v", b.err)
	}
	if !reflect.DeepEqual(a.trace, b.trace) {
		t.Fatalf("fault traces differ between identical seeds:\n--- run A ---\n%s\n--- run B ---\n%s",
			joined, strings.Join(b.trace, "\n"))
	}
	if !reflect.DeepEqual(a.run.Placements, b.run.Placements) {
		t.Fatalf("placements differ: %+v vs %+v", a.run.Placements, b.run.Placements)
	}
	if a.dialFails != b.dialFails || a.transients != b.transients {
		t.Fatalf("fault counts differ: dials %d/%d, transients %d/%d",
			a.dialFails, b.dialFails, a.transients, b.transients)
	}
	// A different seed draws a different schedule (sanity check that the
	// seed is actually load-bearing).
	c := runChaosOnce(t, seed+1, false)
	if c.err == nil && reflect.DeepEqual(a.trace, c.trace) {
		t.Fatal("different seeds produced identical fault traces")
	}
}

// TestChaosJobSurvivesBinaryTransport runs the same scripted outage timeline
// over pooled multiplexed binary connections: the partition must sever the
// live pooled connection to m1 (not just block fresh dials), the job must
// still migrate to completion, and the whole run — fault trace and
// placements — must stay byte-deterministic under a fixed seed.
func TestChaosJobSurvivesBinaryTransport(t *testing.T) {
	const seed = 7
	a := runChaosOnce(t, seed, true)
	if a.err != nil {
		t.Fatalf("binary chaos run failed: %v\nplacements: %+v", a.err, a.run.Placements)
	}
	if a.run.Final.State != "completed" {
		t.Fatalf("job did not complete: final = %+v", a.run.Final)
	}
	if a.run.Migrations < 1 {
		t.Fatalf("job never migrated under partition+revocation: placements = %+v", a.run.Placements)
	}
	p := a.run.Placements
	if p[0].MachineID != "m1" || p[0].Outcome != "killed" {
		t.Fatalf("placement 0 = %+v, want kill on partitioned m1", p[0])
	}
	if last := p[len(p)-1]; last.Outcome != "completed" {
		t.Fatalf("final placement = %+v, want completion", last)
	}
	if a.run.Final.ProgressSeconds != a.run.Final.WorkSeconds {
		t.Fatalf("final progress = %v/%v", a.run.Final.ProgressSeconds, a.run.Final.WorkSeconds)
	}
	joined := strings.Join(a.trace, "\n")
	if !strings.Contains(joined, "partition m1") || !strings.Contains(joined, "heal m1") {
		t.Fatalf("trace missing partition lifecycle:\n%s", joined)
	}

	// Determinism: an identical seed reproduces the identical run over the
	// pooled transport too.
	b := runChaosOnce(t, seed, true)
	if b.err != nil {
		t.Fatalf("second binary chaos run failed: %v", b.err)
	}
	if !reflect.DeepEqual(a.trace, b.trace) {
		t.Fatalf("fault traces differ between identical seeds:\n--- run A ---\n%s\n--- run B ---\n%s",
			joined, strings.Join(b.trace, "\n"))
	}
	if !reflect.DeepEqual(a.run.Placements, b.run.Placements) {
		t.Fatalf("placements differ: %+v vs %+v", a.run.Placements, b.run.Placements)
	}
	if a.dialFails != b.dialFails || a.transients != b.transients {
		t.Fatalf("fault counts differ: dials %d/%d, transients %d/%d",
			a.dialFails, b.dialFails, a.transients, b.transients)
	}
}
