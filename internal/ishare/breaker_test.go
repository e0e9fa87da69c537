package ishare

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/simclock"
)

func TestBreakerLifecycle(t *testing.T) {
	clock := simclock.NewVirtual(monday)
	bs := NewBreakerSet(BreakerConfig{Threshold: 3, Cooldown: time.Minute}, clock)
	id := "lab-01"
	fail := errors.New("flake")

	if bs.state(id) != breakerClosed {
		t.Fatalf("initial state = %v", bs.state(id))
	}
	// Two failures: still closed.
	for i := 0; i < 2; i++ {
		if !bs.allow(id) {
			t.Fatalf("closed breaker denied request %d", i)
		}
		bs.report(id, fail)
	}
	if bs.state(id) != breakerClosed {
		t.Fatalf("state after 2 failures = %v", bs.state(id))
	}
	// A success resets the consecutive count.
	bs.allow(id)
	bs.report(id, nil)
	for i := 0; i < 2; i++ {
		bs.allow(id)
		bs.report(id, fail)
	}
	if bs.state(id) != breakerClosed {
		t.Fatalf("state = %v: success did not reset the failure count", bs.state(id))
	}
	// Third consecutive failure opens it.
	bs.allow(id)
	bs.report(id, fail)
	if bs.state(id) != breakerOpen {
		t.Fatalf("state after threshold = %v, want open", bs.state(id))
	}
	if bs.allow(id) {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}
	// Cooldown elapses: exactly one half-open probe is admitted.
	clock.Advance(time.Minute)
	if !bs.allow(id) {
		t.Fatal("half-open breaker denied the probe")
	}
	if bs.allow(id) {
		t.Fatal("second concurrent probe admitted while one is in flight")
	}
	// Probe fails: open again, fresh cooldown.
	bs.report(id, fail)
	if bs.state(id) != breakerOpen || bs.allow(id) {
		t.Fatal("failed probe did not re-open the breaker")
	}
	// Next cooldown, successful probe: closed.
	clock.Advance(time.Minute)
	if !bs.allow(id) {
		t.Fatal("probe denied after second cooldown")
	}
	bs.report(id, nil)
	if bs.state(id) != breakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", bs.state(id))
	}
	if !bs.allow(id) {
		t.Fatal("closed breaker denied traffic")
	}
}

func TestInstrumentBreakers(t *testing.T) {
	clock := simclock.NewVirtual(monday)
	bs := NewBreakerSet(BreakerConfig{Threshold: 1, Cooldown: time.Minute}, clock)
	o := NewNodeObs()
	o.instrumentBreakers(bs)
	fail := errors.New("flake")

	// Trip two machines, recover one.
	for _, id := range []string{"m1", "m2"} {
		bs.allow(id)
		bs.report(id, fail)
	}
	clock.Advance(time.Minute)
	bs.allow("m1") // half-open probe
	bs.report("m1", nil)

	var text strings.Builder
	if err := o.Registry.Snapshot().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`fgcs_breaker_transitions_total{to="open"} 2`,
		`fgcs_breaker_transitions_total{to="half-open"} 1`,
		`fgcs_breaker_transitions_total{to="closed"} 1`,
		"fgcs_breaker_open 1",
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, text.String())
		}
	}
}

func TestBreakerStateString(t *testing.T) {
	for s, want := range map[breakerState]string{
		breakerClosed: "closed", breakerOpen: "open", breakerHalfOpen: "half-open",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", int(s), s.String())
		}
	}
}

// failingAPI is a GatewayAPI stub whose QueryTR always fails with a
// transport error; it counts invocations.
type failingAPI struct {
	mu    sync.Mutex
	calls int
}

func (f *failingAPI) QueryTR(context.Context, QueryTRReq) (QueryTRResp, error) {
	f.mu.Lock()
	f.calls++
	f.mu.Unlock()
	return QueryTRResp{}, &transportError{errors.New("unreachable")}
}
func (f *failingAPI) Submit(context.Context, SubmitReq) (SubmitResp, error) {
	return SubmitResp{}, errors.New("unreachable")
}
func (f *failingAPI) JobStatus(context.Context, JobStatusReq) (JobStatusResp, error) {
	return JobStatusResp{}, errors.New("unreachable")
}
func (f *failingAPI) Kill(context.Context, JobStatusReq) (JobStatusResp, error) {
	return JobStatusResp{}, errors.New("unreachable")
}

func (f *failingAPI) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// TestSchedulerBreakerQuarantine drives Rank against one dead and one
// healthy machine and asserts the dead one stops being queried once its
// breaker opens, then gets a probe after the cooldown.
func TestSchedulerBreakerQuarantine(t *testing.T) {
	now := time.Date(2005, 9, 2, 8, 30, 0, 0, time.UTC)
	clock := simclock.NewVirtual(now)
	sm, err := NewStateManager("solid", period, avail.DefaultConfig(), clock, historyMachine("solid", 11, -1), 0)
	if err != nil {
		t.Fatal(err)
	}
	good, err := NewGateway("solid", avail.DefaultConfig(), period, clock, sm)
	if err != nil {
		t.Fatal(err)
	}
	good.Record(now, sample(5, 400))

	dead := &failingAPI{}
	sched := &Scheduler{
		Candidates: []Candidate{
			{MachineID: "dead", API: dead},
			{MachineID: "solid", API: good},
		},
		Breakers: NewBreakerSet(BreakerConfig{Threshold: 2, Cooldown: time.Minute}, clock),
	}
	job := SubmitReq{Name: "job", WorkSeconds: 3600, MemMB: 50}

	// Ranks 1 and 2: the dead machine is queried and fails.
	for i := 1; i <= 2; i++ {
		ranked, fails, err := sched.Rank(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		if len(ranked) != 1 || ranked[0].MachineID != "solid" {
			t.Fatalf("rank %d = %+v", i, ranked)
		}
		if len(fails) != 1 || fails[0].MachineID != "dead" || !fails[0].Transient() {
			t.Fatalf("rank %d failures = %v", i, fails)
		}
	}
	if dead.count() != 2 {
		t.Fatalf("dead machine queried %d times, want 2", dead.count())
	}
	// Rank 3: breaker open — skipped without an RPC, failure says so.
	_, fails, err := sched.Rank(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if dead.count() != 2 {
		t.Fatalf("open breaker still let %d queries through", dead.count()-2)
	}
	if len(fails) != 1 || !errors.Is(fails[0].Err, errCircuitOpen) {
		t.Fatalf("failures = %v, want circuit-open", fails)
	}
	// After the cooldown one probe goes through (and fails, re-opening).
	clock.Advance(time.Minute)
	if _, _, err := sched.Rank(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if dead.count() != 3 {
		t.Fatalf("probe count = %d, want exactly one probe after cooldown", dead.count()-2)
	}
	if _, _, err := sched.Rank(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if dead.count() != 3 {
		t.Fatal("re-opened breaker admitted traffic before the next cooldown")
	}
}

// rejectingAPI is a GatewayAPI stub whose QueryTR always answers with an
// application error: the machine is up, it just cannot rank the job.
type rejectingAPI struct{ failingAPI }

func (*rejectingAPI) QueryTR(context.Context, QueryTRReq) (QueryTRResp, error) {
	return QueryTRResp{}, &remoteError{Msg: "no history yet"}
}

// TestRankApplicationErrorKeepsBreakerClosed: a machine that keeps answering
// with an application error is alive, so ranking it never quarantines it.
func TestRankApplicationErrorKeepsBreakerClosed(t *testing.T) {
	clock := simclock.NewVirtual(time.Date(2005, 9, 2, 8, 30, 0, 0, time.UTC))
	sched := &Scheduler{
		Candidates: []Candidate{{MachineID: "young", API: &rejectingAPI{}}},
		Breakers:   NewBreakerSet(BreakerConfig{Threshold: 2, Cooldown: time.Minute}, clock),
	}
	for i := 0; i < 3; i++ {
		if _, fails, _ := sched.Rank(context.Background(), SubmitReq{WorkSeconds: 3600}); len(fails) != 1 {
			t.Fatalf("rank %d failures = %v, want one", i+1, fails)
		}
	}
	if st := sched.Breakers.state("young"); st != breakerClosed {
		t.Fatalf("breaker %s after application errors, want closed", st)
	}
}
