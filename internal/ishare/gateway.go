package ishare

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/otrace"
	"fgcs/internal/simclock"
	"fgcs/internal/trace"
)

// jobState is the lifecycle state of a guest job under gateway control.
type jobState int

const (
	// jobRunning: default priority, host load below Th1 (state S1).
	jobRunning jobState = iota
	// jobReniced: lowest priority, host load between Th1 and Th2 (S2).
	jobReniced
	// jobSuspended: host load transiently above Th2; the guest is stopped
	// and will resume if the load drops within the suspend limit.
	jobSuspended
	// jobCompleted: the guest finished its work.
	jobCompleted
	// jobKilled: unrecoverable failure (S3, S4 or S5); the guest is gone.
	jobKilled
)

// String returns the protocol name of the state.
func (s jobState) String() string {
	switch s {
	case jobRunning:
		return "running"
	case jobReniced:
		return "reniced"
	case jobSuspended:
		return "suspended"
	case jobCompleted:
		return "completed"
	case jobKilled:
		return "killed"
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

// Terminal reports whether no further transitions can happen.
func (s jobState) Terminal() bool { return s == jobCompleted || s == jobKilled }

// guestJob is a guest process under gateway control. The guest is a simulated
// CPU-bound computation: it accumulates progress whenever it is allowed to
// run, at a rate set by the cycles the host load leaves over.
type guestJob struct {
	ID     string
	Name   string
	Work   float64 // seconds of pure compute needed
	MemMB  float64
	State  jobState
	Reason string // why the job was killed

	Progress         float64 // accumulated compute seconds
	suspendedSamples int     // consecutive samples above Th2
}

// Gateway controls guest processes on one host node and serves client
// requests (Figure 2). It applies the paper's guest-control policy: renice
// at Th1, suspend above Th2, kill after the suspend limit, kill on memory
// pressure, and it loses everything on resource revocation.
type Gateway struct {
	mu        sync.Mutex
	machineID string
	cfg       avail.Config
	period    time.Duration
	clock     simclock.Clock
	sm        *StateManager
	job       *guestJob
	history   []guestJob // terminal jobs
	nextID    int
	submitted map[string]string // idempotency key -> job ID

	// submitSink, when set, is told about every newly accepted submit (not
	// idempotent replays) so the persistence layer can log it. It is invoked
	// after g.mu is released, which is safe against concurrent snapshots in
	// both directions: a snapshot captures its WAL position before calling
	// exportSubmitted, so a record logged before that position belongs to a
	// submit the export already saw, and a record logged after it is
	// replayed on recovery as an idempotent upsert.
	submitSink func(key, jobID string)
}

// NewGateway wires a gateway to its state manager. A node is built with
// NewHostNode; this constructor serves tests and bench.
func NewGateway(machineID string, cfg avail.Config, period time.Duration, clock simclock.Clock, sm *StateManager) (*Gateway, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sm == nil {
		return nil, fmt.Errorf("ishare: nil state manager")
	}
	if clock == nil {
		clock = simclock.Real{}
	}
	return &Gateway{machineID: machineID, cfg: cfg, period: period, clock: clock, sm: sm}, nil
}

// Record implements monitor.Sink: every sample both feeds the state manager
// and drives the guest-control state machine. This is the signal path
// "monitor detects a state transition and signals the gateway" of Section 5.1.
func (g *Gateway) Record(t time.Time, s trace.Sample) {
	g.sm.Record(t, s)
	g.mu.Lock()
	defer g.mu.Unlock()
	job := g.job
	if job == nil || job.State.Terminal() {
		return
	}
	// The classifier's per-sample rule, judged against the job's own
	// memory request.
	switch g.cfg.RawState(s, job.MemMB) {
	case avail.S5:
		g.kill(job, "machine unavailable (URR, S5)")
	case avail.S4:
		g.kill(job, "memory thrashing (UEC, S4)")
	case avail.S3:
		job.suspendedSamples++
		job.State = jobSuspended
		// Kill when the excursion reaches the classifier's S3 rule: a
		// run of SuspendUnits samples above Th2.
		if job.suspendedSamples >= g.cfg.SuspendUnits(g.period) {
			g.kill(job, "host CPU load steadily above Th2 (UEC, S3)")
		}
	case avail.S2:
		job.State = jobReniced
		job.suspendedSamples = 0
	default:
		job.State = jobRunning
		job.suspendedSamples = 0
	}
	if job.State == jobRunning || job.State == jobReniced {
		// The guest consumes the cycles the host leaves over.
		rate := 1 - s.CPU/100
		if rate < 0 {
			rate = 0
		}
		job.Progress += rate * g.period.Seconds()
		if job.Progress >= job.Work {
			job.Progress = job.Work
			job.State = jobCompleted
			g.retire(job)
		}
	}
}

// Crash simulates resource revocation from the gateway's perspective: the
// node dies and any guest job dies with it.
func (g *Gateway) Crash() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.job != nil && !g.job.State.Terminal() {
		g.kill(g.job, "machine unavailable (URR, S5)")
	}
}

// kill retires the job with a reason. Callers hold g.mu.
func (g *Gateway) kill(job *guestJob, reason string) {
	job.State = jobKilled
	job.Reason = reason
	g.retire(job)
}

// retire moves a terminal job to history. Callers hold g.mu.
func (g *Gateway) retire(job *guestJob) {
	g.history = append(g.history, *job)
	g.job = nil
}

// QueryTR forwards a temporal-reliability query to the state manager. The
// state manager serves it through its prediction engine, so concurrent
// queries share fitted kernels; the response carries the node's cumulative
// cache hit/miss counters.
func (g *Gateway) QueryTR(ctx context.Context, req QueryTRReq) (QueryTRResp, error) {
	return g.sm.QueryTR(ctx, req)
}

// queryStats assembles the node's observability snapshot: engine cache
// counters, per-type RPC counts, monitor throughput, and the online accuracy
// summaries per predictor.
func (g *Gateway) queryStats(ctx context.Context, req QueryStatsReq) (QueryStatsResp, error) {
	o := g.sm.obsv
	st := g.sm.EngineStats()
	resp := QueryStatsResp{
		MachineID: g.machineID,
		Engine: EngineCacheStats{
			Hits:      st.Hits,
			Misses:    st.Misses,
			Evictions: st.Evictions,
			Entries:   st.Entries,
		},
		MonitorSamples:     o.Monitor.Samples.Value(),
		PendingPredictions: o.Tracker.Pending(),
		Accuracy:           o.Tracker.All(),
	}
	o.servingStats(&resp)
	if !req.Calibration {
		for i := range resp.Accuracy {
			resp.Accuracy[i].Calibration = nil
		}
	}
	return resp, nil
}

// queryTraces serves the node's flight recorder through the package's
// queryTraces.
func (g *Gateway) queryTraces(ctx context.Context, req QueryTracesReq) (QueryTracesResp, error) {
	o := g.sm.obsv
	return queryTraces(g.machineID, o.Tracer.Recorder(), o, req)
}

// Submit launches a guest job. FGCS allows a single guest process per
// machine (Section 3.2), so a second submission is rejected while one is
// active.
func (g *Gateway) Submit(ctx context.Context, req SubmitReq) (SubmitResp, error) {
	if _, err := req.remainingSeconds(); err != nil {
		return SubmitResp{}, err
	}
	if req.MemMB < 0 {
		return SubmitResp{}, fmt.Errorf("ishare: negative job memory")
	}
	g.mu.Lock()
	// Idempotent replay: a client retrying a submit whose ACK was lost
	// gets the job it already launched, never a second guest.
	if req.IdempotencyKey != "" {
		if id, ok := g.submitted[req.IdempotencyKey]; ok {
			g.mu.Unlock()
			return SubmitResp{JobID: id}, nil
		}
	}
	if g.job != nil && !g.job.State.Terminal() {
		g.mu.Unlock()
		return SubmitResp{}, fmt.Errorf("ishare: machine %s already runs a guest job", g.machineID)
	}
	g.nextID++
	job := &guestJob{
		ID:       fmt.Sprintf("%s-job-%d", g.machineID, g.nextID),
		Name:     req.Name,
		Work:     req.WorkSeconds,
		MemMB:    req.MemMB,
		Progress: req.InitialProgressSeconds,
		State:    jobRunning,
	}
	g.job = job
	if req.IdempotencyKey != "" {
		if g.submitted == nil {
			g.submitted = make(map[string]string)
		}
		g.submitted[req.IdempotencyKey] = job.ID
	}
	sink := g.submitSink
	g.mu.Unlock()
	if sink != nil {
		// Logged even for keyless submits: the empty-key record still
		// advances the job-ID counter on replay, keeping IDs unique across
		// restarts.
		sink(req.IdempotencyKey, job.ID)
	}
	return SubmitResp{JobID: job.ID}, nil
}

// setSubmitSink installs the persistence hook for accepted submits. Call
// before the gateway starts serving.
func (g *Gateway) setSubmitSink(fn func(key, jobID string)) {
	g.mu.Lock()
	g.submitSink = fn
	g.mu.Unlock()
}

// exportSubmitted deep-copies the idempotency table and the job-ID counter
// for a durable snapshot.
func (g *Gateway) exportSubmitted() (map[string]string, int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]string, len(g.submitted))
	for k, v := range g.submitted {
		out[k] = v
	}
	return out, g.nextID
}

// restoreSubmitted installs a recovered idempotency table and job-ID
// counter. The counter only ever moves forward, so replaying WAL records on
// top of a snapshot that already contains them cannot reuse a job ID.
func (g *Gateway) restoreSubmitted(submitted map[string]string, nextID int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for k, v := range submitted {
		if k == "" {
			continue
		}
		if g.submitted == nil {
			g.submitted = make(map[string]string)
		}
		g.submitted[k] = v
	}
	if nextID > g.nextID {
		g.nextID = nextID
	}
}

// restoreSubmitKey replays one logged submit: the key maps back to its job
// ID (empty keys only advance the counter) and the counter is bumped past
// the ID's sequence number, parsed from its "<machine>-job-<n>" suffix.
func (g *Gateway) restoreSubmitKey(key, jobID string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if key != "" {
		if g.submitted == nil {
			g.submitted = make(map[string]string)
		}
		g.submitted[key] = jobID
	}
	var n int
	if _, err := fmt.Sscanf(jobID, g.machineID+"-job-%d", &n); err == nil && n > g.nextID {
		g.nextID = n
	}
}

// JobStatus reports on a current or historical job.
func (g *Gateway) JobStatus(ctx context.Context, req JobStatusReq) (JobStatusResp, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.job != nil && g.job.ID == req.JobID {
		return statusOf(g.job), nil
	}
	for i := range g.history {
		if g.history[i].ID == req.JobID {
			return statusOf(&g.history[i]), nil
		}
	}
	return JobStatusResp{}, fmt.Errorf("ishare: unknown job %q", req.JobID)
}

// Kill terminates a job on client request (e.g. migration after a
// checkpoint).
func (g *Gateway) Kill(ctx context.Context, req JobStatusReq) (JobStatusResp, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.job == nil || g.job.ID != req.JobID {
		return JobStatusResp{}, fmt.Errorf("ishare: job %q not active", req.JobID)
	}
	job := g.job
	g.kill(job, "killed by client")
	return statusOf(job), nil
}

func statusOf(j *guestJob) JobStatusResp {
	return JobStatusResp{
		JobID:           j.ID,
		State:           j.State.String(),
		Reason:          j.Reason,
		ProgressSeconds: j.Progress,
		WorkSeconds:     j.Work,
	}
}

// gatewayRoutes is every RPC a host gateway serves.
var gatewayRoutes = []route[*Gateway]{
	on(MsgQueryTR, "query", false, (*Gateway).QueryTR),
	on(MsgSubmit, "submit", false, (*Gateway).Submit),
	on(msgJobStatus, "status", false, (*Gateway).JobStatus),
	on(msgKillJob, "kill", false, (*Gateway).Kill),
	on(msgQueryStats, "stats", true, (*Gateway).queryStats),
	on(msgQueryTraces, "traces", true, (*Gateway).queryTraces),
	on(msgQueryObs, "obs", true, (*Gateway).queryObs),
}

// Handler serves gatewayRoutes behind the shared serving shell (serveRoutes).
func (g *Gateway) Handler() Handler {
	o := g.sm.obsv
	return serveRoutes(g, gatewayRoutes, "gateway", "machine", g.machineID, func() *otrace.Tracer { return o.Tracer }, o)
}

// ServeConfig starts the gateway's TCP endpoint under cfg's admission-control
// and deadline bounds (the zero ServerConfig selects every default), with the
// node's serving-path metrics installed when observability is on.
func (g *Gateway) ServeConfig(addr string, cfg ServerConfig) (*Server, error) {
	return listenRoutes(addr, g.Handler(), cfg, g.sm.obsv)
}
