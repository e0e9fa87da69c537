package ishare

import (
	"context"
	"fmt"
	"sort"
	"time"

	"fgcs/internal/otrace"
)

// GatewayAPI is the client-visible surface of a host node. *Gateway
// implements it directly (in-process wiring); RemoteGateway implements it
// over TCP. The context carries the request's trace span (if any) across
// the whole client → gateway → engine path.
type GatewayAPI interface {
	QueryTR(context.Context, QueryTRReq) (QueryTRResp, error)
	Submit(context.Context, SubmitReq) (SubmitResp, error)
	JobStatus(context.Context, JobStatusReq) (JobStatusResp, error)
	Kill(context.Context, JobStatusReq) (JobStatusResp, error)
}

var _ GatewayAPI = (*Gateway)(nil)

// RemoteGateway speaks the gateway protocol over TCP. With a nil Caller it
// behaves as a plain single-attempt client. With a Caller carrying a retry
// policy, the idempotent RPCs (QueryTR, JobStatus) are retried with backoff;
// Submit is retried only under an auto-generated idempotency key, so a lost
// ACK can never double-launch a guest; Kill always gets a single attempt.
type RemoteGateway struct {
	Addr    string
	Timeout time.Duration
	Caller  *Caller
}

// rpc is the client stub of every typed call: one request of type typ to
// addr, answered into a Resp, within timeout (<= 0 = 5 s). retry marks a call
// that is idempotent, or keyed (see Caller.keyed), and so safe to repeat under
// the caller's policy; every other call gets a single attempt.
func rpc[Resp any](ctx context.Context, c *Caller, addr, typ string, req interface{}, timeout time.Duration, retry bool) (resp Resp, err error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	if retry {
		err = c.CallRetry(ctx, addr, typ, req, &resp, timeout)
	} else {
		err = c.Call(ctx, addr, typ, req, &resp, timeout)
	}
	return resp, err
}

// QueryTR implements GatewayAPI. Idempotent: retried under the caller's
// policy.
func (r RemoteGateway) QueryTR(ctx context.Context, req QueryTRReq) (QueryTRResp, error) {
	return rpc[QueryTRResp](ctx, r.Caller, r.Addr, MsgQueryTR, req, r.Timeout, true)
}

// Submit implements GatewayAPI. Not idempotent by itself: without a key it
// gets exactly one attempt. When the caller has retries configured, a fresh
// idempotency key is attached (unless the request already carries one) and
// the submit becomes safely retryable — the gateway replays the original
// job ID for a duplicate key.
func (r RemoteGateway) Submit(ctx context.Context, req SubmitReq) (SubmitResp, error) {
	retry := r.Caller.keyed(&req, r.Addr)
	return rpc[SubmitResp](ctx, r.Caller, r.Addr, MsgSubmit, req, r.Timeout, retry)
}

// JobStatus implements GatewayAPI. Idempotent: retried under the caller's
// policy.
func (r RemoteGateway) JobStatus(ctx context.Context, req JobStatusReq) (JobStatusResp, error) {
	return rpc[JobStatusResp](ctx, r.Caller, r.Addr, msgJobStatus, req, r.Timeout, true)
}

// Kill implements GatewayAPI. Killing twice is an application error, so a
// kill gets a single attempt; callers that lose the ACK can confirm the
// outcome with JobStatus.
func (r RemoteGateway) Kill(ctx context.Context, req JobStatusReq) (JobStatusResp, error) {
	return rpc[JobStatusResp](ctx, r.Caller, r.Addr, msgKillJob, req, r.Timeout, false)
}

// QueryStats fetches the node's observability snapshot. Idempotent: retried
// under the caller's policy. (Deliberately not part of GatewayAPI — it is an
// operator surface, not a scheduling one.)
func (r RemoteGateway) QueryStats(ctx context.Context, req QueryStatsReq) (QueryStatsResp, error) {
	return rpc[QueryStatsResp](ctx, r.Caller, r.Addr, msgQueryStats, req, r.Timeout, true)
}

// QueryTraces fetches the node's flight-recorder snapshot. Idempotent:
// retried under the caller's policy. (An operator surface like QueryStats,
// so not part of GatewayAPI.)
func (r RemoteGateway) QueryTraces(ctx context.Context, req QueryTracesReq) (QueryTracesResp, error) {
	return rpc[QueryTracesResp](ctx, r.Caller, r.Addr, msgQueryTraces, req, r.Timeout, true)
}

// Candidate pairs a machine identity with its gateway API.
type Candidate struct {
	MachineID string
	API       GatewayAPI
}

// Ranked is a candidate with its predicted temporal reliability.
type Ranked struct {
	Candidate
	TR             float64
	HistoryWindows int
	CurrentState   string
}

// RankFailure explains why one machine is missing from a ranking, so
// callers and logs can tell a revoked resource from a network flake from a
// breaker quarantine.
type RankFailure struct {
	MachineID string
	Err       error
}

// Transient reports whether the failure was transport-level (network flake
// or quarantine) or an admission-control shed, rather than an application
// rejection by the machine.
func (f RankFailure) Transient() bool {
	return isTransport(f.Err) || isOverloaded(f.Err) || f.Err == errCircuitOpen
}

// Scheduler is the client-side job scheduler of Figure 2: it queries the
// gateways of available machines for their temporal reliability over the
// job's execution window and submits to the most reliable one.
type Scheduler struct {
	Candidates []Candidate
	// Breakers, when set, quarantines machines whose gateways keep
	// failing: open-circuit machines are skipped in Rank without an RPC,
	// and every query and submit outcome feeds the breaker state machine
	// (transport faults count against a machine, answers for it).
	Breakers *BreakerSet
}

// Rank queries every candidate's TR for the job and returns them sorted by
// decreasing reliability, together with one RankFailure per machine that
// could not be ranked (breaker-open, unreachable, or query rejected). The
// window queried is the work the job has left — its length less the
// checkpointed progress it resumes from — so a migrated job is ranked over
// what it will actually run. The error is non-nil only when the checkpoint is
// out of range or no machine answered at all. Under a sampled
// trace, the ranking runs in a "scheduler.rank" span whose per-machine query
// spans carry the RPC attempts; machines skipped by an open breaker appear
// as "breaker-open" span events — no RPC, just the shedding decision.
func (s *Scheduler) Rank(ctx context.Context, job SubmitReq) ([]Ranked, []RankFailure, error) {
	if len(s.Candidates) == 0 {
		return nil, nil, fmt.Errorf("ishare: no candidate machines")
	}
	left, err := job.remainingSeconds()
	if err != nil {
		return nil, nil, err
	}
	ctx, span := otrace.StartSpan(ctx, "scheduler.rank")
	defer span.End()
	var out []Ranked
	var failures []RankFailure
	for _, c := range s.Candidates {
		if s.Breakers != nil && !s.Breakers.allow(c.MachineID) {
			span.AddEvent("breaker-open", otrace.String("machine", c.MachineID))
			failures = append(failures, RankFailure{MachineID: c.MachineID, Err: errCircuitOpen})
			continue
		}
		qctx, qspan := otrace.StartSpan(ctx, "scheduler.query-tr")
		if qspan != nil {
			qspan.SetAttr(otrace.String("machine", c.MachineID))
		}
		resp, err := c.API.QueryTR(qctx, QueryTRReq{LengthSeconds: left, GuestMemMB: job.MemMB})
		qspan.SetError(err)
		if err == nil && qspan != nil {
			qspan.SetAttr(otrace.Float("tr", resp.TR))
		}
		qspan.End()
		s.Breakers.observe(c.MachineID, err)
		if err != nil {
			failures = append(failures, RankFailure{MachineID: c.MachineID, Err: err})
			continue
		}
		out = append(out, Ranked{Candidate: c, TR: resp.TR, HistoryWindows: resp.HistoryWindows, CurrentState: resp.CurrentState})
	}
	if len(out) == 0 {
		err := fmt.Errorf("ishare: no machine answered the TR query (%d failed)", len(failures))
		span.SetError(err)
		return nil, failures, err
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TR > out[j].TR })
	return out, failures, nil
}

// SubmitBest ranks the candidates and submits the job to the machine with
// the highest predicted reliability, falling back down the ranking when a
// machine rejects the submission (e.g. it already runs a guest).
func (s *Scheduler) SubmitBest(ctx context.Context, job SubmitReq) (Ranked, SubmitResp, error) {
	ctx, span := otrace.StartSpan(ctx, "scheduler.submit-best")
	defer span.End()
	ranked, _, err := s.Rank(ctx, job)
	if err != nil {
		span.SetError(err)
		return Ranked{}, SubmitResp{}, err
	}
	var lastErr error
	for _, r := range ranked {
		sctx, sspan := otrace.StartSpan(ctx, "scheduler.submit")
		if sspan != nil {
			sspan.SetAttr(otrace.String("machine", r.MachineID))
		}
		resp, err := r.API.Submit(sctx, job)
		sspan.SetError(err)
		sspan.End()
		s.Breakers.observe(r.MachineID, err)
		if err == nil {
			if span != nil {
				span.SetAttr(otrace.String("placed-on", r.MachineID))
			}
			return r, resp, nil
		}
		lastErr = err
	}
	err = fmt.Errorf("ishare: every submission failed: %w", lastErr)
	span.SetError(err)
	return Ranked{}, SubmitResp{}, err
}
