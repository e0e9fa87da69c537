package ishare

import (
	"context"
	"fmt"
	"time"
)

// FedClient talks to a federated control plane through any single peer:
// the entry peer resolves each machine through the ring and forwards as
// needed, so clients never need to know the shard placement. The zero
// Timeout means 5 s per call; Caller supplies transport, retries and
// trace propagation exactly as for RemoteGateway.
type FedClient struct {
	// Addr is the entry peer. Any live peer works; clients spread across
	// peers for load, or fail over to another peer themselves if their
	// entry peer dies.
	Addr    string
	Timeout time.Duration
	Caller  *Caller
}

// QueryTR asks the federation for the named machine's temporal
// reliability. Idempotent: retried under the caller's policy.
func (c FedClient) QueryTR(ctx context.Context, machine string, req QueryTRReq) (QueryTRResp, error) {
	return rpc[QueryTRResp](ctx, c.Caller, c.Addr, msgFedQueryTR, FedQueryTRReq{Machine: machine, Query: req}, c.Timeout, true)
}

// Submit launches a guest job on the named machine through the
// federation. When the caller has retries configured, a fresh idempotency
// key is attached (unless the request already carries one) so the submit
// is replay-safe across the client hop, the peer hop, and the machine
// hop; without retries it gets a single attempt.
func (c FedClient) Submit(ctx context.Context, machine string, req SubmitReq) (SubmitResp, error) {
	retry := c.Caller.keyed(&req, "fed/"+machine)
	return rpc[SubmitResp](ctx, c.Caller, c.Addr, msgFedSubmit, fedSubmitReq{Machine: machine, Job: req}, c.Timeout, retry)
}

// JobStatus queries a job on the named machine. Idempotent: retried under
// the caller's policy.
func (c FedClient) JobStatus(ctx context.Context, machine string, req JobStatusReq) (JobStatusResp, error) {
	return rpc[JobStatusResp](ctx, c.Caller, c.Addr, msgFedJobStatus, fedJobReq{Machine: machine, Job: req}, c.Timeout, true)
}

// Kill terminates a job on the named machine. Single attempt end to end
// (see FedGateway.fedKill); confirm a lost ACK with JobStatus.
func (c FedClient) Kill(ctx context.Context, machine string, req JobStatusReq) (JobStatusResp, error) {
	return rpc[JobStatusResp](ctx, c.Caller, c.Addr, msgFedKill, fedJobReq{Machine: machine, Job: req}, c.Timeout, false)
}

// discover lists every machine registered anywhere in the federation (the
// entry peer merges all reachable shards).
func (c FedClient) discover(ctx context.Context) ([]resource, error) {
	resp, err := rpc[discoverResp](ctx, c.Caller, c.Addr, msgDiscover, discoverReq{}, c.Timeout, true)
	return resp.Resources, err
}

// Gateway returns a GatewayAPI view of one machine reached through the
// federation, so schedulers and supervisors built against single-gateway
// clients work unchanged on a federated deployment.
func (c FedClient) Gateway(machine string) GatewayAPI {
	return fedGatewayAPI{c: c, machine: machine}
}

// Scheduler builds a client-side Scheduler whose candidates are every
// machine in the federation, each reached through the entry peer.
func (c FedClient) Scheduler(ctx context.Context) (*Scheduler, error) {
	resources, err := c.discover(ctx)
	if err != nil {
		return nil, err
	}
	if len(resources) == 0 {
		return nil, fmt.Errorf("ishare: federation has no machines")
	}
	cands := make([]Candidate, 0, len(resources))
	for _, r := range resources {
		cands = append(cands, Candidate{MachineID: r.MachineID, API: c.Gateway(r.MachineID)})
	}
	return &Scheduler{Candidates: cands}, nil
}

// fedGatewayAPI adapts FedClient to the machine-scoped GatewayAPI.
type fedGatewayAPI struct {
	c       FedClient
	machine string
}

func (a fedGatewayAPI) QueryTR(ctx context.Context, req QueryTRReq) (QueryTRResp, error) {
	return a.c.QueryTR(ctx, a.machine, req)
}

func (a fedGatewayAPI) Submit(ctx context.Context, req SubmitReq) (SubmitResp, error) {
	return a.c.Submit(ctx, a.machine, req)
}

func (a fedGatewayAPI) JobStatus(ctx context.Context, req JobStatusReq) (JobStatusResp, error) {
	return a.c.JobStatus(ctx, a.machine, req)
}

func (a fedGatewayAPI) Kill(ctx context.Context, req JobStatusReq) (JobStatusResp, error) {
	return a.c.Kill(ctx, a.machine, req)
}
