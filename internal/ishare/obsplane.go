package ishare

import (
	"context"
	"fmt"
	"time"

	"fgcs/internal/obs"
)

// The observability plane: query-obs is the RPC that exports one node's
// mergeable metrics and recent alerts in the versioned binary codec
// (obs.PeerObs). A federation peer answering the non-local form fans the
// local form out over the ring — through the same Caller/retry/breaker stack
// every other federation verb uses — and merges the exports into one
// fleet-level snapshot: counters summed, histograms merged bucket-wise, every
// alert stamped with its peer. Accuracy is not exported: a host node scores
// its own predictions and serves them in query-stats and on its /metrics
// page. An unreachable peer's last good export is merged marked stale rather
// than silently dropped, so a fleet view during an outage says exactly how
// old each column is.

// QueryObsReq asks a node for its observability export. Local asks a
// federation peer for its own snapshot only (the fan-out form, and the only
// form a host gateway serves); otherwise a federation peer answers with the
// merged fleet view.
type QueryObsReq struct {
	Local bool `json:"local,omitempty"`
	// MaxAlerts caps the merged alert list on the fleet view (0 = all).
	MaxAlerts int `json:"max_alerts,omitempty"`
}

// QueryObsResp carries either one node's binary export (Snapshot, for the
// local form) or the merged fleet view (Fleet, for the federated form).
type QueryObsResp struct {
	Peer     string         `json:"peer"`
	Snapshot []byte         `json:"snapshot,omitempty"`
	Fleet    *obs.FleetView `json:"fleet,omitempty"`
}

// exportPeer assembles this node's observability export under the given
// peer identity; its EncodeBinary is the query-obs wire payload. Nil-safe: a
// nil NodeObs exports an empty snapshot.
func (o *NodeObs) exportPeer(peer string) *obs.PeerObs {
	if o == nil {
		return obs.ExportPeerObs(peer, nil, nil)
	}
	return obs.ExportPeerObs(peer, o.Registry, o.Alerts)
}

// AddSLO attaches a serving-path SLO monitor; StepObs feeds it cumulative
// samples and sloStatuses (served in query-stats) evaluates it.
func (o *NodeObs) AddSLO(m *obs.SLOMonitor) {
	if o == nil || m == nil {
		return
	}
	o.sloMu.Lock()
	o.slos = append(o.slos, m)
	o.sloMu.Unlock()
}

// sloStatuses evaluates every attached SLO monitor, in attachment order.
// Nil (not empty) when the node has no SLOs, so the query-stats field stays
// absent on the wire.
func (o *NodeObs) sloStatuses() []obs.SLOStatus {
	if o == nil {
		return nil
	}
	o.sloMu.Lock()
	ms := append([]*obs.SLOMonitor(nil), o.slos...)
	o.sloMu.Unlock()
	if len(ms) == 0 {
		return nil
	}
	out := make([]obs.SLOStatus, 0, len(ms))
	for _, m := range ms {
		out = append(out, m.Status())
	}
	return out
}

// recordSLOSample feeds one cumulative serving-path sample — total gateway
// requests, errors, and the per-type RPC latency histograms merged into one
// (they share the default bucket layout) — to every attached monitor, stamped
// at now.
func (o *NodeObs) recordSLOSample(now time.Time) {
	o.sloMu.Lock()
	ms := append([]*obs.SLOMonitor(nil), o.slos...)
	o.sloMu.Unlock()
	if len(ms) == 0 {
		return
	}
	s := obs.SLOSample{T: now}
	for typ, c := range o.requests {
		s.Requests += c.Value()
		s.Errors += o.errors[typ].Value()
		h := o.rpcSeconds[typ].Snapshot()
		if s.Latency == nil {
			s.Latency = &h
		} else if err := s.Latency.Merge(h); err != nil {
			panic(err) // NewNodeObs gave every type the same buckets
		}
	}
	for _, m := range ms {
		m.Record(s)
	}
}

// Ops-alert thresholds for StepObs: an admission-control shed rate above
// shedRateThreshold (given at least shedRateMinEvents serving attempts in
// the step) fires a shed-rate alert; breakerFlapOpens or more breaker opens
// in one step fire a breaker-flap alert.
const (
	shedRateThreshold = 0.10
	shedRateMinEvents = 20
	breakerFlapOpens  = 3
)

// StepObs advances the node's alerting once: records one cumulative SLO
// sample, steps the accuracy-drift watcher, and checks the serving-path ops
// signals (shed rate, breaker flapping). Call it from a single goroutine —
// the obs ticker on a live node, the tick loop in the fleet simulator.
// Returns the alerts fired this step (already appended to the ring).
func (o *NodeObs) StepObs(now time.Time) []obs.Alert {
	if o == nil {
		return nil
	}
	o.recordSLOSample(now)
	fired := o.Drift.Step(now)
	return append(fired, o.stepOps(now)...)
}

// stepOps checks the serving-path ops signals against the counters
// accumulated since the previous step.
func (o *NodeObs) stepOps(now time.Time) []obs.Alert {
	var fired []obs.Alert
	w := o.Server.wireStats()
	shed := w.ShedAcceptQueue + w.ShedInflight + w.ShedPerConn
	var reqs uint64
	for _, c := range o.requests {
		reqs += c.Value()
	}
	dShed, dReqs := shed-o.opsPrevShed, reqs-o.opsPrevReqs
	o.opsPrevShed, o.opsPrevReqs = shed, reqs
	if total := dShed + dReqs; total >= shedRateMinEvents {
		if rate := float64(dShed) / float64(total); rate > shedRateThreshold {
			fired = append(fired, o.Alerts.Append(obs.Alert{
				Kind:      obs.AlertShedRate,
				Value:     rate,
				Threshold: shedRateThreshold,
				Message: fmt.Sprintf("admission control shed %.1f%% of %d serving attempts since the last step",
					100*rate, total),
				Time: now,
			}))
		}
	}
	opens := o.breakerOpens.Value()
	dOpens := opens - o.opsPrevOpens
	o.opsPrevOpens = opens
	if dOpens >= breakerFlapOpens {
		fired = append(fired, o.Alerts.Append(obs.Alert{
			Kind:      obs.AlertBreakerFlap,
			Value:     float64(dOpens),
			Threshold: breakerFlapOpens,
			Message: fmt.Sprintf("circuit breakers opened %d times since the last step",
				dOpens),
			Time: now,
		}))
	}
	return fired
}

// queryObs serves the node's observability export for federated
// aggregation. A host gateway only has its own snapshot, so the Local flag
// is moot here.
func (g *Gateway) queryObs(ctx context.Context, req QueryObsReq) (QueryObsResp, error) {
	return QueryObsResp{Peer: g.machineID, Snapshot: g.sm.obsv.exportPeer(g.machineID).EncodeBinary()}, nil
}

// queryObs is a peer's query-obs: its own export for the local form (what
// FleetObs fans out), otherwise the fleet view merged over the ring.
func (f *FedGateway) queryObs(ctx context.Context, req QueryObsReq) (QueryObsResp, error) {
	if req.Local {
		return QueryObsResp{Peer: f.self.ID, Snapshot: f.obs.exportPeer(f.self.ID).EncodeBinary()}, nil
	}
	v := f.FleetObs(ctx).View(req.MaxAlerts)
	return QueryObsResp{Peer: f.self.ID, Fleet: &v}, nil
}

// QueryObs fetches a node's observability export (an operator surface, like
// QueryStats — deliberately not part of GatewayAPI). Idempotent: retried
// under the caller's policy.
func (r RemoteGateway) QueryObs(ctx context.Context, req QueryObsReq) (QueryObsResp, error) {
	return rpc[QueryObsResp](ctx, r.Caller, r.Addr, msgQueryObs, req, r.Timeout, true)
}

// cachedPeerObs is a peer's last successfully fetched export, merged marked
// stale when the peer stops answering.
type cachedPeerObs struct {
	export *obs.PeerObs
	at     time.Time
}

// FleetObs fans query-obs out over the ring and merges every peer's export
// into one fleet snapshot. The local export is captured first — before the
// fan-out's own client RPCs run — so a peer's merged counters never include
// traffic caused by the aggregation that is reading them. A peer that fails
// to answer contributes its cached export marked stale with its age; a peer
// with no cached export is recorded unreachable. Either way the peer stays
// visible in the snapshot's status rows.
func (f *FedGateway) FleetObs(ctx context.Context) *obs.FleetSnapshot {
	fs := &obs.FleetSnapshot{}
	fs.Add(f.obs.exportPeer(f.self.ID), obs.PeerStatus{Peer: f.self.ID, Status: obs.PeerOK})
	for _, p := range f.ring.members() {
		if p.ID == f.self.ID {
			continue
		}
		var resp QueryObsResp
		err := f.callPeer(ctx, p, msgQueryObs, QueryObsReq{Local: true}, &resp, true)
		if err == nil {
			po, derr := obs.DecodeObsSnapshot(resp.Snapshot)
			if derr == nil {
				f.obsCacheMu.Lock()
				if f.obsCache == nil {
					f.obsCache = make(map[string]cachedPeerObs)
				}
				f.obsCache[p.ID] = cachedPeerObs{export: po, at: f.clock.Now()}
				f.obsCacheMu.Unlock()
				fs.Add(po, obs.PeerStatus{Peer: p.ID, Status: obs.PeerOK})
				continue
			}
			err = derr
		}
		f.warn("fed obs fan-out failed", "peer", p.ID, "err", err)
		f.obsCacheMu.Lock()
		c, ok := f.obsCache[p.ID]
		f.obsCacheMu.Unlock()
		if ok {
			fs.Add(c.export, obs.PeerStatus{
				Peer:       p.ID,
				Status:     obs.PeerStale,
				AgeSeconds: f.clock.Now().Sub(c.at).Seconds(),
				Err:        err.Error(),
			})
		} else {
			fs.AddUnreachable(p.ID, err.Error())
		}
	}
	return fs
}

// Ready reports nil when the peer can serve authoritatively: the last
// anti-entropy round delivered every push with nothing newly accepted — the
// ring has converged on this peer's shard. A ring of one has no other
// member to converge with, so it is always ready. Durable-state recovery
// needs no gate here: it finishes before the peer serves anything, /readyz
// included. Serve /readyz from it; the fleet simulator's restart phase polls
// it instead of counting sync deltas by hand.
func (f *FedGateway) Ready() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.ring.peers) == 1 {
		return nil
	}
	if f.syncRounds == 0 {
		return fmt.Errorf("registry sync pending: no anti-entropy round completed")
	}
	if !f.lastRoundOK {
		return fmt.Errorf("ring not converged: last anti-entropy round had failed pushes")
	}
	if f.lastRoundAccepted > 0 {
		return fmt.Errorf("ring converging: peers accepted %d entries in the last anti-entropy round", f.lastRoundAccepted)
	}
	return nil
}
