package fleetsim

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"fgcs/internal/obs"
)

// Report is the output of one fleet run, split along the determinism
// boundary. Sim holds quantities that are pure functions of the Config —
// two runs with the same config produce byte-identical Sim sections, which
// is what the determinism smoke test and the CLI's -verify mode check.
// Perf holds measured quantities (wall times, throughput, memory) that vary
// run to run and feed the benchgate thresholds.
type Report struct {
	Sim  SimStats  `json:"sim"`
	Perf PerfStats `json:"perf"`
}

// SimStats is the deterministic section of the report.
type SimStats struct {
	// Config echo, so a report is self-describing.
	Machines      int     `json:"machines"`
	Gateways      int     `json:"gateways"`
	Replicas      int     `json:"replicas"`
	Vnodes        int     `json:"vnodes"`
	Profiles      int     `json:"profiles"`
	HistoryDays   int     `json:"history_days"`
	PeriodSeconds float64 `json:"period_seconds"`
	Ticks         int     `json:"ticks"`
	Workers       int     `json:"workers"`
	Seed          uint64  `json:"seed"`
	// Perturbation echo (zero unless the run arms a failure regression).
	PerturbProfile  int     `json:"perturb_profile,omitempty"`
	PerturbTick     int     `json:"perturb_tick,omitempty"`
	PerturbFailRate float64 `json:"perturb_fail_rate,omitempty"`

	// Registration storm and heartbeat refresh.
	Registered             int     `json:"registered"`
	RegisterRPCs           int64   `json:"register_rpcs"`
	RegisterRequestBytes   int64   `json:"register_request_bytes"`
	HeartbeatRounds        int     `json:"heartbeat_rounds"`
	HeartbeatRequestBytes  int64   `json:"heartbeat_request_bytes"`
	ControlBytesPerMachine float64 `json:"control_bytes_per_machine"`
	// PlacementImbalance is max per-peer owned keys over fair share.
	PlacementImbalance float64 `json:"placement_imbalance"`

	// Traffic phase.
	SamplesFed        int64  `json:"samples_fed"`
	DayRollovers      int    `json:"day_rollovers"`
	Queries           int64  `json:"queries"`
	QueryFailures     int64  `json:"query_failures"`
	QueryRequestBytes int64  `json:"query_request_bytes"`
	TranscriptFNV     string `json:"transcript_fnv"`

	// Churn: leave/join storms and ring key movement.
	LeaveMachines      int     `json:"leave_machines"`
	JoinMachines       int     `json:"join_machines"`
	EntriesBeforeReap  int     `json:"entries_before_reap"`
	EntriesAfterReap   int     `json:"entries_after_reap"`
	JoinMovedKeys      int     `json:"join_moved_keys"`
	JoinMovedFraction  float64 `json:"join_moved_fraction"`
	LeaveMovedKeys     int     `json:"leave_moved_keys"`
	LeaveMovedFraction float64 `json:"leave_moved_fraction"`

	// Peer outage, restart and anti-entropy convergence.
	OutageQueries       int64  `json:"outage_queries"`
	OutageFailures      int64  `json:"outage_failures"`
	OutageTranscriptFNV string `json:"outage_transcript_fnv"`
	ConvergenceRounds   int    `json:"convergence_rounds"`
	ConvergenceAccepted int64  `json:"convergence_accepted"`
	RestartEntries      int    `json:"restart_entries"`

	// Accuracy-tracker retention over the run.
	TrackerResolved        uint64 `json:"tracker_resolved"`
	TrackerDropped         uint64 `json:"tracker_dropped"`
	TrackerEvictedMachines uint64 `json:"tracker_evicted_machines"`
	TrackerMachines        int    `json:"tracker_machines"`

	Utilization UtilizationStats `json:"utilization"`

	FleetObs FleetObsStats `json:"fleet_obs"`
}

// FleetObsStats is the deterministic fleet-observability block: what the
// federated aggregation saw, which alerts the detectors fired, and the SLO
// verdicts — all pure functions of the Config (only the seeded gateway
// request/error counters are included; scheduling-dependent series such as
// engine-cache hits are deliberately left out).
type FleetObsStats struct {
	// Final post-heal aggregation sweep.
	PeersOK          int `json:"peers_ok"`
	PeersStale       int `json:"peers_stale"`
	PeersUnreachable int `json:"peers_unreachable"`
	// Aggregation sweep taken while one federation peer was down: its
	// warmed export must merge as stale, and the merged fed-query-tr
	// counter must equal the direct per-registry sum exactly.
	OutagePeersOK          int    `json:"outage_peers_ok"`
	OutagePeersStale       int    `json:"outage_peers_stale"`
	OutagePeersUnreachable int    `json:"outage_peers_unreachable"`
	OutageMergedFedQueryTR uint64 `json:"outage_merged_fed_query_tr"`
	OutageDirectFedQueryTR uint64 `json:"outage_direct_fed_query_tr"`
	// Merged gateway counters by series id.
	GatewayRequests map[string]uint64 `json:"gateway_requests,omitempty"`
	GatewayErrors   map[string]uint64 `json:"gateway_errors,omitempty"`
	// Alerts fired over the run (AlertsTotal is the true count; Alerts
	// keeps the newest maxReportAlerts).
	AlertsTotal  int             `json:"alerts_total"`
	AlertsByKind map[string]int  `json:"alerts_by_kind,omitempty"`
	Alerts       []obs.Alert     `json:"alerts,omitempty"`
	SLO          []obs.SLOStatus `json:"slo,omitempty"`
}

// UtilizationStats is the fleet-level utilization/waste report: how much
// host capacity the fleet left harvestable, and how well the SMP predictor
// identified the windows worth harvesting. All fields derive from integer
// counters or worker-ordered sums, so they are deterministic.
type UtilizationStats struct {
	SamplesUp   int64 `json:"samples_up"`
	SamplesDown int64 `json:"samples_down"`
	// UpFraction is machine availability over the traffic phase.
	UpFraction float64 `json:"up_fraction"`
	// MeanCPUPercent averages host load over up samples.
	MeanCPUPercent float64 `json:"mean_cpu_percent"`
	// HarvestableFraction is the mean idle capacity over all machine-slots:
	// up * (1 - cpu/100), the cycles a guest could have used.
	HarvestableFraction float64 `json:"harvestable_fraction"`
	// MeanPredictedTR averages the TR returned to clients.
	MeanPredictedTR float64 `json:"mean_predicted_tr"`
	// SMP outcome accounting, summed over the peers' trackers.
	SMPResolved          uint64  `json:"smp_resolved"`
	SMPSurvived          uint64  `json:"smp_survived"`
	SMPEmpiricalSurvival float64 `json:"smp_empirical_survival"`
	SMPAccuracy          float64 `json:"smp_accuracy"`
	// WastedFraction is the share of resolved windows whose thresholded
	// prediction was wrong — guest work either scheduled into a failing
	// window or withheld from a surviving one.
	WastedFraction float64 `json:"wasted_fraction"`
}

// PerfStats is the measured (non-deterministic) section of the report.
type PerfStats struct {
	BuildSeconds    float64 `json:"build_seconds"`
	RegisterSeconds float64 `json:"register_seconds"`
	// TrafficSeconds is the traffic phase, and the next six its steps:
	// samples fed, queries, heartbeat rounds, the leave/join storm, tracker
	// eviction sweeps and the obs plane's per-tick step.
	TrafficSeconds    float64 `json:"traffic_seconds"`
	FeedSeconds       float64 `json:"feed_seconds"`
	QuerySeconds      float64 `json:"query_seconds"`
	HeartbeatSeconds  float64 `json:"heartbeat_seconds"`
	ChurnStormSeconds float64 `json:"churn_storm_seconds"`
	EvictSeconds      float64 `json:"evict_seconds"`
	TrafficObsSeconds float64 `json:"traffic_obs_seconds"`
	ChurnSeconds      float64 `json:"churn_seconds"`
	TotalSeconds      float64 `json:"total_seconds"`
	// PredictionsPerSec is federation QueryTR round trips (client -> entry
	// peer -> owner -> machine) per wall second of the query phases.
	PredictionsPerSec   float64 `json:"predictions_per_sec"`
	SamplesPerSec       float64 `json:"samples_per_sec"`
	RegistrationsPerSec float64 `json:"registrations_per_sec"`
	LatencyP50Micros    float64 `json:"latency_p50_micros"`
	LatencyP99Micros    float64 `json:"latency_p99_micros"`
	// HeapBytes is Go heap in use after the run (double GC); RSSBytes is
	// the OS view (VmRSS), zero where /proc is unavailable.
	HeapBytes           uint64  `json:"heap_bytes"`
	HeapBytesPerMachine float64 `json:"heap_bytes_per_machine"`
	RSSBytes            uint64  `json:"rss_bytes"`
	RSSBytesPerMachine  float64 `json:"rss_bytes_per_machine"`
	ResponseBytes       int64   `json:"response_bytes"`
	Goroutines          int     `json:"goroutines"`
	// Observability-plane cost: total wall time spent in obs work (SLO
	// sampling, detector steps, federated aggregation; TrafficObsSeconds is
	// the traffic phase's share), the final aggregation sweep alone, and
	// aggregation traffic per remote peer.
	ObsPlaneSeconds     float64 `json:"obs_plane_seconds"`
	ObsAggregateSeconds float64 `json:"obs_aggregate_seconds"`
	ObsBytesPerPeer     float64 `json:"obs_bytes_per_peer"`
}

// trafficStepSeconds is the sum of the traffic phase's timed steps.
func (p *PerfStats) trafficStepSeconds() float64 {
	return p.FeedSeconds + p.QuerySeconds + p.HeartbeatSeconds + p.ChurnStormSeconds + p.EvictSeconds + p.TrafficObsSeconds
}

// DeterministicBytes renders the Sim section alone; two same-seed runs must
// produce identical output.
func (r *Report) DeterministicBytes() []byte {
	b, err := json.MarshalIndent(&r.Sim, "", "  ")
	if err != nil {
		panic(err) // statically marshalable
	}
	return append(b, '\n')
}

// JSON renders the full report.
func (r *Report) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// Summary renders the human-readable digest the CLI prints.
func (r *Report) Summary() string {
	var b strings.Builder
	s, p := &r.Sim, &r.Perf
	fmt.Fprintf(&b, "fleet: %d machines, %d gateways (K=%d, %d vnodes), %d profiles, seed %d\n",
		s.Machines, s.Gateways, s.Replicas, s.Vnodes, s.Profiles, s.Seed)
	fmt.Fprintf(&b, "traffic: %d ticks x %.0fs, %d queries (%d failed), %d samples, %d day rollovers\n",
		s.Ticks, s.PeriodSeconds, s.Queries, s.QueryFailures, s.SamplesFed, s.DayRollovers)
	fmt.Fprintf(&b, "control plane: %.0f B/machine (register+heartbeat), placement imbalance %.2fx\n",
		s.ControlBytesPerMachine, s.PlacementImbalance)
	fmt.Fprintf(&b, "churn: -%d/+%d machines, entries %d -> %d after reap, restart converged in %d rounds (%d entries restored)\n",
		s.LeaveMachines, s.JoinMachines, s.EntriesBeforeReap, s.EntriesAfterReap, s.ConvergenceRounds, s.RestartEntries)
	fmt.Fprintf(&b, "ring movement: join moves %.1f%% of keys, leave moves %.1f%%\n",
		100*s.JoinMovedFraction, 100*s.LeaveMovedFraction)
	fmt.Fprintf(&b, "tracker: %d resolved, %d dropped, %d machines evicted, %d live\n",
		s.TrackerResolved, s.TrackerDropped, s.TrackerEvictedMachines, s.TrackerMachines)
	u := &s.Utilization
	fmt.Fprintf(&b, "utilization: up %.1f%%, mean load %.1f%%, harvestable %.1f%%; SMP accuracy %.3f (wasted %.3f), mean TR %.3f vs empirical %.3f\n",
		100*u.UpFraction, u.MeanCPUPercent, 100*u.HarvestableFraction,
		u.SMPAccuracy, u.WastedFraction, u.MeanPredictedTR, u.SMPEmpiricalSurvival)
	fo := &s.FleetObs
	sloState := "none"
	if len(fo.SLO) > 0 {
		sloState = "ok"
		if !fo.SLO[0].OK {
			sloState = "VIOLATED (" + fo.SLO[0].Reason + ")"
		}
	}
	fmt.Fprintf(&b, "obs: %d/%d/%d peers ok/stale/unreachable (outage sweep %d stale), %d alerts, slo %s, %.0f B/peer %.1fms merge\n",
		fo.PeersOK, fo.PeersStale, fo.PeersUnreachable, fo.OutagePeersStale,
		fo.AlertsTotal, sloState, p.ObsBytesPerPeer, 1000*p.ObsAggregateSeconds)
	fmt.Fprintf(&b, "perf: %.0f predictions/s, p50 %.0fus p99 %.0fus, %.0f samples/s, %.0f registrations/s\n",
		p.PredictionsPerSec, p.LatencyP50Micros, p.LatencyP99Micros, p.SamplesPerSec, p.RegistrationsPerSec)
	fmt.Fprintf(&b, "memory: heap %.1f MiB (%.0f B/machine), rss %.1f MiB (%.0f B/machine)\n",
		float64(p.HeapBytes)/(1<<20), p.HeapBytesPerMachine,
		float64(p.RSSBytes)/(1<<20), p.RSSBytesPerMachine)
	fmt.Fprintf(&b, "wall: build %.1fs register %.1fs traffic %.1fs churn %.1fs total %.1fs\n",
		p.BuildSeconds, p.RegisterSeconds, p.TrafficSeconds, p.ChurnSeconds, p.TotalSeconds)
	fmt.Fprintf(&b, "traffic steps: feed %.2fs query %.2fs heartbeat %.2fs storm %.2fs evict %.2fs obs %.2fs (untimed %.2fs)\n",
		p.FeedSeconds, p.QuerySeconds, p.HeartbeatSeconds, p.ChurnStormSeconds, p.EvictSeconds, p.TrafficObsSeconds,
		p.TrafficSeconds-p.trafficStepSeconds())
	fmt.Fprintf(&b, "transcript: %s / outage %s\n", s.TranscriptFNV, s.OutageTranscriptFNV)
	return b.String()
}

// percentile returns the q-quantile (0..1) of sorted, or 0 when empty.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// sortFloats sorts in place and returns its argument.
func sortFloats(v []float64) []float64 {
	sort.Float64s(v)
	return v
}

// readRSS returns the process's resident set size in bytes, or 0 when the
// platform does not expose /proc/self/status.
func readRSS() uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
