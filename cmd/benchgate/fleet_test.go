package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"fgcs/internal/fleetsim"
)

const sampleFleetReport = `{
  "sim": {
    "machines": 100000,
    "queries": 4800,
    "query_failures": 0,
    "outage_queries": 500,
    "outage_failures": 0
  },
  "perf": {
    "predictions_per_sec": 8000,
    "heap_bytes_per_machine": 15000,
    "rss_bytes_per_machine": 30000,
    "total_seconds": 100,
    "obs_plane_seconds": 0.5
  }
}`

func TestFleetGateWriteThenCompare(t *testing.T) {
	baseline := t.TempDir() + "/fleet_base.json"
	var stderr strings.Builder
	if err := runFleet(strings.NewReader(sampleFleetReport), baseline, true, &stderr); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if err := runFleet(strings.NewReader(sampleFleetReport), baseline, false, &stderr); err != nil {
		t.Fatalf("identical run failed the gate: %v\n%s", err, stderr.String())
	}

	cases := []struct {
		name, old, new, want string
	}{
		{"query failures", `"query_failures": 0`, `"query_failures": 3`, "queries failed"},
		{"outage failures", `"outage_failures": 0`, `"outage_failures": 1`, "peer outage"},
		{"throughput regression", `"predictions_per_sec": 8000`, `"predictions_per_sec": 7000`, "regressed"},
		{"memory regression", `"rss_bytes_per_machine": 30000`, `"rss_bytes_per_machine": 40000`, "regressed"},
		{"obs plane cost", `"obs_plane_seconds": 0.5`, `"obs_plane_seconds": 5`, "observability plane cost"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := strings.Replace(sampleFleetReport, tc.old, tc.new, 1)
			var stderr strings.Builder
			err := runFleet(strings.NewReader(bad), baseline, false, &stderr)
			if err == nil {
				t.Fatalf("run with %s passed the gate", tc.name)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("no violation mentioning %q in:\n%s", tc.want, stderr.String())
			}
		})
	}
}

func TestFleetGateAbsoluteThresholds(t *testing.T) {
	baseline := t.TempDir() + "/fleet_base.json"
	// Absolute ceilings apply even in -write mode: a failing run must not
	// become the baseline.
	cases := []struct {
		name, old, new, want string
	}{
		{"over memory", `"rss_bytes_per_machine": 30000`, `"rss_bytes_per_machine": 50000`, "rss 50000 B/machine above allowed 49152"},
		{"under throughput", `"predictions_per_sec": 8000`, `"predictions_per_sec": 2000`, "below required 2500"},
		{"obs plane cost", `"obs_plane_seconds": 0.5`, `"obs_plane_seconds": 2.5`, "above allowed 2.00%"},
		// Heap is the fallback measure when RSS is unavailable.
		{"heap fallback", "\"heap_bytes_per_machine\": 15000,\n    \"rss_bytes_per_machine\": 30000",
			"\"heap_bytes_per_machine\": 50000,\n    \"rss_bytes_per_machine\": 0", "heap 50000 B/machine above allowed 49152"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := strings.Replace(sampleFleetReport, tc.old, tc.new, 1)
			var stderr strings.Builder
			if err := runFleet(strings.NewReader(bad), baseline, true, &stderr); err == nil {
				t.Fatalf("%s run recorded a baseline", tc.name)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("no violation mentioning %q in:\n%s", tc.want, stderr.String())
			}
		})
	}
	noRSS := strings.Replace(sampleFleetReport, `"rss_bytes_per_machine": 30000`, `"rss_bytes_per_machine": 0`, 1)
	var stderr strings.Builder
	if err := runFleet(strings.NewReader(noRSS), baseline, true, &stderr); err != nil {
		t.Fatalf("heap fallback under the ceiling failed: %v\n%s", err, stderr.String())
	}
}

// checkedInBaseKeys is the key set of a BENCH_fleet_base.json recorded
// before the report gained its fleet_obs block, its obs_* costs and the
// traffic phase's heartbeat, storm, evict and obs steps.
var checkedInBaseKeys = struct{ sim, perf []string }{
	sim: []string{"machines", "gateways", "replicas", "vnodes", "profiles", "history_days", "period_seconds",
		"ticks", "workers", "seed", "registered", "register_rpcs", "register_request_bytes", "heartbeat_rounds",
		"heartbeat_request_bytes", "control_bytes_per_machine", "placement_imbalance", "samples_fed",
		"day_rollovers", "queries", "query_failures", "query_request_bytes", "transcript_fnv", "leave_machines",
		"join_machines", "entries_before_reap", "entries_after_reap", "join_moved_keys", "join_moved_fraction",
		"leave_moved_keys", "leave_moved_fraction", "outage_queries", "outage_failures", "outage_transcript_fnv",
		"convergence_rounds", "convergence_accepted", "restart_entries", "tracker_resolved", "tracker_dropped",
		"tracker_evicted_machines", "tracker_machines", "utilization"},
	perf: []string{"build_seconds", "register_seconds", "traffic_seconds", "feed_seconds", "query_seconds",
		"churn_seconds", "total_seconds", "predictions_per_sec", "samples_per_sec", "registrations_per_sec",
		"latency_p50_micros", "latency_p99_micros", "heap_bytes", "heap_bytes_per_machine", "rss_bytes",
		"rss_bytes_per_machine", "response_bytes", "goroutines"},
}

// reportWithKeys renders a report envelope holding exactly the given keys.
func reportWithKeys(t *testing.T, sim, perf []string) []byte {
	t.Helper()
	sections := map[string]map[string]int{"sim": {}, "perf": {}}
	for _, k := range sim {
		sections["sim"][k] = 1
	}
	for _, k := range perf {
		sections["perf"][k] = 1
	}
	raw, err := json.Marshal(sections)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestFleetGateRefusesStaleSchemaBaseline(t *testing.T) {
	// The keys fleetsim emits today, from its report type.
	current, err := json.Marshal(fleetsim.Report{})
	if err != nil {
		t.Fatal(err)
	}
	checkedIn := reportWithKeys(t, checkedInBaseKeys.sim, checkedInBaseKeys.perf)
	cases := []struct {
		name             string
		report, baseline []byte
		want             []string
	}{
		{"current report, same schema", current, current, nil},
		{"current report, checked-in base", current, checkedIn,
			[]string{"perf.churn_storm_seconds", "perf.evict_seconds", "perf.heartbeat_seconds", "perf.obs_aggregate_seconds",
				"perf.obs_bytes_per_peer", "perf.obs_plane_seconds", "perf.traffic_obs_seconds", "sim.fleet_obs"}},
		{"extra baseline keys are no refusal", reportWithKeys(t, []string{"machines"}, nil), checkedIn, nil},
		{"both sections named", reportWithKeys(t, []string{"machines", "b"}, []string{"a"}),
			reportWithKeys(t, []string{"machines"}, nil), []string{"perf.a", "sim.b"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := missingKeys(tc.report, tc.baseline)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Join(got, ",") != strings.Join(tc.want, ",") {
				t.Fatalf("missing keys = %v, want %v", got, tc.want)
			}
		})
	}

	// Through the gate: the refusal names the keys and fails the run.
	baseline := t.TempDir() + "/fleet_base.json"
	stale := strings.Replace(sampleFleetReport, `"obs_plane_seconds": 0.5`, `"goroutines": 1`, 1)
	if err := os.WriteFile(baseline, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr strings.Builder
	if err := runFleet(strings.NewReader(sampleFleetReport), baseline, false, &stderr); err == nil {
		t.Fatal("baseline without perf.obs_plane_seconds accepted")
	}
	if !strings.Contains(stderr.String(), "lacks key(s) the report emits") || !strings.Contains(stderr.String(), "perf.obs_plane_seconds") {
		t.Fatalf("refusal does not name the missing key:\n%s", stderr.String())
	}
}
