package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// samplePeerObs builds a realistic export: counters with escaped label
// values, gauges, a histogram and alerts.
func samplePeerObs(peer string) *PeerObs {
	r := NewRegistry()
	r.Counter("fgcs_gateway_requests_total", "Gateway RPCs served, by request type.",
		Label{Key: "type", Value: "query-tr"}).Add(7)
	r.Counter("fgcs_gateway_requests_total", "Gateway RPCs served, by request type.",
		Label{Key: "type", Value: `odd"quoted\value`}).Add(3)
	r.Gauge("fgcs_ring_peers", "Peers on the ring.").Set(4)
	h := r.Histogram("fgcs_query_seconds", "Query latency.", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.002, 0.02, 0.5} {
		h.Observe(v)
	}

	base := time.Date(2026, 6, 3, 23, 0, 0, 0, time.UTC)
	ring := NewAlertRing(8)
	ring.Append(Alert{Kind: AlertAccuracyDrift, Machine: "m01", Predictor: "SMP",
		Value: 0.2, Threshold: 0.05, Message: "Brier mean shifted up", Time: base.Add(time.Hour)})
	ring.Append(Alert{Kind: AlertShedRate, Value: 0.5, Threshold: 0.25,
		Message: "shed half the admissions", Time: base.Add(2 * time.Hour)})

	return ExportPeerObs(peer, r, ring)
}

func TestObsCodecRoundTrip(t *testing.T) {
	p := samplePeerObs("gw01")
	enc := p.EncodeBinary()
	dec, err := DecodeObsSnapshot(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Peer != "gw01" {
		t.Errorf("peer %q after round trip", dec.Peer)
	}
	if len(dec.Metrics) != len(p.Metrics) {
		t.Fatalf("%d series, want %d", len(dec.Metrics), len(p.Metrics))
	}
	if len(dec.Alerts) != 2 || dec.Alerts[0].Kind != AlertAccuracyDrift {
		t.Fatalf("alerts %+v", dec.Alerts)
	}
	if !dec.Alerts[0].Time.Equal(p.Alerts[0].Time) {
		t.Errorf("alert time %v, want %v", dec.Alerts[0].Time, p.Alerts[0].Time)
	}
	// The encoding is canonical: re-encoding the decoded snapshot must
	// reproduce the original bytes exactly.
	if re := dec.EncodeBinary(); !bytes.Equal(re, enc) {
		t.Error("re-encoded snapshot differs from the original bytes")
	}
}

func TestObsCodecNilSources(t *testing.T) {
	p := ExportPeerObs("gw00", nil, nil)
	dec, err := DecodeObsSnapshot(p.EncodeBinary())
	if err != nil {
		t.Fatalf("decode of empty export: %v", err)
	}
	if dec.Peer != "gw00" || len(dec.Metrics) != 0 || len(dec.Alerts) != 0 {
		t.Errorf("empty export round-tripped to %+v", dec)
	}
}

func TestObsDecodeRejections(t *testing.T) {
	good := samplePeerObs("gw01").EncodeBinary()

	corrupt := func(mutate func([]byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return mutate(b)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "magic"},
		{"short", good[:3], "magic"},
		{"bad magic", corrupt(func(b []byte) []byte { b[0] = 'X'; return b }), "magic"},
		{"bad version", corrupt(func(b []byte) []byte { b[4] = 99; return b }), "version"},
		{"trailing bytes", append(append([]byte(nil), good...), 0), "trailing"},
		{"truncated", good[:len(good)-5], "obs:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeObsSnapshot(tc.data); err == nil {
				t.Fatal("corrupt snapshot decoded")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// forgedLineExport and brokenBlockExport are the two v1 defects in their v2
// form. As a v1 counter id, "fgcs_x 1\nfgcs_gateway_requests_total{type=...}"
// was decoded, merged and printed verbatim — a forged sample line on the
// aggregator's fleet page; as a v1 histogram id, "fgcs_h{" panicked the label
// splicer on every fleet scrape. twoKindsExport claims one id as a counter
// and as a gauge.
func forgedLineExport() []byte {
	return (&PeerObs{Peer: "liar", Metrics: Snapshot{{Name: "fgcs_x 1\nfgcs_gateway_requests_total",
		Labels: []Label{{"type", "query-tr"}}, Count: 999999}}}).EncodeBinary()
}

func brokenBlockExport() []byte {
	return (&PeerObs{Peer: "liar", Metrics: Snapshot{{Name: "fgcs_h{", Kind: KindHistogram,
		Hist: HistogramSnapshot{Bounds: []float64{1}, Counts: []uint64{1, 0}, Sum: 1, Count: 1}}}}).EncodeBinary()
}

func twoKindsExport() []byte {
	return (&PeerObs{Peer: "liar", Metrics: Snapshot{{Name: "fgcs_x_total", Count: 1},
		{Name: "fgcs_x_total", Kind: KindGauge, Value: 1}}}).EncodeBinary()
}

func TestObsDecodeRejectsDuplicatesAndBadClaims(t *testing.T) {
	// EncodeBinary writes what it is given, so an export no registry could
	// produce is built by handing it one.
	export := func(series ...Series) []byte { return (&PeerObs{Peer: "x", Metrics: series}).EncodeBinary() }
	labelled := func(labels ...Label) []byte { return export(Series{Name: "fgcs_x_total", Labels: labels}) }
	hist := func(bounds ...float64) []byte {
		return export(Series{Name: "fgcs_h", Kind: KindHistogram,
			Hist: HistogramSnapshot{Bounds: bounds, Counts: make([]uint64, len(bounds)+1)}})
	}
	wide := make([]float64, maxObsBounds+1)
	for j := range wide {
		wide[j] = float64(j)
	}
	// A claimed element count larger than the remaining bytes must be
	// rejected before any allocation proportional to the claim. Layout:
	// magic(4) version(1) peer(len+str) seriesCount(uvarint).
	big := export()
	big[5+1+len("x")] = 0xFF

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"forged sample line in a name", forgedLineExport(), "malformed"},
		{"unterminated label block in a name", brokenBlockExport(), "malformed"},
		{"one id under two kinds", twoKindsExport(), "another kind"},
		{"one family under two kinds", export(Series{Name: "fgcs_x_total", Labels: []Label{{"a", "1"}}},
			Series{Name: "fgcs_x_total", Labels: []Label{{"a", "2"}}, Kind: KindGauge}), "another kind"},
		{"repeated series", export(Series{Name: "fgcs_x_total"}, Series{Name: "fgcs_x_total"}), "repeated"},
		{"series out of order", export(Series{Name: "fgcs_y_total"}, Series{Name: "fgcs_x_total"}), "repeated"},
		{"empty name", export(Series{}), "malformed"},
		{"derived family", export(Series{Name: "fgcs_fleet_peers", Kind: KindGauge, Value: 9}), "reserved"},
		{"unknown kind", export(Series{Name: "fgcs_x_total", Kind: 3}), "unknown kind"},
		{"label key with a colon", labelled(Label{"a:b", ""}), "label key"},
		{"reserved label key", labelled(Label{"le", "1"}), "label key"},
		{"repeated label key", labelled(Label{"a", "1"}, Label{"a", "2"}), "label key"},
		{"label keys out of order", labelled(Label{"b", "1"}, Label{"a", "2"}), "label key"},
		// Invalid on the wire even though a local registry can never build one.
		{"non-increasing bounds", hist(1, 1), "not increasing"},
		// Capped regardless of payload size.
		{"over-wide histogram", hist(wide...), "bounds"},
		{"oversized claim", big, "claims"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeObsSnapshot(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("decoded, or rejected for another reason than %q: %v", tc.want, err)
			}
		})
	}
}

func TestFleetMergeCommutative(t *testing.T) {
	text := func(order []string) string {
		f := &FleetSnapshot{}
		for _, peer := range order {
			f.Add(samplePeerObs(peer), PeerStatus{Status: PeerOK})
		}
		var buf bytes.Buffer
		if err := f.series().WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	ab := text([]string{"gw01", "gw02"})
	ba := text([]string{"gw02", "gw01"})
	if ab != ba {
		t.Fatalf("merge order changed the rendered fleet snapshot:\n--- A,B ---\n%s--- B,A ---\n%s", ab, ba)
	}
}

func TestFleetMergeSumsAndStatuses(t *testing.T) {
	f := &FleetSnapshot{}
	f.Add(samplePeerObs("gw01"), PeerStatus{Status: PeerOK})
	f.Add(samplePeerObs("gw02"), PeerStatus{Status: PeerStale, AgeSeconds: 30, Err: "fetch timed out"})
	f.AddUnreachable("gw03", "connection refused")

	id := `fgcs_gateway_requests_total{type="query-tr"}`
	if got := f.Metrics.Find("fgcs_gateway_requests_total", Label{"type", "query-tr"}).Count; got != 14 || f.View(0).Counters[id] != 14 {
		t.Errorf("merged counter %s = %d, want 14 (7 per peer) under that key of the view", id, got)
	}
	hist := f.Metrics.Find("fgcs_query_seconds").Hist
	if hist.Count != 8 {
		t.Errorf("merged histogram count %d, want 8", hist.Count)
	}

	// Alerts carry their origin peer after the merge.
	for _, a := range f.Alerts {
		if a.Peer != "gw01" && a.Peer != "gw02" {
			t.Errorf("merged alert not stamped with a peer: %+v", a)
		}
	}

	v := f.View(0)
	if len(v.Peers) != 3 {
		t.Fatalf("%d peer rows, want 3", len(v.Peers))
	}
	// View sorts peers by name.
	for i, want := range []string{"gw01", "gw02", "gw03"} {
		if v.Peers[i].Peer != want {
			t.Errorf("peer row %d is %q, want %q", i, v.Peers[i].Peer, want)
		}
	}
	if v.Peers[2].Status != PeerUnreachable || v.Peers[2].Err != "connection refused" {
		t.Errorf("unreachable row %+v", v.Peers[2])
	}
	if v.AlertsTotal != 4 {
		t.Errorf("alerts total %d, want 4", v.AlertsTotal)
	}
}

func TestFleetViewAlertTruncationKeepsNewest(t *testing.T) {
	f := &FleetSnapshot{}
	p := &PeerObs{Peer: "gw01"}
	for i := 1; i <= 6; i++ {
		p.Alerts = append(p.Alerts, Alert{Seq: uint64(i), Kind: AlertShedRate})
	}
	f.Add(p, PeerStatus{Status: PeerOK})
	v := f.View(2)
	if v.AlertsTotal != 6 {
		t.Errorf("alerts total %d, want 6", v.AlertsTotal)
	}
	if len(v.Alerts) != 2 || v.Alerts[0].Seq != 5 || v.Alerts[1].Seq != 6 {
		t.Errorf("truncated alerts %+v, want the newest (seq 5, 6)", v.Alerts)
	}
}

func TestFleetMergeHistogramLayoutConflict(t *testing.T) {
	hist := func(bound float64) Series {
		return Series{Name: "fgcs_h", Kind: KindHistogram, Hist: HistogramSnapshot{Bounds: []float64{bound}, Counts: []uint64{0, 0}}}
	}
	f := &FleetSnapshot{}
	f.Add(&PeerObs{Peer: "gw01", Metrics: Snapshot{hist(1)}}, PeerStatus{Status: PeerOK})
	f.Add(&PeerObs{Peer: "gw02", Metrics: Snapshot{hist(2)}}, PeerStatus{Status: PeerOK})
	f.Add(&PeerObs{Peer: "gw03", Metrics: Snapshot{{Name: "fgcs_h", Kind: KindGauge}}}, PeerStatus{Status: PeerOK})
	if len(f.Peers) != 3 {
		t.Fatalf("%d peer rows", len(f.Peers))
	}
	// Each conflict lands on the status row of the peer that brought it; the
	// merge itself survives, with the first peer's series.
	if f.Peers[0].Err != "" || !strings.Contains(f.Peers[1].Err, "bucket layouts") || !strings.Contains(f.Peers[2].Err, "histogram here and a gauge there") {
		t.Errorf("conflicts not recorded on the status rows of the peers that brought them: %+v", f.Peers)
	}
	if len(f.Metrics) != 1 || f.Metrics[0].Hist.Bounds[0] != 1 {
		t.Errorf("merged series %+v, want the first peer's histogram alone", f.Metrics)
	}
}

// TestFleetWriteTextConformance checks the Prometheus text exposition
// invariants the fleet page promises: every family typed once ahead of its
// samples, merged ones included; quoted and escaped label values; sorted
// series; and cumulative histogram buckets ending in a +Inf bucket equal to
// _count, with a _sum sample alongside.
func TestFleetWriteTextConformance(t *testing.T) {
	f := &FleetSnapshot{}
	f.Add(samplePeerObs("gw01"), PeerStatus{Status: PeerOK})
	f.Add(samplePeerObs("gw02"), PeerStatus{Status: PeerOK})
	var buf bytes.Buffer
	if err := f.series().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	kinds, err := checkExposition(text)
	if err != nil {
		t.Fatal(err)
	}
	for family, want := range map[string]string{
		"fgcs_gateway_requests_total": "counter", "fgcs_ring_peers": "gauge", "fgcs_query_seconds": "histogram",
		"fgcs_fleet_peer_status": "gauge", "fgcs_fleet_alerts_kind": "gauge",
	} {
		if kinds[family] != want {
			t.Errorf("family %s typed %q, want %s", family, kinds[family], want)
		}
	}
	for family := range kinds {
		if strings.HasPrefix(family, "fgcs_accuracy_") {
			t.Errorf("accuracy family %s on the fleet page: a node serves its own accuracy", family)
		}
	}
	if !strings.Contains(text, "# HELP fgcs_gateway_requests_total Gateway RPCs served, by request type.\n") {
		t.Error("merged family lost its HELP line")
	}
	if !strings.Contains(text, "fgcs_fleet_peers 2\n") || !strings.Contains(text, "fgcs_fleet_alerts_kind{kind=\"shed-rate\"} 2\n") {
		t.Error("missing fgcs_fleet_peers or fgcs_fleet_alerts_kind sample")
	}
	// Label escaping: the odd value must appear quoted with its quote and
	// backslash escaped.
	if !strings.Contains(text, `type="odd\"quoted\\value"`) {
		t.Error("label value with quote and backslash not escaped")
	}
	// Series of one metric render in sorted label order.
	odd := strings.Index(text, `fgcs_gateway_requests_total{type="odd`)
	qtr := strings.Index(text, `fgcs_gateway_requests_total{type="query-tr"}`)
	if odd < 0 || qtr < 0 || odd > qtr {
		t.Errorf("counter series not in sorted order (odd at %d, query-tr at %d)", odd, qtr)
	}

	// Histogram invariants: cumulative buckets, +Inf last and equal to
	// _count, a _sum sample present.
	var cums []uint64
	var infCum, count uint64
	sawSum := false
	lastLe := ""
	for _, line := range strings.Split(text, "\n") {
		val := line[strings.LastIndexByte(line, ' ')+1:]
		switch {
		case strings.HasPrefix(line, "fgcs_query_seconds_bucket{"):
			var cum uint64
			if _, err := fmt.Sscanf(val, "%d", &cum); err != nil {
				t.Fatalf("bucket line %q: %v", line, err)
			}
			cums = append(cums, cum)
			start := strings.Index(line, `le="`) + 4
			lastLe = line[start : start+strings.IndexByte(line[start:], '"')]
			if lastLe == "+Inf" {
				infCum = cum
			}
		case strings.HasPrefix(line, "fgcs_query_seconds_sum"):
			sawSum = true
		case strings.HasPrefix(line, "fgcs_query_seconds_count"):
			if _, err := fmt.Sscanf(val, "%d", &count); err != nil {
				t.Fatalf("count line %q: %v", line, err)
			}
		}
	}
	if len(cums) != 4 { // 3 bounds + the implicit +Inf bucket
		t.Fatalf("%d bucket samples, want 4", len(cums))
	}
	for i := 1; i < len(cums); i++ {
		if cums[i] < cums[i-1] {
			t.Errorf("bucket counts not cumulative: %v", cums)
		}
	}
	if lastLe != "+Inf" {
		t.Errorf("last bucket le=%q, want +Inf", lastLe)
	}
	if !sawSum {
		t.Error("no _sum sample for the merged histogram")
	}
	if count == 0 || infCum != count {
		t.Errorf("+Inf bucket %d != _count %d", infCum, count)
	}
}
