package obs

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"fgcs/internal/wire/wiretest"
)

// FuzzDecodeObsSnapshot hammers the peer-obs wire decoder — the code path a
// federated gateway runs on every query-obs response from a (possibly
// compromised) peer — with arbitrary bytes. No input may panic it or make it
// allocate out of proportion before it is rejected; any input it accepts
// must re-encode to a canonical fixpoint (encode(decode(x)) decodes again
// and re-encodes byte-identically) and must merge and render into a page
// that meets the exposition grammar line by line.
func FuzzDecodeObsSnapshot(f *testing.F) {
	// A full export: counters, gauges, a histogram, alerts.
	f.Add(samplePeerObs("gw01").EncodeBinary())
	// A completely empty export from nil sources.
	f.Add(ExportPeerObs("", nil, nil).EncodeBinary())
	// Alerts only, including an awkward escaped message and zero time.
	ring := NewAlertRing(4)
	ring.Append(Alert{Kind: AlertBreakerFlap, Message: `flap "rate" > 3\step`,
		Time: time.Date(2026, 6, 4, 1, 2, 3, 4, time.UTC)})
	ring.Append(Alert{Kind: AlertShedRate})
	f.Add(ExportPeerObs("gw02", nil, ring).EncodeBinary())
	// Truncations and corruptions of a valid snapshot.
	good := samplePeerObs("gw03").EncodeBinary()
	f.Add(good[:len(good)/2])
	f.Add(append(append([]byte(nil), good...), 0x00))
	f.Add([]byte("FGOS"))
	f.Add([]byte{'F', 'G', 'O', 'S', obsVersion, 0xFF, 0xFF, 0xFF})
	// The v1 defects and a two-kind claim, all rejected; and what a hostile
	// peer can still say: a label value of quotes, backslashes and newlines.
	f.Add(forgedLineExport())
	f.Add(brokenBlockExport())
	f.Add(twoKindsExport())
	f.Add((&PeerObs{Peer: "liar", Metrics: Snapshot{{Name: "fgcs_x_total",
		Labels: []Label{{"type", "a\"} 1\nfgcs_y_total{type=\"b\\"}}, Count: 1}}}).EncodeBinary())

	f.Fuzz(func(t *testing.T, data []byte) {
		var p *PeerObs
		if wiretest.Bounded(t, data, func(b []byte) (err error) { p, err = DecodeObsSnapshot(b); return }) != nil {
			return
		}
		enc := p.EncodeBinary()
		q, err := DecodeObsSnapshot(enc)
		if err != nil {
			t.Fatalf("re-encoded accepted snapshot rejected: %v", err)
		}
		if again := q.EncodeBinary(); !bytes.Equal(again, enc) {
			t.Fatalf("canonical encoding is not a fixpoint:\n%x\n%x", enc, again)
		}
		// An accepted snapshot must also merge without panicking, however
		// adversarial its contents.
		fs := &FleetSnapshot{}
		fs.Add(p, PeerStatus{Status: PeerOK})
		fs.Add(q, PeerStatus{Status: PeerStale, AgeSeconds: 1})
		var buf bytes.Buffer
		if err := fs.series().WriteText(&buf); err != nil {
			t.Fatalf("merged fuzz snapshot failed to render: %v", err)
		}
		if _, err := checkExposition(buf.String()); err != nil {
			t.Fatalf("merged fuzz snapshot renders outside the exposition grammar: %v", err)
		}
	})
}

// FuzzRestoreBinary hammers the FGAT decoder, which reads the tracker blob
// of a node snapshot from disk. No input may panic it or allocate out of
// proportion before it is rejected; an accepted input yields a tracker whose
// export restores to the same export.
func FuzzRestoreBinary(f *testing.F) {
	good := sampleTracker(wrapped).ExportBinary()
	f.Add(good)
	f.Add(NewTracker().ExportBinary())
	f.Add(good[:len(good)/3])
	f.Add(append(append([]byte(nil), good...), 0x01))
	f.Add([]byte{'F', 'G', 'A', 'T', 1, 0, 0, 0xFF, 0xFF, 0x03})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr := NewTracker()
		if wiretest.Bounded(t, data, restoreInto(tr)) != nil {
			return
		}
		enc := tr.ExportBinary()
		again, err := restoreTracker(enc)
		if err != nil {
			t.Fatalf("export of an accepted snapshot rejected: %v", err)
		}
		if !bytes.Equal(again.ExportBinary(), enc) {
			t.Fatal("export does not restore to the same export")
		}
	})
}

// FuzzTrackerMatchesReference is TestTrackerMatchesReference with the
// operation stream taken from the fuzz input: whatever the schedule of
// records, bursts, samples and evictions, and whatever the cap, the ring
// and the slice-based reference queue resolve the same predictions in the
// same order into the same sums.
func FuzzTrackerMatchesReference(f *testing.F) {
	seeded := make([]byte, trackerOpBytes*96)
	rand.New(rand.NewSource(4)).Read(seeded)
	f.Add(uint8(2), seeded)
	f.Add(uint8(15), seeded[:trackerOpBytes*48])
	// Fill to the cap, drop the earliest deadline, then sample past it.
	f.Add(uint8(3), []byte{0, 0, 0, 3, 0, 0, 4, 0, 5, 4, 0, 6, 4, 0, 7})
	// Bursts on one machine, a failure, a long step, an eviction.
	f.Add(uint8(99), []byte{3, 15, 1, 3, 15, 1, 6, 1, 4, 3, 15, 1, 5, 1, 7, 7, 0, 0, 5, 1, 7})
	f.Add(uint8(0), []byte{3, 1, 2, 4, 2, 6})

	// Caps of 1 to 256 keep an execution near a millisecond — the fuzzer
	// minimizes every input that finds new coverage, an execution per byte
	// it tries to drop; TestTrackerMatchesReference covers the production cap.
	f.Fuzz(func(t *testing.T, maxPending uint8, ops []byte) {
		driveTrackers(t, 1+int(maxPending), ops)
	})
}
