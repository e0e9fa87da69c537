package obs

import (
	"sort"

	"fgcs/internal/wire"
)

// Binary snapshot of a Tracker's resolved statistics, for the durable
// snapshot payload. Pending (unresolved) predictions are deliberately not
// included: their outcome windows are tied to a live monitor, and a restart
// abandons them — the prediction is simply re-issued by the next query.
// Sums are stored as exact float64 bits, so a restored tracker reports
// bit-identical statistics.

var accMagic = [4]byte{'F', 'G', 'A', 'T'}

// accVersion is the tracker snapshot format version.
const accVersion = 1

// accSumsMinBytes is the smallest encoding of one key's sums: two empty
// strings, three uvarints, two floats and the calibration buckets.
const accSumsMinBytes = 2 + 3 + 2*8 + CalibrationBuckets*(1+1+8)

// accSums is the accuracy state for one (machine, predictor) key: the
// tracker's raw sums, without the derived ratios or the rolling-window ring.
// FGAT stores a key as its sums followed by its ring.
type accSums struct {
	Machine   string
	Predictor string
	Resolved  uint64
	Survived  uint64
	Correct   uint64
	SumTR     float64
	BrierSum  float64

	CalibCount    [CalibrationBuckets]uint64
	CalibSurvived [CalibrationBuckets]uint64
	CalibSumTR    [CalibrationBuckets]float64
}

// stats derives the reportable summary from the sums, calibration table
// included. Rolling figures stay zero: only the ring holds them.
func (a accSums) stats() AccuracyStats {
	out := AccuracyStats{
		Machine:   a.Machine,
		Predictor: a.Predictor,
		Resolved:  a.Resolved,
		Survived:  a.Survived,
	}
	if a.Resolved > 0 {
		n := float64(a.Resolved)
		out.MeanTR = a.SumTR / n
		out.Empirical = float64(a.Survived) / n
		out.Brier = a.BrierSum / n
		out.Accuracy = float64(a.Correct) / n
	}
	for b := 0; b < CalibrationBuckets; b++ {
		cb := CalibrationBucket{
			Lo:    float64(b) / CalibrationBuckets,
			Hi:    float64(b+1) / CalibrationBuckets,
			Count: a.CalibCount[b],
		}
		if cb.Count > 0 {
			cb.MeanTR = a.CalibSumTR[b] / float64(cb.Count)
			cb.Empirical = float64(a.CalibSurvived[b]) / float64(cb.Count)
		}
		out.Calibration = append(out.Calibration, cb)
	}
	return out
}

// sums is one key's statistics without the rolling ring.
func (st *accStats) sums(key trackerKey) accSums {
	return accSums{
		Machine:       key.Machine,
		Predictor:     key.Predictor,
		Resolved:      st.resolved,
		Survived:      st.survived,
		Correct:       st.correct,
		SumTR:         st.sumTR,
		BrierSum:      st.brierSum,
		CalibCount:    st.calibCount,
		CalibSurvived: st.calibSurvived,
		CalibSumTR:    st.calibSumTR,
	}
}

// appendAccSums encodes one key's sums.
func appendAccSums(buf []byte, a *accSums) []byte {
	buf = wire.AppendString(buf, a.Machine)
	buf = wire.AppendString(buf, a.Predictor)
	buf = wire.AppendUvarint(buf, a.Resolved)
	buf = wire.AppendUvarint(buf, a.Survived)
	buf = wire.AppendUvarint(buf, a.Correct)
	buf = wire.AppendFloat64(buf, a.SumTR)
	buf = wire.AppendFloat64(buf, a.BrierSum)
	for b := 0; b < CalibrationBuckets; b++ {
		buf = wire.AppendUvarint(buf, a.CalibCount[b])
		buf = wire.AppendUvarint(buf, a.CalibSurvived[b])
		buf = wire.AppendFloat64(buf, a.CalibSumTR[b])
	}
	return buf
}

// readAccSums decodes what appendAccSums wrote.
func readAccSums(r *wire.Reader) (a accSums) {
	a.Machine = r.String()
	a.Predictor = r.String()
	a.Resolved = r.Uvarint()
	a.Survived = r.Uvarint()
	a.Correct = r.Uvarint()
	a.SumTR = r.Float64()
	a.BrierSum = r.Float64()
	for b := 0; b < CalibrationBuckets; b++ {
		a.CalibCount[b] = r.Uvarint()
		a.CalibSurvived[b] = r.Uvarint()
		a.CalibSumTR[b] = r.Float64()
	}
	return a
}

// ExportBinary serializes the tracker's resolved statistics.
func (t *Tracker) ExportBinary() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf := wire.AppendHeader(nil, accMagic, accVersion)
	buf = wire.AppendUvarint(buf, t.resolved)
	buf = wire.AppendUvarint(buf, t.dropped)
	buf = wire.AppendUvarint(buf, uint64(len(t.keys)))
	for _, key := range t.keys {
		st := t.stats[key]
		a := st.sums(key)
		buf = appendAccSums(buf, &a)
		buf = wire.AppendUvarint(buf, uint64(len(st.ring)))
		buf = wire.AppendUvarint(buf, uint64(st.ringNext))
		// Occupied entries live at indices [0, len(ring)): the ring grows
		// lazily, so before it wraps those are exactly the filled slots,
		// and once it wraps its length is the whole window.
		for _, e := range st.ring {
			buf = wire.AppendFloat64(buf, e.tr)
			buf = wire.AppendBool(buf, e.survived)
		}
	}
	return buf
}

// RestoreBinary decodes a snapshot produced by ExportBinary and returns the
// function that installs it, replacing the tracker's resolved statistics;
// pending predictions are untouched (normally empty at restore time).
// Nothing changes before install runs, so a caller restoring several
// components can decode them all before it installs any.
func (t *Tracker) RestoreBinary(data []byte) (install func(), err error) {
	r := wire.NewReader(data, "obs: tracker snapshot")
	r.Header(accMagic, accVersion)
	resolved, dropped := r.Uvarint(), r.Uvarint()
	nkeys := r.Count(accSumsMinBytes+2, "keys") // sums, ring length, ring cursor
	stats := make(map[trackerKey]*accStats, nkeys)
	keys := make([]trackerKey, 0, nkeys)
	for k := 0; k < nkeys && r.Err() == nil; k++ {
		a := readAccSums(&r)
		ringLen, ringNext := r.Count(9, "ring entries"), r.Uvarint()
		if ringLen > rollingWindow || ringNext >= rollingWindow {
			r.Fail("ring out of range")
			break
		}
		st := &accStats{
			resolved: a.Resolved, survived: a.Survived, correct: a.Correct,
			sumTR: a.SumTR, brierSum: a.BrierSum,
			calibCount: a.CalibCount, calibSurvived: a.CalibSurvived, calibSumTR: a.CalibSumTR,
			ring: make([]ringEntry, ringLen),
		}
		// The wrap cursor only means anything once the ring is full; a
		// partially-filled ring appends at its length (snapshots from the
		// fixed-array format stored the append position here).
		if ringLen == rollingWindow {
			st.ringNext = int(ringNext)
		}
		for i := range st.ring {
			st.ring[i] = ringEntry{tr: r.Float64(), survived: r.Bool()}
		}
		key := trackerKey{Machine: a.Machine, Predictor: a.Predictor}
		if _, dup := stats[key]; dup {
			r.Fail("duplicate key")
		}
		stats[key] = st
		keys = append(keys, key)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	return func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		t.resolved = resolved
		t.dropped = dropped
		t.stats = stats
		t.keys = keys
		// Restored machines join the retention scan (zero activity until a
		// live sample or prediction touches them); existing pending windows
		// are untouched.
		for _, key := range keys {
			if key.Machine == "_all" {
				continue
			}
			if _, ok := t.machines[key.Machine]; !ok {
				t.machines[key.Machine] = &machineState{}
			}
		}
	}, nil
}
