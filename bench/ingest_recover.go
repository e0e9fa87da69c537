package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/durable"
	"fgcs/internal/ishare"
	"fgcs/internal/monitor"
	"fgcs/internal/trace"
)

const (
	ingestPreloadDays = 28
	// One op ingests one virtual hour.
	samplesPerHour = int(time.Hour / trace.DefaultPeriod)
	// Every 24th op ends a virtual day and snapshots; every 96th cycle
	// position 84 — twelve hours after a snapshot, so a twelve-hour WAL tail
	// is there to replay — closes the store and recovers into a fresh node.
	snapshotEvery  = 24
	recoverEvery   = 96
	recoverAt      = 84
	recoverTailOps = recoverAt % snapshotEvery
	// recentRing is the length of StateManager's ring of recent samples
	// under the default config: the suspend limit in periods, plus four.
	recentRing = int(time.Minute/trace.DefaultPeriod) + 4
)

// ingestNode is one host node with its persister over an in-memory
// filesystem. No real disk: this host's disk cannot represent one.
type ingestNode struct {
	*node
	clock   *benchClock
	fs      *durable.MemFS
	persist *ishare.Persister
}

// ingestRecover is the ingest-recover fixture: the same StateManager and
// Recorder that serve-hot only reads are here only written, and durable does
// most of the work. Recorder has no retention, so state and snapshot size
// grow with the days ingested; every repetition therefore starts from a
// fresh node holding the 28 preloaded days and ingests the same days, which
// makes the growth identical across repetitions.
type ingestRecover struct {
	seed    uint64
	id      string
	preload *trace.Machine // 28 days, quantized to the WAL's precision
	future  []*trace.Day   // the days the ops ingest, in order
	nd      *ingestNode
	lat     []int64
	rep     ingestRep

	snapshotBytes int64 // size of the last snapshot written (traced runs)
}

// ingestRep is the state of the repetition in progress.
type ingestRep struct {
	failed  int
	answers *digest
	notes   []string
}

func setupIngestRecover(seed uint64, traced bool) (fixture, error) {
	f := &ingestRecover{seed: seed}
	if err := f.generate(64); err != nil {
		return nil, err
	}
	var err error
	f.nd, err = f.freshNode()
	return f, err
}

// generate makes the preloaded days and `futureDays` days to ingest. All
// are quantized the way Persister.Record quantizes what it ingests, so a
// state rebuilt from a snapshot (which stores float32) classifies every
// sample as the state that wrote it did.
func (f *ingestRecover) generate(futureDays int) error {
	ds, _, err := histories(f.seed, 1, ingestPreloadDays+futureDays)
	if err != nil {
		return err
	}
	m := ds.Machines[0]
	f.id = m.ID
	f.preload = trace.NewMachine(m.ID, m.Period)
	for i, d := range m.Days {
		for j := range d.Samples {
			d.Samples[j] = durable.QuantizeSample(d.Samples[j])
		}
		if i < ingestPreloadDays {
			if err := f.preload.AddDay(d); err != nil {
				return err
			}
		}
	}
	f.future = m.Days[ingestPreloadDays:]
	return nil
}

// freshNode builds a node over an empty filesystem, installs the preloaded
// days and publishes them in a first snapshot.
func (f *ingestRecover) freshNode() (*ingestNode, error) {
	fs := durable.NewMemFS()
	nd, _, err := f.recoverNode(fs, nil, 0)
	if err != nil {
		return nil, err
	}
	hist := f.preload.Clone()
	lastDay := hist.Days[len(hist.Days)-1]
	last := lastDay.Date.Add(24*time.Hour - trace.DefaultPeriod)
	recent := lastDay.Samples[len(lastDay.Samples)-recentRing:]
	if err := nd.sm.RestoreHistory(hist, last, recent); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	if err := nd.persist.Snapshot(); err != nil {
		return nil, fmt.Errorf("first snapshot: %w", err)
	}
	return nd, nil
}

// recoverNode is durable.Open followed by NewPersister's replay into a fresh
// node — on an empty filesystem, simply a new node with a new store. It
// returns the number of sample records replayed from the WAL tail.
func (f *ingestRecover) recoverNode(fs *durable.MemFS, sb *spanBuf, op int) (*ingestNode, int, error) {
	sp := sb.begin("durable.recover.open_ms", -1, op)
	st, rec, err := durable.Open(durable.Config{FS: fs, Sync: durable.SyncBatch})
	sb.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("open store: %w", err)
	}
	clock := newBenchClock(f.preload.Days[0].Date)
	base, err := newNode(f.id, clock, nil)
	if err != nil {
		return nil, 0, err
	}
	sp = sb.begin("ishare.persist.replay_ms", -1, op)
	persist, err := ishare.NewPersister(st, rec, base.sm, base.gw, nil)
	sb.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("replay: %w", err)
	}
	replayed := 0
	for _, r := range rec.Records {
		if r.Type == durable.RecSample {
			replayed++
		}
	}
	return &ingestNode{node: base, clock: clock, fs: fs, persist: persist}, replayed, nil
}

func (f *ingestRecover) prepare(n int) error {
	if need := (n + 23) / 24; need > len(f.future) {
		if err := f.generate(need); err != nil {
			return err
		}
	}
	if cap(f.lat) < n {
		f.lat = make([]int64, n)
	}
	f.lat = f.lat[:n]
	if f.nd != nil {
		f.nd.persist.Close()
	}
	f.rep = ingestRep{answers: newDigest()}
	var err error
	f.nd, err = f.freshNode()
	return err
}

// hour returns the samples of virtual hour i and the time of the first.
func (f *ingestRecover) hour(i int) (time.Time, []trace.Sample) {
	day := f.future[i/24]
	first := (i % 24) * samplesPerHour
	return day.Date.Add(time.Duration(first) * trace.DefaultPeriod), day.Samples[first : first+samplesPerHour]
}

func (f *ingestRecover) run(tr *tracer) ([]int64, error) {
	ctx := context.Background()
	sb := tr.buf(wIngestRecover, 0)
	for i := range f.lat {
		t0 := time.Now()
		t, samples := f.hour(i)
		sp := sb.begin("ishare.persist.record_batch", -1, i)
		for _, s := range samples {
			f.nd.persist.Record(t, s)
			t = t.Add(trace.DefaultPeriod)
		}
		sb.end(sp)
		f.nd.clock.set(t.Add(-trace.DefaultPeriod))

		if (i+1)%snapshotEvery == 0 {
			sp := sb.begin("ishare.persist.snapshot_ms", -1, i)
			err := f.nd.persist.Snapshot()
			sb.end(sp)
			if err != nil {
				return nil, fmt.Errorf("snapshot at op %d: %w", i, err)
			}
			if tr != nil {
				f.snapshotBytes = newestSnapshotSize(f.nd.fs)
			}
		}

		if (i+1)%recoverEvery == recoverAt {
			before, err := f.nd.sm.QueryTR(ctx, hotQuery)
			if err != nil {
				return nil, fmt.Errorf("query before close at op %d: %w", i, err)
			}
			if err := f.nd.persist.Close(); err != nil {
				return nil, fmt.Errorf("close store at op %d: %w", i, err)
			}
			now := f.nd.clock.Now()
			nd, replayed, err := f.recoverNode(f.nd.fs, sb, i)
			if err != nil {
				return nil, fmt.Errorf("recover at op %d: %w", i, err)
			}
			nd.clock.set(now)
			after, err := nd.sm.QueryTR(ctx, hotQuery)
			// The recovered node must have replayed exactly the samples
			// appended since the last snapshot and answer as the closed one
			// did.
			if err != nil || replayed != recoverTailOps*samplesPerHour || !sameAnswer(before, after) {
				f.rep.failed++
				f.rep.notes = append(f.rep.notes, fmt.Sprintf("op %d: recovery replayed %d samples (want %d), answer %+v, before close %+v, err %v",
					i, replayed, recoverTailOps*samplesPerHour, after, before, err))
			}
			f.rep.answers.f64(before.TR)
			f.rep.answers.f64(after.TR)
			f.nd = nd
		}
		f.lat[i] = int64(time.Since(t0))
	}
	return f.lat, nil
}

func (f *ingestRecover) finish() repOutcome {
	return repOutcome{attempted: len(f.lat), failed: f.rep.failed, answers: f.rep.answers.sum(), notes: f.rep.notes}
}

// newestSnapshotSize is the size of the last snapshot file in fs.
func newestSnapshotSize(fs *durable.MemFS) int64 {
	names, err := fs.List()
	if err != nil {
		return 0
	}
	newest := ""
	for _, name := range names {
		if strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap") && name > newest {
			newest = name
		}
	}
	return fs.Size(newest)
}

// ladder runs the per-sample rungs on the first `hours` virtual hours.
func (f *ingestRecover) ladder(tr *tracer, ls *layerSet, hours int) error {
	sb := tr.buf(wIngestRecover, -1)
	cfg := avail.DefaultConfig()
	period := trace.DefaultPeriod

	st, _, err := durable.Open(durable.Config{FS: durable.NewMemFS(), Sync: durable.SyncBatch})
	if err != nil {
		return fmt.Errorf("ladder store: %w", err)
	}
	defer st.Close()
	rec := monitor.NewRecorder(f.id, period, 0)
	sm, err := ishare.NewStateManager(f.id, period, cfg, newBenchClock(f.future[0].Date), nil, 0)
	if err != nil {
		return err
	}
	var coder, payloadCoder durable.SampleCoder
	var buf []byte
	payloads := make([][]byte, samplesPerHour)
	var ring []trace.Sample
	var states []avail.State
	_, off0 := st.Position()

	// Each rung times one virtual hour (600 calls) per span: a clock read
	// costs more than most of these calls do.
	for i := 0; i < hours; i++ {
		t0, samples := f.hour(i)

		sp := sb.begin("durable.codec.encode_batch", -1, i)
		t := t0
		for _, s := range samples {
			buf = coder.Encode(buf[:0], t, s)
			t = t.Add(period)
		}
		sb.end(sp)

		t = t0
		for j, s := range samples {
			payloads[j] = payloadCoder.Encode(payloads[j][:0], t, s)
			t = t.Add(period)
		}
		sp = sb.begin("durable.wal.append_batch", -1, i)
		for _, p := range payloads {
			if err := st.Append(durable.RecSample, p); err != nil {
				return fmt.Errorf("ladder append: %w", err)
			}
		}
		sb.end(sp)

		sp = sb.begin("ishare.state.record_batch", -1, i)
		t = t0
		for _, s := range samples {
			sm.Record(t, s)
			t = t.Add(period)
		}
		sb.end(sp)

		r := sb.begin("monitor.recorder.record_batch", sp, i)
		t = t0
		for _, s := range samples {
			rec.Record(t, s)
			t = t.Add(period)
		}
		sb.end(r)

		c := sb.begin("avail.classify_batch", sp, i)
		for _, s := range samples {
			ring = append(ring, s)
			if len(ring) > recentRing {
				ring = ring[len(ring)-recentRing:]
			}
			states = avail.ClassifyInto(states, ring, cfg, period)
		}
		sb.end(c)
	}
	_, off1 := st.Position()

	mean, _ := tr.layerMeans(wIngestRecover)
	ls.fromSpans(wIngestRecover, mean)
	perSample := func(batch string) float64 { return mean[batch] / float64(samplesPerHour) }
	ls.set("ishare.persist.record_ns", perSample("ishare.persist.record_batch"))
	ls.set("durable.codec.encode_ns", perSample("durable.codec.encode_batch"))
	ls.set("durable.wal.append_ns", perSample("durable.wal.append_batch"))
	ls.set("ishare.state.record_ns", perSample("ishare.state.record_batch"))
	ls.set("monitor.recorder.record_ns", perSample("monitor.recorder.record_batch"))
	ls.set("avail.classify_ns", perSample("avail.classify_batch"))
	ls.set("durable.wal.bytes_per_sample", float64(off1-off0)/float64(hours*samplesPerHour))
	ls.set("durable.snapshot.bytes", float64(f.snapshotBytes))
	return nil
}

func (f *ingestRecover) close() {
	if f.nd != nil {
		f.nd.persist.Close()
	}
}
