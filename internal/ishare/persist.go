package ishare

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"time"

	"fgcs/internal/durable"
	"fgcs/internal/monitor"
	"fgcs/internal/obs"
	"fgcs/internal/simclock"
	"fgcs/internal/trace"
	"fgcs/internal/wire"
)

// Persister wires a host node's mutable state — the monitor's history log,
// the gateway's idempotency table and the accuracy tracker — onto a
// durable.Store. It sits in the monitor's sink chain: every sample is
// quantized to the WAL's storage precision, appended to the log, and only
// then applied to the live components, so the live state and a replay of
// the log are bit-identical and a restarted node answers QueryTR exactly as
// the pre-crash node did.
//
// Locking: p.mu serializes the sample step (append + apply) against
// snapshots. Submit and resolution records are appended outside p.mu,
// taking only the store's internal append mutex, so the hooks never nest
// component locks inside each other. That is safe against concurrent
// snapshots because Snapshot captures the WAL position BEFORE exporting
// state: a record appended before the captured position belongs to a
// mutation the export already saw (components mutate, then log), and one
// appended after it is replayed on recovery as an idempotent upsert.
type Persister struct {
	snapshotter
	sm      *StateManager
	gw      *Gateway
	tracker *obs.Tracker

	mu    sync.Mutex
	coder durable.SampleCoder
	buf   []byte
	hist  []byte // the inline history of the snapshot in progress
}

// A host-node snapshot is an FGNS payload and, from version 2 on, one
// durable part per sealed day — every recorded day before the last, which
// no sample changes again — keyed by its midnight in unix seconds and
// holding the day as trace.AppendDay writes it. The payload:
//
//	magic "FGNS" | version byte
//	uvarint len | FGCSTRC dataset  one machine: its ID and period, and the
//	                               days after the parts (version 2: the
//	                               last day; version 1: every day)
//	varint last-sample unix ms
//	uvarint n | n recent samples   float64 CPU, float64 memory, up byte
//	uvarint n | n submit keys      key, job ID (strings), sorted by key
//	uvarint next job ID
//	bytes tracker blob             obs.Tracker.ExportBinary
//
// A snapshot therefore writes the days sealed since the one before it,
// the last day and the tail: its cost follows today, not the history.
var nodeSnapMagic = [4]byte{'F', 'G', 'N', 'S'}

// nodeSnapVersion is the host-node snapshot payload version; version 1,
// with no parts and the whole history inline, is still read.
const nodeSnapVersion = 2

// NewPersister builds the persistence layer for one host node and replays
// the recovered state into its components: snapshot first, then the WAL
// tail. It installs the gateway submit hook and the tracker resolution hook;
// the caller routes monitor samples through Record (the Persister is the
// monitor sink, wrapping the gateway).
func NewPersister(st *durable.Store, rec *durable.Recovery, sm *StateManager, gw *Gateway, logger *slog.Logger) (*Persister, error) {
	if st == nil || sm == nil || gw == nil {
		return nil, fmt.Errorf("ishare: persister needs store, state manager and gateway")
	}
	p := &Persister{sm: sm, gw: gw, tracker: sm.obsv.Tracker}
	p.snapshotter = newSnapshotter(st, p.Snapshot, logger)
	if rec != nil {
		if err := p.restore(rec); err != nil {
			return nil, err
		}
	}
	gw.setSubmitSink(p.appendSubmit)
	p.tracker.SetResolutionSink(p.appendResolution)
	return p, nil
}

// Record implements monitor.Sink: quantize, log, apply. The quantization
// happens before the live components see the sample, which is what makes
// replayed state bit-identical to live state. An append failure is logged
// and the sample still applied — a monitoring sample is never client-
// acknowledged, so availability wins over durability for it. A reading no
// log can hold (trace.Storable) is dropped with a warning, neither logged
// nor applied: the WAL's unit counts would garble it.
func (p *Persister) Record(t time.Time, s trace.Sample) {
	t = durable.QuantizeTime(t)
	s = durable.QuantizeSample(s)
	if !trace.Storable(s) {
		p.warn("out-of-range sample dropped", slog.Time("sample_time", t),
			slog.Float64("cpu", s.CPU), slog.Float64("free_mem_mb", s.FreeMemMB))
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.buf = p.coder.Encode(p.buf[:0], t, s)
	if err := p.st.Append(durable.RecSample, p.buf); err != nil {
		p.warn("sample append failed", slog.String("err", err.Error()))
	}
	p.gw.Record(t, s)
}

// appendSubmit logs one accepted submit (the gateway's submit sink).
func (p *Persister) appendSubmit(key, jobID string) {
	if err := p.st.Append(durable.RecSubmitKey, durable.EncodeSubmitKey(nil, key, jobID)); err != nil {
		p.warn("submit append failed", slog.String("job", jobID), slog.String("err", err.Error()))
	}
}

// appendResolution logs one resolved prediction (the tracker's resolution
// sink). On a host node resolutions only fire inside the sample step, so
// these appends are already serialized against snapshots by p.mu.
func (p *Persister) appendResolution(machine, predictor string, tr float64, survived bool) {
	if err := p.st.Append(durable.RecAccuracy, durable.EncodeAccuracy(nil, machine, predictor, tr, survived)); err != nil {
		p.warn("accuracy append failed", slog.String("err", err.Error()))
	}
}

// Snapshot publishes the node's full state and starts a fresh sample delta
// chain, so replay from the snapshot never needs records before it. Of the
// history it writes only the days sealed since the last snapshot, each a
// part of its own, and the last day; the store lists the parts published
// before (after a restart, those the recovered snapshot listed). The WAL
// position is captured BEFORE the state is exported: a submit record
// appended concurrently (the gateway's sink runs outside p.mu) either
// precedes the captured position — then its mutation is already in the
// export — or lands after it and is replayed on top as an idempotent
// upsert. Sample and resolution records cannot interleave at all: they are
// serialized against this method by p.mu.
func (p *Persister) Snapshot() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	seq, off := p.st.Position()
	parts, payload, err := p.nodeSnapshot()
	if err == nil {
		err = p.st.WriteSnapshotAt(seq, off, payload, parts...)
	}
	if err == nil {
		p.coder.Reset()
	}
	return err
}

// snapshotter is the snapshot lifecycle Persister and RegPersister share:
// the periodic loop, the clean-shutdown flush, and the nil-safe logger.
type snapshotter struct {
	st       *durable.Store
	snapshot func() error
	logger   *slog.Logger
}

func newSnapshotter(st *durable.Store, snapshot func() error, logger *slog.Logger) snapshotter {
	if logger != nil {
		logger = logger.With(slog.String("component", "persist"))
	}
	return snapshotter{st: st, snapshot: snapshot, logger: logger}
}

// StartSnapshots writes a snapshot every interval (<= 0 = 5 minutes) until
// the returned stop function is called. Failures are logged and retried next
// round.
func (s *snapshotter) StartSnapshots(every time.Duration) (stop func()) {
	if every <= 0 {
		every = 5 * time.Minute
	}
	return StartLoop(simclock.Real{}, every, func() {
		if err := s.snapshot(); err != nil {
			s.warn("periodic snapshot failed", slog.String("err", err.Error()))
		}
	})
}

// Flush writes a final snapshot and closes the store — the clean-shutdown
// path: a process restarted from this state replays zero WAL records.
func (s *snapshotter) Flush() error {
	if err := s.snapshot(); err != nil {
		_ = s.st.Close()
		return err
	}
	return s.st.Close()
}

// Close flushes and closes the WAL without a final snapshot. On a host node,
// call it after the monitor has stopped.
func (s *snapshotter) Close() error { return s.st.Close() }

func (s *snapshotter) warn(msg string, args ...interface{}) {
	if s.logger != nil {
		s.logger.Warn(msg, args...)
	}
}

// StartLoop calls fn every interval on clock, on its own goroutine, until
// the returned stop function is called; stop is idempotent and does not wait
// for a call in flight. Every periodic duty of a daemon runs on it: snapshots,
// anti-entropy, registry heartbeats, and ishared's obs step.
func StartLoop(clock simclock.Clock, every time.Duration, fn func()) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		for {
			select {
			case <-done:
				return
			case <-clock.After(every):
				fn()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// restore applies recovered state: the snapshot, then the WAL tail in
// order. The snapshot is decoded from its stream and installed only once
// the stream has ended on a verified checksum and every field has decoded,
// so a damaged one leaves the components untouched. Unknown record types
// are skipped with a warning so a newer node's log does not brick an older
// binary.
func (p *Persister) restore(rec *durable.Recovery) error {
	var snap *nodeState
	var dec trace.Decoder // one scratch for the inline days and every part
	if err := rec.ReadSnapshot(func(payload io.Reader) (err error) {
		snap, err = p.decodeNodeSnapshot(payload, &dec)
		return err
	}, func(key uint64, r io.Reader) error {
		return snap.readPart(&dec, key, r)
	}); err != nil {
		return fmt.Errorf("ishare: node snapshot: %w", err)
	}
	if snap != nil {
		if err := snap.install(p); err != nil {
			return fmt.Errorf("ishare: node snapshot: %w", err)
		}
	}
	var coder durable.SampleCoder
	for i, r := range rec.Records {
		switch r.Type {
		case durable.RecSample:
			t, s, err := coder.Decode(r.Payload)
			if err != nil {
				return fmt.Errorf("ishare: replay record %d: %w", i, err)
			}
			p.sm.restoreSample(t, s)
		case durable.RecSubmitKey:
			key, jobID, err := durable.DecodeSubmitKey(r.Payload)
			if err != nil {
				return fmt.Errorf("ishare: replay record %d: %w", i, err)
			}
			p.gw.restoreSubmitKey(key, jobID)
		case durable.RecAccuracy:
			machine, predictor, tr, survived, err := durable.DecodeAccuracy(r.Payload)
			if err != nil {
				return fmt.Errorf("ishare: replay record %d: %w", i, err)
			}
			p.tracker.RestoreResolution(machine, predictor, tr, survived)
		default:
			p.warn("skipping unknown WAL record type", slog.Int("type", int(r.Type)))
		}
	}
	return nil
}

// nodeSnapshot returns the parts of the node's snapshot, one per sealed
// day, and its FGNS payload as three pieces: the header, the last day and
// what follows the history. Callers hold p.mu, which keeps samples, the
// only writers of the history log, out until the snapshot is written. The
// payload is encoded here, the last day under the recorder's lock, which
// it holds for nothing else; a part reads its day outside it when the
// store publishes it, safe because the recorder writes no day before its
// last. The output is deterministic for a given state (sorted submit
// keys), which the crash harness relies on.
func (p *Persister) nodeSnapshot() (parts []durable.Part, payload [][]byte, err error) {
	var rest []byte // what follows the history: last-sample time, recent ring, tail
	recent := p.sm.viewHistory(func(m *trace.Machine, last time.Time) {
		inline := m.Days
		if n := len(m.Days); n > 1 {
			parts = make([]durable.Part, 0, n-1)
			for _, d := range m.Days[:n-1] {
				parts = append(parts, durable.Part{Key: uint64(d.Date.Unix()), Append: func(b []byte) []byte { return trace.AppendDay(b, d) }})
			}
			inline = m.Days[n-1:]
		}
		p.hist, err = trace.AppendBinary(p.hist[:0], &trace.Dataset{Machines: []*trace.Machine{{ID: m.ID, Period: m.Period, Days: inline}}})
		rest = wire.AppendVarint(rest, timeToMs(last))
	})
	rest = wire.AppendUvarint(rest, uint64(len(recent)))
	for _, s := range recent {
		rest = wire.AppendFloat64(rest, s.CPU)
		rest = wire.AppendFloat64(rest, s.FreeMemMB)
		rest = wire.AppendBool(rest, s.Up)
	}
	submitted, nextID := p.gw.exportSubmitted()
	keys := make([]string, 0, len(submitted))
	for k := range submitted {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rest = wire.AppendUvarint(rest, uint64(len(keys)))
	for _, k := range keys {
		rest = wire.AppendString(rest, k)
		rest = wire.AppendString(rest, submitted[k])
	}
	rest = wire.AppendUvarint(rest, uint64(nextID))
	rest = wire.AppendBytes(rest, p.tracker.ExportBinary())

	head := wire.AppendUvarint(wire.AppendHeader(nil, nodeSnapMagic, nodeSnapVersion), uint64(len(p.hist)))
	return parts, [][]byte{head, p.hist, rest}, err
}

const recentSampleBytes = 17 // one recent-ring sample: two float64 and a bool

// nodeState is a decoded FGNS payload and the parts read after it: what
// install puts into the components.
type nodeState struct {
	version   byte
	hist      *trace.Machine // the ID, the period and the days after the parts
	parts     []*trace.Day   // the parts' days, in the snapshot's order
	last      time.Time
	recent    []trace.Sample
	submitted map[string]string
	nextID    int
	tracker   func() // installs the tracker
}

// decodeNodeSnapshot decodes an FGNS payload from r, version 2 or 1 — the
// inline history straight from the stream through dec, then the small
// tail after it. It installs nothing: a payload that fails to decode, a
// part that does, or a stream that fails its checksum once decoded leaves
// the node as it was.
func (p *Persister) decodeNodeSnapshot(r io.Reader, dec *trace.Decoder) (*nodeState, error) {
	br := bufio.NewReaderSize(r, 16) // large reads pass it by
	var head [5]byte
	n, _ := io.ReadFull(br, head[:])
	h := wire.NewReader(head[:n], "FGNS")
	version := byte(nodeSnapVersion)
	if n == len(head) && head[4] == 1 {
		version = 1
	}
	if h.Header(nodeSnapMagic, version); h.Err() != nil {
		return nil, h.Err()
	}
	histSize, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("FGNS: history size: %w", err)
	}
	// ReadBinary paces its allocations by the bytes that arrive, so the
	// claimed size needs no check (past MaxInt64 it reads as empty); bytes
	// it leaves inside the history are skipped.
	hist := &io.LimitedReader{R: br, N: int64(histSize)}
	ds, err := dec.ReadBinary(hist)
	if err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	if len(ds.Machines) != 1 {
		return nil, fmt.Errorf("history carries %d machines", len(ds.Machines))
	}
	if _, err := io.Copy(io.Discard, hist); err != nil {
		return nil, err
	}
	tail, err := io.ReadAll(br)
	if err != nil {
		return nil, err
	}
	t := wire.NewReader(tail, "FGNS")
	st := &nodeState{version: version, hist: ds.Machines[0], last: msToTime(t.Varint())}
	st.recent = make([]trace.Sample, t.Count(recentSampleBytes, "recent samples"))
	for i := range st.recent {
		st.recent[i] = trace.Sample{CPU: t.Float64(), FreeMemMB: t.Float64(), Up: t.Bool()}
	}
	nkeys := t.Count(2, "submit keys")
	st.submitted = make(map[string]string, nkeys)
	for ; nkeys > 0 && t.Err() == nil; nkeys-- {
		k, v := t.String(), t.String()
		st.submitted[k] = v
	}
	st.nextID = int(t.Uvarint())
	blob := t.Bytes()
	if err := t.Done(); err != nil {
		return nil, err
	}
	if st.tracker, err = p.tracker.RestoreBinary(blob); err != nil {
		return nil, err
	}
	return st, nil
}

// readPart decodes the part key names, one sealed day, from r through dec.
func (st *nodeState) readPart(dec *trace.Decoder, key uint64, r io.Reader) error {
	if st.version == 1 {
		return fmt.Errorf("FGNS: a version 1 payload with parts")
	}
	d, err := dec.ReadDay(r, st.hist)
	if err != nil {
		return fmt.Errorf("part %x: %w", key, err)
	}
	if uint64(d.Date.Unix()) != key {
		return fmt.Errorf("part %x holds the day of %v", key, d.Date)
	}
	if n, _ := io.ReadFull(r, make([]byte, 1)); n != 0 {
		return fmt.Errorf("part %x: bytes after its day", key)
	}
	st.parts = append(st.parts, d)
	return nil
}

// install puts the decoded state into p's components. The steps that can
// fail check before anything changes.
func (st *nodeState) install(p *Persister) error {
	m := trace.NewMachine(st.hist.ID, st.hist.Period)
	for _, d := range append(st.parts, st.hist.Days...) {
		if err := m.AddDay(d); err != nil {
			return err
		}
	}
	if err := p.sm.RestoreHistory(m, st.last, st.recent); err != nil {
		return err
	}
	p.gw.restoreSubmitted(st.submitted, st.nextID)
	st.tracker()
	return nil
}

// timeToMs maps a timestamp to unix milliseconds, keeping the zero time at
// zero (unix ms of the zero time is a large negative number, not a useful
// sentinel).
func timeToMs(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixMilli()
}

// msToTime is the inverse of timeToMs.
func msToTime(ms int64) time.Time {
	if ms == 0 {
		return time.Time{}
	}
	return time.UnixMilli(ms).UTC()
}

// RegState is the registry-shaped surface the RegPersister restores into: a
// federation peer's shard implements it, and tests substitute a fake.
type RegState interface {
	// SetSink installs the persistence hook for entry upserts.
	SetSink(fn func(e RegEntry))
	// Export snapshots every entry for durable storage.
	Export() []RegEntry
	// Restore upserts recovered entries without firing the sink.
	Restore(entries []RegEntry)
	// RestoreRemove replays a logged removal without firing the sink.
	RestoreRemove(machine string)
}

// regSnapMagic frames a registry snapshot payload.
var regSnapMagic = [4]byte{'F', 'G', 'R', 'S'}

// regSnapVersion is the registry snapshot payload version.
const regSnapVersion = 1

// RegPersister wires a federation peer's shard onto a durable.Store: entry
// upserts append WAL records, and Snapshot publishes the full entry set.
// Expiries are persisted as absolute deadlines, so a restart does not extend
// TTLs, and an entry evicted on expiry is simply absent from the next
// snapshot.
type RegPersister struct {
	snapshotter
	reg RegState
}

// NewRegPersister restores recovered state into reg (snapshot, then WAL
// tail) and installs its persistence sink.
func NewRegPersister(st *durable.Store, rec *durable.Recovery, reg RegState, logger *slog.Logger) (*RegPersister, error) {
	if st == nil || reg == nil {
		return nil, fmt.Errorf("ishare: reg persister needs store and registry")
	}
	rp := &RegPersister{reg: reg}
	rp.snapshotter = newSnapshotter(st, rp.writeSnapshot, logger)
	if rec != nil {
		var entries []RegEntry
		if err := rec.ReadSnapshot(func(payload io.Reader) error {
			data, err := io.ReadAll(payload)
			if err == nil {
				entries, err = decodeRegSnapshot(data)
			}
			return err
		}, nil); err != nil {
			return nil, fmt.Errorf("ishare: registry snapshot: %w", err)
		}
		reg.Restore(entries)
		for i, r := range rec.Records {
			switch r.Type {
			case durable.RecRegister:
				machine, addr, expMs, err := durable.DecodeRegister(r.Payload)
				if err != nil {
					return nil, fmt.Errorf("ishare: replay record %d: %w", i, err)
				}
				reg.Restore([]RegEntry{{Machine: machine, Addr: addr, Expires: msToTime(expMs)}})
			case durable.RecUnregister: // written only by older binaries
				machine, err := durable.DecodeUnregister(r.Payload)
				if err != nil {
					return nil, fmt.Errorf("ishare: replay record %d: %w", i, err)
				}
				reg.RestoreRemove(machine)
			default:
				rp.warn("skipping unknown WAL record type", slog.Int("type", int(r.Type)))
			}
		}
	}
	reg.SetSink(rp.sink)
	return rp, nil
}

// sink appends one entry upsert to the WAL.
func (rp *RegPersister) sink(e RegEntry) {
	if err := rp.st.Append(durable.RecRegister, durable.EncodeRegister(nil, e.Machine, e.Addr, timeToMs(e.Expires))); err != nil {
		rp.warn("registry append failed", slog.String("machine", e.Machine), slog.String("err", err.Error()))
	}
}

// writeSnapshot publishes the full entry set. The WAL position is captured
// BEFORE Export: an entry record appended concurrently (the registry sinks
// run outside the component lock) either precedes the position and is
// already in the export, or lands after it and is replayed on recovery as
// an idempotent upsert.
func (rp *RegPersister) writeSnapshot() error {
	seq, off := rp.st.Position()
	return rp.st.WriteSnapshotAt(seq, off, [][]byte{encodeRegSnapshot(rp.reg.Export())})
}

// encodeRegSnapshot serializes a sorted entry set (Export sorts).
func encodeRegSnapshot(entries []RegEntry) []byte {
	buf := wire.AppendHeader(nil, regSnapMagic, regSnapVersion)
	buf = wire.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = durable.EncodeRegister(buf, e.Machine, e.Addr, timeToMs(e.Expires))
	}
	return buf
}

// decodeRegSnapshot parses a registry snapshot payload.
func decodeRegSnapshot(data []byte) ([]RegEntry, error) {
	r := wire.NewReader(data, "FGRS")
	r.Header(regSnapMagic, regSnapVersion)
	entries := make([]RegEntry, r.Count(3, "entries"))
	for i := range entries {
		machine, addr, expMs := durable.ReadRegister(&r)
		entries[i] = RegEntry{Machine: machine, Addr: addr, Expires: msToTime(expMs)}
	}
	return entries, r.Done()
}

// Assert the sink chain shapes at compile time.
var (
	_ monitor.Sink = (*Persister)(nil)
	_ RegState     = (*FedGateway)(nil)
)
