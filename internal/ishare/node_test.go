package ishare

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/durable"
	"fgcs/internal/monitor"
	"fgcs/internal/simclock"
	"fgcs/internal/trace"
)

// TestHostNodeRecordsRevocationFromHeartbeat: the t_monitor heartbeat is the
// only evidence a restarted node has of the time it was gone (Section 5.2).
// Node A samples for ten minutes late on Monday and is revoked; two hours
// later, on Tuesday, node B starts over the same heartbeat file with A's
// history saved as its -trace preload, and must hold those two hours as
// down — one URR — where an unwritten stretch of day log reads as up with no
// free memory, a UEC (S4). The outage runs over midnight so that it opens Tuesday's log:
// avail.Events labels a run of failure states by its first, and B's own
// Monday starts unwritten (live days win over preloaded ones).
func TestHostNodeRecordsRevocationFromHeartbeat(t *testing.T) {
	dir := t.TempDir()
	clock := simclock.NewVirtual(monday.Add(23*time.Hour + 40*time.Minute))
	cfg := NodeConfig{
		MachineID:     "lab-01",
		Cfg:           avail.DefaultConfig(),
		Period:        period,
		Clock:         clock,
		HeartbeatPath: filepath.Join(dir, "t_monitor"),
	}
	a, err := NewHostNode(cfg, staticSource{}) // no heartbeat yet: a first boot
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < int(10*time.Minute/period); i++ {
		clock.Advance(period)
		a.Monitor.Tick(clock.Now())
	}
	preload := filepath.Join(dir, "lab-01.trace")
	hist, _, _ := a.SM.ExportHistory()
	if err := trace.SaveFile(preload, &trace.Dataset{Machines: []*trace.Machine{hist}}); err != nil {
		t.Fatal(err)
	}

	clock.Advance(2 * time.Hour)
	ds, err := trace.LoadFile(preload)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Preloaded = ds.Find("lab-01")
	b, err := NewHostNode(cfg, staticSource{})
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(period)
	b.Monitor.Tick(clock.Now())

	down := 0
	var urr []avail.Event
	for _, day := range b.SM.history() {
		for _, s := range day.Samples {
			if !s.Up {
				down++
			}
		}
		for _, ev := range avail.Events(day, cfg.Cfg) {
			if ev.State == avail.S5 {
				urr = append(urr, ev)
			}
		}
	}
	if want := int(2 * time.Hour / period); down < want-1 || down > want {
		t.Fatalf("%d down samples recorded, want the two hours since t_monitor (%d)", down, want)
	}
	if want := 110*time.Minute + period; len(urr) != 1 || urr[0].Start != 0 || urr[0].End != want {
		t.Fatalf("URR events = %+v, want one from Tuesday's midnight to the first live sample (%v)", urr, want)
	}

	// A heartbeat that does not parse is reported, not fatal, and records nothing.
	if err := os.WriteFile(cfg.HeartbeatPath, []byte("not a timestamp\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Preloaded = nil
	c, err := NewHostNode(cfg, staticSource{})
	if err != nil {
		t.Fatalf("corrupt heartbeat refused the boot: %v", err)
	}
	if got := c.SM.history(); len(got) != 0 {
		t.Fatalf("corrupt heartbeat recorded %d days", len(got))
	}
}

// TestHostNodeBoundsRevocationBackfill: a t_monitor heartbeat 20 years old
// sends only the last monitor.MaxBackfill of the outage through the node's
// sink, so the WAL takes at most a week of down samples, not one per period
// of the 20 years. An hourly period keeps the unbounded back-fill this
// guards against small enough to fail fast.
func TestHostNodeBoundsRevocationBackfill(t *testing.T) {
	const hourly = time.Hour
	path := filepath.Join(t.TempDir(), "t_monitor")
	if err := monitor.WriteHeartbeat(path, monday); err != nil {
		t.Fatal(err)
	}
	mem := durable.NewMemFS()
	st, rec, err := durable.Open(persistStoreCfg(mem))
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewHostNode(NodeConfig{
		MachineID: "lab-01", Cfg: avail.DefaultConfig(), Period: hourly,
		Clock: simclock.NewVirtual(monday.AddDate(20, 0, 0)), HeartbeatPath: path,
		Durable: st, DurableRecovery: rec,
	}, staticSource{})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Persist.Close(); err != nil {
		t.Fatal(err)
	}
	st, rec, err = durable.Open(persistStoreCfg(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if week := int(monitor.MaxBackfill / hourly); len(rec.Records) < week-1 || len(rec.Records) > week {
		t.Fatalf("the outage appended %d WAL records, want the last week's %d", len(rec.Records), week-1)
	}
}

// TestHostNodeBackfillsAnOutageOnce: a node restarted 20 years after its
// last sample and its last t_monitor heartbeat holds at most
// monitor.MaxBackfill of the outage as down samples, though two pieces of
// evidence — the heartbeat at start and the recorder's own last sample —
// each see the whole gap; and a replay of the WAL over the old snapshot
// holds the same history. An hourly period keeps a week 168 samples.
func TestHostNodeBackfillsAnOutageOnce(t *testing.T) {
	const hourly = time.Hour
	mem := durable.NewMemFS()
	clock := simclock.NewVirtual(monday)
	cfg := NodeConfig{
		MachineID: "lab-01", Cfg: avail.DefaultConfig(), Period: hourly, Clock: clock,
		HeartbeatPath: filepath.Join(t.TempDir(), "t_monitor"),
	}
	start := func() *HostNode {
		t.Helper()
		st, rec, err := durable.Open(persistStoreCfg(mem))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Durable, cfg.DurableRecovery = st, rec
		n, err := NewHostNode(cfg, staticSource{})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	down := func(n *HostNode) (down int) {
		for _, day := range n.SM.history() {
			for _, s := range day.Samples {
				if !s.Up {
					down++
				}
			}
		}
		return down
	}

	a := start()
	for i := 0; i < 5; i++ {
		clock.Advance(hourly)
		a.Monitor.Tick(clock.Now())
	}
	if err := a.Persist.Flush(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(20 * 365 * 24 * time.Hour)
	b := start()
	got := down(b)
	if week := int(monitor.MaxBackfill / hourly); got < week-1 || got > week {
		t.Errorf("the restart recorded %d down samples, want the last week's %d", got, week)
	}
	if err := b.Persist.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.HeartbeatPath = "" // the replay alone, no second revocation
	c := start()
	defer c.Persist.Close()
	if replayed := down(c); replayed != got {
		t.Errorf("the replay holds %d down samples, the live node held %d", replayed, got)
	}
}
