package ishare

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/simclock"
	"fgcs/internal/trace"
)

// TestHostNodeRecordsRevocationFromHeartbeat: the t_monitor heartbeat is the
// only evidence a restarted node has of the time it was gone (Section 5.2).
// Node A samples for ten minutes late on Monday and is revoked; two hours
// later, on Tuesday, node B starts over the same heartbeat file with A's
// archive as its history, and must hold those two hours as down — one URR —
// where an unwritten stretch of day log reads as up with no free memory, a
// UEC (S4). The outage runs over midnight so that it opens Tuesday's log:
// avail.Events labels a run of failure states by its first, and B's own
// Monday starts unwritten (live days win over the archive's).
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
	archive := filepath.Join(dir, "lab-01.trace")
	if err := a.SM.Archive(archive); err != nil {
		t.Fatal(err)
	}

	clock.Advance(2 * time.Hour)
	ds, err := trace.LoadFile(archive)
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
