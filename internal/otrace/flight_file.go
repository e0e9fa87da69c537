package otrace

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// FlightSnapshot is a serialized flight recorder: the traces and log events
// retained at save time, newest first. ishared writes one on shutdown so
// the run that just ended stays inspectable after a restart — the black box
// a post-mortem wants is precisely the one the crashed-and-restarted
// process no longer holds in memory.
type FlightSnapshot struct {
	SavedAt time.Time     `json:"saved_at"`
	Total   uint64        `json:"total_recorded"`
	Traces  []TraceRecord `json:"traces,omitempty"`
	Events  []LogEvent    `json:"events,omitempty"`
}

// Snapshot captures the recorder's full retained state. It is the one read
// of a recorder: the live one and a saved one answer the same queries.
func (r *Recorder) Snapshot(at time.Time) *FlightSnapshot {
	s := &FlightSnapshot{SavedAt: at}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Total = r.total
	s.Traces = newestFirst(r.traces, r.next, r.filled)
	s.Events = newestFirst(r.events, r.evNext, r.evFilled)
	return s
}

// TracesLimit returns up to limit snapshot traces, newest first (<= 0 = all).
func (s *FlightSnapshot) TracesLimit(limit int) []TraceRecord { return firstN(s.Traces, limit) }

// EventsLimit returns up to limit snapshot log events, newest first
// (<= 0 = all).
func (s *FlightSnapshot) EventsLimit(limit int) []LogEvent { return firstN(s.Events, limit) }

func firstN[T any](xs []T, n int) []T {
	if n <= 0 || n > len(xs) {
		n = len(xs)
	}
	return xs[:n]
}

// Trace returns every snapshot record of one trace, oldest first (a
// distributed trace has one record per local root). The second result is
// false when the snapshot holds nothing for the ID.
func (s *FlightSnapshot) Trace(id TraceID) ([]TraceRecord, bool) {
	var out []TraceRecord
	for i := len(s.Traces) - 1; i >= 0; i-- {
		if s.Traces[i].TraceID == id {
			out = append(out, s.Traces[i])
		}
	}
	return out, len(out) > 0
}

// SaveFlight atomically writes the recorder's snapshot as JSON: the file is
// staged under a temporary name and renamed into place, so a crash during
// the save never destroys the previous snapshot.
func SaveFlight(path string, r *Recorder, at time.Time) error {
	data, err := json.Marshal(r.Snapshot(at))
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync()
		dir.Close()
	}
	return nil
}

// LoadFlight reads a snapshot written by SaveFlight. A missing file returns
// (nil, nil): the previous run simply never saved one.
func LoadFlight(path string) (*FlightSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var snap FlightSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("otrace: corrupt flight snapshot %s: %w", path, err)
	}
	return &snap, nil
}
