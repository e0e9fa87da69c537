package otrace

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// traceSummary is one row of the GET /traces listing.
type traceSummary struct {
	TraceID string `json:"trace_id"`
	Root    string `json:"root"`
	Spans   int    `json:"spans"`
	Status  Status `json:"status"`
	Start   string `json:"start"`
}

// HTTPHandler serves the flight recorder on an observability mux:
//
//	GET /traces            — recent trace summaries plus recent WARN/ERROR
//	                         log events (?limit=N bounds both)
//	GET /traces/{id}       — every retained record of one trace, full spans
//	                         (?render=1 returns the indented text tree)
//
// Mount it at both "/traces" and "/traces/" so the bare listing and the
// per-trace paths resolve.
func HTTPHandler(rec *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(strings.TrimPrefix(r.URL.Path, "/traces"), "/")
		if rest == "" {
			limit := 0
			if v := r.URL.Query().Get("limit"); v != "" {
				if n, err := strconv.Atoi(v); err == nil {
					limit = n
				}
			}
			snap := rec.Snapshot(time.Time{})
			records := snap.TracesLimit(limit)
			sums := make([]traceSummary, 0, len(records))
			for _, tr := range records {
				root := tr.Root()
				sums = append(sums, traceSummary{
					TraceID: tr.TraceID.String(),
					Root:    root.Name,
					Spans:   len(tr.Spans),
					Status:  worstStatus(tr),
					Start:   root.Start.UTC().Format("2006-01-02T15:04:05.000Z07:00"),
				})
			}
			writeJSON(w, map[string]interface{}{
				"total_recorded": snap.Total,
				"traces":         sums,
				"events":         snap.EventsLimit(limit),
			})
			return
		}
		id, err := ParseTraceID(rest)
		if err != nil {
			http.Error(w, "bad trace id", http.StatusBadRequest)
			return
		}
		records, ok := rec.Snapshot(time.Time{}).Trace(id)
		if !ok {
			http.Error(w, "trace not retained", http.StatusNotFound)
			return
		}
		if r.URL.Query().Get("render") != "" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			renderTrace(w, records, RenderOptions{Timings: true})
			return
		}
		writeJSON(w, records)
	})
}

// worstStatus reports error if any span in the record failed.
func worstStatus(tr TraceRecord) Status {
	for _, s := range tr.Spans {
		if s.Status == StatusError {
			return StatusError
		}
	}
	return StatusOK
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
