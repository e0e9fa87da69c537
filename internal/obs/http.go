package obs

import (
	"fmt"
	"net/http"
)

// FleetHandler serves NodeSeries(r, t) in the Prometheus text exposition
// format — mount it at /metrics — and answers ?scope=fleet with the merged
// fleet snapshot obtained from the fetch callback (a federated peer wires its
// fan-out here). With a nil fetch, fleet scope answers 404.
func FleetHandler(r *Registry, t *Tracker, fleet func(*http.Request) (*FleetSnapshot, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var page Snapshot
		if req.URL.Query().Get("scope") != "fleet" {
			page = NodeSeries(r, t)
		} else {
			if fleet == nil {
				http.Error(w, "fleet scope not available on this node", http.StatusNotFound)
				return
			}
			fs, err := fleet(req)
			if err != nil {
				http.Error(w, fmt.Sprintf("fleet aggregation: %v", err), http.StatusBadGateway)
				return
			}
			page = fs.series()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = page.WriteText(w) // the scraper hung up
	})
}

// HealthHandler answers liveness: 200 as long as the process serves HTTP.
// Mount it at /healthz.
func HealthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
}

// ReadyHandler answers readiness: 200 when check returns nil, 503 with the
// reason otherwise. Mount it at /readyz; wire check to the node's readiness
// predicate (WAL recovered, registry synced, ring converged).
func ReadyHandler(check func() error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if check != nil {
			if err := check(); err != nil {
				http.Error(w, fmt.Sprintf("not ready: %v", err), http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintln(w, "ready")
	})
}
