// Package httpsvc is the HTTP scaffolding the admission server
// (internal/server) and the gateway (internal/cluster) share: the
// per-route middleware, the JSON reply helpers, the /v1/metrics body and
// the drain tracker behind both Shutdowns.
package httpsvc

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"rtmdm/internal/metrics"
)

// Instruments are the middleware's metric handles. Nil handles no-op, so
// a service without a registry (or without a panic counter) passes nils.
type Instruments struct {
	Requests *metrics.Counter
	Inflight *metrics.Gauge
	Latency  *metrics.Histogram
	Panics   *metrics.Counter
}

// Mount registers every pattern in routes on mux, serving it with
// handlers[pattern] under the shared middleware: request count, in-flight
// gauge, latency histogram, and panic-to-500 recovery. A recovered panic
// answers {"error": "internal error: <value>"}; the stack never reaches
// the client.
func Mount(mux *http.ServeMux, routes []string, handlers map[string]http.HandlerFunc, in Instruments) {
	for _, pattern := range routes {
		h := handlers[pattern]
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			in.Requests.Inc()
			in.Inflight.Add(1)
			defer func() {
				in.Inflight.Add(-1)
				in.Latency.Observe(time.Since(start).Nanoseconds())
				if v := recover(); v != nil {
					in.Panics.Inc()
					WriteError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", v))
				}
			}()
			h(w, r)
		})
	}
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError writes the {"error": msg} body every route uses for failures.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, map[string]string{"error": msg})
}

// WriteMetrics serves the /v1/metrics body: a snapshot of reg, or 404
// when the service runs without a registry.
func WriteMetrics(w http.ResponseWriter, reg *metrics.Registry) {
	if reg == nil {
		WriteError(w, http.StatusNotFound, "metrics registry not enabled")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// On a write error the headers are gone; nothing recoverable remains.
	reg.Snapshot().WriteJSON(w)
}

// Tracker counts live background goroutines so Shutdown can wait for
// them. It is a cond over a count rather than a sync.WaitGroup because
// request handlers start tracked goroutines while Shutdown may already be
// waiting, and a WaitGroup forbids a 0→1 Add concurrent with Wait. The
// zero value is ready to use.
type Tracker struct {
	mu   sync.Mutex
	idle sync.Cond
	n    int
}

// Add records one more live goroutine.
func (t *Tracker) Add() {
	t.mu.Lock()
	t.n++
	t.mu.Unlock()
}

// Done records that a tracked goroutine has finished.
func (t *Tracker) Done() {
	t.mu.Lock()
	t.n--
	if t.n == 0 {
		t.idle.Broadcast()
	}
	t.mu.Unlock()
}

// Wait blocks until no tracked goroutine is live. It is meaningful once
// new work has stopped arriving (shutdown ordering).
func (t *Tracker) Wait() {
	t.mu.Lock()
	t.idle.L = &t.mu // set here so the zero Tracker works; only Wait reads L
	for t.n > 0 {
		t.idle.Wait()
	}
	t.mu.Unlock()
}

// Idle returns a channel that closes once Wait returns, for a Shutdown
// that selects against its deadline.
func (t *Tracker) Idle() <-chan struct{} {
	done := make(chan struct{})
	go func() {
		t.Wait()
		close(done)
	}()
	return done
}
