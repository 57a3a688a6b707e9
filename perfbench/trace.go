package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share id; parent names the span kind that caused this one.
type span struct {
	ID     uint64        `json:"id"`
	Name   string        `json:"name"`
	Parent string        `json:"parent,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Tag carries a per-span attribute such as the cache source.
	Tag string `json:"tag,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how untraced runs pay no tracing cost.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the tracer clock: time since the tracer was made.
func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// byID groups the recorded spans of one name by request id.
func (t *tracer) byID(name string) map[uint64][]span {
	out := map[uint64][]span{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			out[s.ID] = append(out[s.ID], s)
		}
	}
	return out
}

// writeFile writes every span as one JSON array.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTime is the part of parent's interval that no child covers. The
// children may nest, overlap each other, or stick out of the parent;
// only their union inside the parent is subtracted.
func selfTime(parent span, children []span) time.Duration {
	iv := make([]span, 0, len(children))
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End > c.Start {
			iv = append(iv, c)
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var covered time.Duration
	var curStart, curEnd time.Duration
	open := false
	for _, c := range iv {
		switch {
		case !open:
			curStart, curEnd, open = c.Start, c.End, true
		case c.Start <= curEnd:
			if c.End > curEnd {
				curEnd = c.End
			}
		default:
			covered += curEnd - curStart
			curStart, curEnd = c.Start, c.End
		}
	}
	if open {
		covered += curEnd - curStart
	}
	return parent.dur() - covered
}

// idHeader carries the benchmark's request identifier on requests that
// have no request_id in their body (analyze and simulate).
const idHeader = "X-Perfbench-Id"

// requestID returns the identifier a traced handler span is filed
// under: the admission body's request_id, else the idHeader value. It
// restores r.Body so the wrapped handler reads it unchanged.
func requestID(r *http.Request) uint64 {
	if v := r.Header.Get(idHeader); v != "" {
		id, _ := strconv.ParseUint(v, 10, 64)
		return id
	}
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	r.Body = io.NopCloser(bytes.NewReader(body))
	if err != nil {
		return 0
	}
	var key struct {
		RequestID uint64 `json:"request_id"`
	}
	_ = json.Unmarshal(body, &key) // an undecodable body is the handler's 400, not the tracer's concern
	return key.RequestID
}

// cacheHeader is the server's cache-source response header.
const cacheHeader = "X-Rtmdm-Cache"

// spanHandler wraps h so that every request records a span named name
// (caused by a parent span) around h.ServeHTTP. The span's tag is the
// response's cache source, when the handler sets one.
func spanHandler(t *tracer, name, parent string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := requestID(r)
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(span{ID: id, Name: name, Parent: parent, Start: start, End: t.now(), Tag: w.Header().Get(cacheHeader)})
	})
}
