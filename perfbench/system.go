package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"rtmdm/internal/metrics"
)

// clientCount is the number of closed-loop clients (and keep-alive
// connections) the service workloads use: two, never more than the
// CPUs the process may run on.
func clientCount() int { return min(2, runtime.NumCPU()) }

// service is one http.Server on a loopback listener.
type service struct {
	url string
	srv *http.Server
	wg  sync.WaitGroup
}

// listen serves h on a fresh 127.0.0.1 port until close.
func listen(h http.Handler) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{
		url: "http://" + ln.Addr().String(),
		srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.srv.Serve(ln) // always http.ErrServerClosed after close
	}()
	return s, nil
}

// close stops accepting, waits for in-flight requests, and waits for
// the serve goroutine to exit.
func (s *service) close(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	s.wg.Wait()
	return err
}

// client is one closed-loop caller with exactly one keep-alive
// connection.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient() *client {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// reply is one completed request as the client saw it.
type reply struct {
	status int
	body   []byte
	cache  string
	start  time.Time
	lat    time.Duration
	err    error
}

// ok reports whether the request completed with a 2xx status.
func (r reply) ok() bool { return r.err == nil && r.status/100 == 2 }

// failure describes a failed request for the problem list.
func (r reply) failure() string {
	if r.err != nil {
		return r.err.Error()
	}
	return fmt.Sprintf("status %d: %s", r.status, bytes.TrimSpace(r.body))
}

// post sends body to url and reads the whole response. A non-zero id
// travels in idHeader so traced handlers can file their spans under it.
func (c *client) post(ctx context.Context, url string, body []byte, id uint64) reply {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if id != 0 {
		req.Header.Set(idHeader, strconv.FormatUint(id, 10))
	}
	r := reply{start: time.Now()}
	resp, err := c.hc.Do(req)
	if err != nil {
		r.lat, r.err = time.Since(r.start), err
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.lat = time.Since(r.start)
	r.status = resp.StatusCode
	r.cache = resp.Header.Get(cacheHeader)
	return r
}

// get issues a GET and discards the body; used to open the keep-alive
// connection during set-up.
func (c *client) get(ctx context.Context, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode/100 != 2 {
		err = errors.New(resp.Status)
	}
	return err
}

// eachClient runs f for clients 0..n-1 concurrently and waits for all.
func eachClient(n int, f func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(c)
		}()
	}
	wg.Wait()
}

// snapshot reads reg, or returns an empty snapshot for an untraced
// pass.
func snapshot(reg *metrics.Registry) metrics.Snapshot {
	if reg == nil {
		return metrics.Snapshot{}
	}
	return reg.Snapshot()
}

// value is a counter's value in snap, 0 when absent.
func value(snap metrics.Snapshot, name string) float64 {
	v, _ := snap.Get(name)
	return float64(v.Value)
}

// clientSpan records the client-side span of a traced request.
func clientSpan(t *tracer, id uint64, r reply) {
	if t == nil {
		return
	}
	start := r.start.Sub(t.epoch)
	t.add(span{ID: id, Name: "client", Start: start, End: start + r.lat})
}
