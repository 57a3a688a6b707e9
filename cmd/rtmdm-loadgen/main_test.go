package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"rtmdm/internal/server"
)

func TestPercentileNearestRank(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	hundred := make([]int, 100)
	for i := range hundred {
		hundred[i] = 100 - i // unsorted on purpose: 100, 99, …, 1
	}
	cases := []struct {
		name string
		ds   []time.Duration
		p    float64
		want int
	}{
		{"empty", nil, 50, 0},
		{"single p50", ms(7), 50, 7},
		{"single p99", ms(7), 99, 7},
		{"two p50 is the lower", ms(9, 3), 50, 3},
		{"two p51 is the upper", ms(9, 3), 51, 9},
		{"two p0 clamps to the minimum", ms(9, 3), 0, 3},
		{"two p100", ms(9, 3), 100, 9},
		{"four p50", ms(4, 1, 3, 2), 50, 2},
		{"four p90", ms(4, 1, 3, 2), 90, 4},
		{"hundred p50", ms(hundred...), 50, 50},
		{"hundred p90", ms(hundred...), 90, 90},
		{"hundred p99 is not the maximum", ms(hundred...), 99, 99},
		{"hundred p100", ms(hundred...), 100, 100},
	}
	for _, c := range cases {
		if got := percentile(c.ds, c.p); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: percentile(p=%v) = %v, want %dms", c.name, c.p, got, c.want)
		}
	}
}

func TestParseMix(t *testing.T) {
	cases := []struct {
		spec    string
		want    map[string]int
		wantErr bool
	}{
		{spec: "analyze=4,simulate=4,admit=2", want: map[string]int{"analyze": 4, "simulate": 4, "admit": 2}},
		{spec: " analyze=1 , admit=0", want: map[string]int{"analyze": 1, "admit": 0}},
		{spec: "simulate=3", want: map[string]int{"simulate": 3}},
		{spec: "analyze=1,analyze=5", want: map[string]int{"analyze": 5}},
		{spec: "", wantErr: true},
		{spec: "analyze", wantErr: true},
		{spec: "analyze=x", wantErr: true},
		{spec: "analyze=-1", wantErr: true},
		{spec: "reshard=1", wantErr: true},
		{spec: "analyze=1,", wantErr: true},
	}
	for _, c := range cases {
		got, err := parseMix(c.spec)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseMix(%q) = %v, want an error", c.spec, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseMix(%q) = %v, %v; want %v", c.spec, got, err, c.want)
		}
	}
}

// TestChurnRerunsAgainstWarmServer runs the churn phase twice against
// one server: the second run must not collide with the nodes and tasks
// the first one committed.
func TestChurnRerunsAgainstWarmServer(t *testing.T) {
	srv := server.New(server.Config{AdmitWindow: -time.Millisecond})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("server shutdown: %v", err)
		}
	}()
	c := &client{base: ts.URL, http: &http.Client{Timeout: 10 * time.Second}}
	for run := 1; run <= 2; run++ {
		if _, err := runChurn(c, 2, 4, 0.7, 20*time.Millisecond); err != nil {
			t.Fatalf("churn run %d: %v", run, err)
		}
	}
}
