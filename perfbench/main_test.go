package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMain lets the test binary stand in for the benchmark executable
// in the set-up processes TestSetupInFreshProcess starts.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

const childEnv = "PERFBENCH_TEST_RUN_MAIN"

// smoke measures one pass of a workload with small inputs and returns
// the run record and the result.
func smoke(t *testing.T, name string, seed int64, trace bool) (map[string]any, result) {
	t.Helper()
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		t.Fatalf("no workload %s", name)
	}
	opt := options{workload: name, seed: seed, dur: time.Second, trace: trace, spans: t.TempDir(), commit: "test", quick: true}
	res, rec, err := measure(context.Background(), w, opt)
	if err != nil {
		t.Fatalf("%s trace=%t: %v", name, trace, err)
	}
	// The result must survive the trip through the output line.
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("%s: result line: %v", name, err)
	}
	return rec, back
}

// TestSmokeEmitsEveryMetric runs every workload for a second, untraced
// and traced, and checks that each emits exactly the metrics
// BENCHMARK.json lists, with their units.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", w.name, trace), func(t *testing.T) {
				rec, res := smoke(t, w.name, 2, trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%t attempted=%d failed=%d, problems %v", res.Correct, res.Attempted, res.Failed, rec["problems"])
				}
				want := bf.EndToEnd
				if trace {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not emitted", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				for _, k := range []string{"seed", "nproc", "gomaxprocs", "cpu_model", "go_version", "commit"} {
					if _, ok := rec[k]; !ok {
						t.Errorf("run record lacks %s", k)
					}
				}
			})
		}
	}
}

// TestCatalogueMatchesBenchmarkFile keeps the metric lists in the code
// and in BENCHMARK.json identical, in order, and every listed workload
// runnable.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		found := false
		for _, cw := range workloads {
			found = found || cw.name == w.Name
		}
		if !found {
			t.Errorf("BENCHMARK.json lists workload %s, which the benchmark does not run", w.Name)
		}
	}
	check := func(kind string, code []metricDef, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(code) != len(file) {
			t.Errorf("%s: %d metrics in the code, %d in BENCHMARK.json", kind, len(code), len(file))
			return
		}
		for i := range code {
			if code[i].name != file[i].Name || code[i].unit != file[i].Unit {
				t.Errorf("%s %d: %s (%s) in the code, %s (%s) in BENCHMARK.json", kind, i, code[i].name, code[i].unit, file[i].Name, file[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
}

func TestClientCountNeverExceedsNproc(t *testing.T) {
	n := clientCount()
	if n < 1 || n > runtime.NumCPU() || n > 2 {
		t.Fatalf("clientCount() = %d with %d CPUs, want 1..min(2, nproc)", n, runtime.NumCPU())
	}
	if c := newClient(); c.tr.MaxConnsPerHost != 1 {
		t.Errorf("a client may open %d connections per host, want 1", c.tr.MaxConnsPerHost)
	}
	ctx := context.Background()
	for _, w := range []struct {
		name    string
		clients func(instance) int
		setup   func(context.Context, config) (instance, error)
	}{
		{"admit-churn", func(in instance) int { return len(in.(*admitSystem).clients) }, setupAdmit},
		{"analyze-mix", func(in instance) int { return len(in.(*mixSystem).clients) }, setupMix},
	} {
		in, err := w.setup(ctx, config{seed: 1, quick: true})
		if err != nil {
			t.Fatalf("%s set-up: %v", w.name, err)
		}
		if got := w.clients(in); got != n {
			t.Errorf("%s opened %d clients, want %d", w.name, got, n)
		}
		if err := in.close(ctx); err != nil {
			t.Errorf("%s tear-down: %v", w.name, err)
		}
	}
}

// TestAdmissionLogRepeats runs admit-churn twice with one seed: the
// admission logs must be identical.
func TestAdmissionLogRepeats(t *testing.T) {
	a, _ := smoke(t, "admit-churn", 5, false)
	b, _ := smoke(t, "admit-churn", 5, false)
	da, db := a["detail"].(map[string]any), b["detail"].(map[string]any)
	if da["admit_log_ops"] == db["admit_log_ops"] && da["admit_log_sha256"] != db["admit_log_sha256"] {
		t.Errorf("same seed, different admission logs: %v and %v", da["admit_log_sha256"], db["admit_log_sha256"])
	}
}

// TestSetupInFreshProcess times a full-size admit-churn set-up in a
// child process, as untraced runs do for their extra set-ups, and
// checks that the flags reach it and the child's output parses.
func TestSetupInFreshProcess(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(childEnv, "1")
	st, err := childSetup(context.Background(), options{exe: exe, workload: "admit-churn", seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Scaled <= 0 || st.Measured <= 0 {
		t.Errorf("set-up took %+v s", st)
	}
	_, err = childSetup(context.Background(), options{exe: exe, workload: "no-such-workload", seed: 3})
	if err == nil {
		t.Error("a child given an unknown workload reported a set-up time")
	}
}

// TestRunRejectsBadFlags checks the command line: an unknown workload,
// a bad trace value or a bad duration exits non-zero and prints no
// result.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "admit-churn", "--trace", "2"},
		{"--workload", "admit-churn", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(context.Background(), args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
