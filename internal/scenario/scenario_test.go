package scenario

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rtmdm/internal/core"
	"rtmdm/internal/models"
	"rtmdm/internal/nn"
	"rtmdm/internal/sim"
)

const good = `{
  "platform": "stm32h743",
  "policy": "rt-mdm",
  "horizon_ms": 600,
  "tasks": [
    {"name": "kws", "model": "ds-cnn", "period_ms": 50},
    {"name": "det", "model": "mobilenetv1-0.25", "period_ms": 150, "deadline_ms": 120},
    {"name": "anomaly", "model": "autoencoder", "period_ms": 100, "offset_ms": 5}
  ]
}`

const withFaults = `{
  "horizon_ms": 200,
  "tasks": [{"name": "kws", "model": "ds-cnn", "period_ms": 50}],
  "faults": {
    "seed": 7,
    "overrun_rate": 0.25,
    "overrun_factor": 1.5,
    "transfer_fault_rate": 0.1,
    "max_retries": 2,
    "overrun": "abort"
  }
}`

func TestParseAndBuild(t *testing.T) {
	sc, err := Parse([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Horizon() != 600*sim.Millisecond {
		t.Fatalf("horizon %v", sc.Horizon())
	}
	set, plat, pol, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if plat.Name != "stm32h743" || pol.Name != "rt-mdm" {
		t.Fatalf("resolved %s/%s", plat.Name, pol.Name)
	}
	if len(set.Tasks) != 3 {
		t.Fatalf("%d tasks", len(set.Tasks))
	}
	for _, tk := range set.Tasks {
		if tk.Name == "det" && tk.Deadline != 120*sim.Millisecond {
			t.Fatalf("det deadline %v", tk.Deadline)
		}
		if tk.Name == "anomaly" && tk.Offset != 5*sim.Millisecond {
			t.Fatalf("anomaly offset %v", tk.Offset)
		}
	}
	// RM assignment: kws (50 ms) most urgent.
	for _, tk := range set.ByPriority()[:1] {
		if tk.Name != "kws" {
			t.Fatalf("most urgent is %s", tk.Name)
		}
	}
}

// TestBuildSeededBuildTimingShared pins the split between the two build
// paths: Build gives every zoo task its own model with the weights its
// seed selects (what executing or saving a model needs), BuildTiming
// hands out the shared models.Topology models, and both segment alike.
func TestBuildSeededBuildTimingShared(t *testing.T) {
	sc, err := Parse([]byte(`{"tasks":[
		{"name":"a","model":"ds-cnn","period_ms":50},
		{"name":"b","model":"ds-cnn","seed":2,"period_ms":60},
		{"name":"c","model":"lenet5","seed":9,"period_ms":70}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	seeded, _, _, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	timing, _, _, err := sc.BuildTiming()
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string]int64{"a": 1, "b": 2, "c": 9}
	firstConv := func(m *nn.Model) []int8 { return m.Nodes[0].Layer.(*nn.Conv2D).Weights }
	for i, tk := range seeded.Tasks {
		tt := timing.Tasks[i]
		spec := sc.Tasks[i]
		topo, err := models.Topology(spec.Model)
		if err != nil {
			t.Fatal(err)
		}
		if tt.Plan.Model != topo {
			t.Errorf("%s: BuildTiming did not use the shared topology", tk.Name)
		}
		if tk.Plan.Model == topo {
			t.Errorf("%s: Build handed out the shared topology", tk.Name)
		}
		want, err := models.Build(spec.Model, seeds[spec.Name])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(firstConv(tk.Plan.Model), firstConv(want)) {
			t.Errorf("%s: Build's weights are not seed %d's", tk.Name, seeds[spec.Name])
		}
		if !reflect.DeepEqual(tk.Plan.Segments, tt.Plan.Segments) || tk.Period != tt.Period {
			t.Errorf("%s: Build and BuildTiming segment differently", tk.Name)
		}
	}
	if reflect.DeepEqual(firstConv(seeded.Tasks[0].Plan.Model), firstConv(seeded.Tasks[1].Plan.Model)) {
		t.Fatal("seeds 1 and 2 built the same weights")
	}
}

func TestDefaultsApplied(t *testing.T) {
	sc, err := Parse([]byte(`{"tasks":[{"name":"a","model":"lenet5","period_ms":100}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Horizon() != sim.Second {
		t.Fatalf("default horizon %v", sc.Horizon())
	}
	_, plat, pol, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if plat.Name != "stm32h743" || pol.Name != "rt-mdm" {
		t.Fatalf("defaults resolved %s/%s", plat.Name, pol.Name)
	}
}

func TestPinnedPriorities(t *testing.T) {
	sc, err := Parse([]byte(`{"tasks":[
		{"name":"a","model":"lenet5","period_ms":100,"priority":1},
		{"name":"b","model":"tinymlp","period_ms":50,"priority":0}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	set, _, _, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if set.ByPriority()[0].Name != "b" {
		t.Fatal("pinned priorities not honored")
	}
}

func TestMixedPinningRejected(t *testing.T) {
	sc, err := Parse([]byte(`{"tasks":[
		{"name":"a","model":"lenet5","period_ms":100,"priority":1},
		{"name":"b","model":"tinymlp","period_ms":50}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := sc.Build(); err == nil || !strings.Contains(err.Error(), "pin all or none") {
		t.Fatalf("mixed pinning accepted: %v", err)
	}
}

func TestParseRejections(t *testing.T) {
	cases := map[string]string{
		"unknown field": `{"tasks":[{"name":"a","model":"lenet5","period_ms":1}],"bogus":1}`,
		"no tasks":      `{"tasks":[]}`,
		"not json":      `hello`,
	}
	for what, in := range cases {
		if _, err := Parse([]byte(in)); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
}

func TestBuildRejections(t *testing.T) {
	cases := map[string]string{
		"bad platform": `{"platform":"z80","tasks":[{"name":"a","model":"lenet5","period_ms":1}]}`,
		"bad policy":   `{"policy":"fifo9000","tasks":[{"name":"a","model":"lenet5","period_ms":1}]}`,
		"bad model":    `{"tasks":[{"name":"a","model":"gpt4","period_ms":1}]}`,
		"zero period":  `{"tasks":[{"name":"a","model":"lenet5","period_ms":0}]}`,
	}
	for what, in := range cases {
		sc, err := Parse([]byte(in))
		if err != nil {
			t.Fatalf("%s failed at parse: %v", what, err)
		}
		if _, _, _, err := sc.Build(); err == nil {
			t.Errorf("%s accepted at build", what)
		}
	}
}

func TestLoadFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scenario.json")
	if err := os.WriteFile(path, []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Tasks) != 3 {
		t.Fatalf("loaded %d tasks", len(sc.Tasks))
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestModelFileTasks(t *testing.T) {
	dir := t.TempDir()
	m, err := models.Build("lenet5", 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "lenet5.rtmdm")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfgJSON := `{"tasks":[{"name":"a","model_file":"` + path + `","period_ms":100}]}`
	sc, err := Parse([]byte(cfgJSON))
	if err != nil {
		t.Fatal(err)
	}
	set, _, _, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if set.Tasks[0].Plan.Model.Name != "lenet5" {
		t.Fatalf("loaded model %q", set.Tasks[0].Plan.Model.Name)
	}

	// Both model and model_file rejected.
	both := `{"tasks":[{"name":"a","model":"lenet5","model_file":"` + path + `","period_ms":100}]}`
	sc, err = Parse([]byte(both))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := sc.Build(); err == nil {
		t.Fatal("model + model_file accepted")
	}
	// Neither rejected.
	neither := `{"tasks":[{"name":"a","period_ms":100}]}`
	sc, err = Parse([]byte(neither))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := sc.Build(); err == nil {
		t.Fatal("task without model accepted")
	}
	// Missing file rejected.
	missing := `{"tasks":[{"name":"a","model_file":"` + filepath.Join(dir, "nope.bin") + `","period_ms":100}]}`
	sc, err = Parse([]byte(missing))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := sc.Build(); err == nil {
		t.Fatal("missing model file accepted")
	}
}

func TestFaultsStanza(t *testing.T) {
	sc, err := Parse([]byte(withFaults))
	if err != nil {
		t.Fatal(err)
	}
	_, _, pol, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if pol.Overrun != core.OverrunAbort {
		t.Fatalf("overrun policy %v, want abort", pol.Overrun)
	}
	plan, err := sc.FaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil {
		t.Fatal("enabled faults stanza produced nil plan")
	}

	// No stanza: nil plan, default policy.
	sc2, err := Parse([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if plan, err := sc2.FaultPlan(); err != nil || plan != nil {
		t.Fatalf("plan without stanza: %v, %v", plan, err)
	}
	_, _, pol2, err := sc2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if pol2.Overrun != core.OverrunContinue {
		t.Fatalf("default overrun policy %v", pol2.Overrun)
	}
}

func TestFaultsStanzaRejections(t *testing.T) {
	base := `{"tasks":[{"name":"a","model":"lenet5","period_ms":10}],"faults":%s}`
	builds := map[string]string{
		"bad overrun policy": `{"overrun":"panic"}`,
	}
	for what, faults := range builds {
		sc, err := Parse([]byte(fmt.Sprintf(base, faults)))
		if err != nil {
			t.Fatalf("%s failed at parse: %v", what, err)
		}
		if _, _, _, err := sc.Build(); err == nil {
			t.Errorf("%s accepted at build", what)
		}
	}
	plans := map[string]string{
		"negative rate":    `{"overrun_rate":-0.5}`,
		"rate above one":   `{"transfer_fault_rate":1.5}`,
		"hostile factor":   `{"overrun_rate":0.1,"overrun_factor":1e300}`,
		"negative retries": `{"transfer_fault_rate":0.1,"max_retries":-1}`,
	}
	for what, faults := range plans {
		sc, err := Parse([]byte(fmt.Sprintf(base, faults)))
		if err != nil {
			t.Fatalf("%s failed at parse: %v", what, err)
		}
		if _, err := sc.FaultPlan(); err == nil {
			t.Errorf("%s accepted at FaultPlan", what)
		}
	}
}

func TestNonFiniteTimingRejected(t *testing.T) {
	// JSON cannot carry NaN, but Go callers can: a NaN period sails past
	// the "<= 0" guard unless rejected explicitly.
	nan := math.NaN()
	cases := map[string]*Scenario{
		"nan period":   {Tasks: []TaskSpec{{Name: "a", Model: "lenet5", PeriodMs: nan}}},
		"nan deadline": {Tasks: []TaskSpec{{Name: "a", Model: "lenet5", PeriodMs: 10, DeadlineMs: nan}}},
		"inf offset":   {Tasks: []TaskSpec{{Name: "a", Model: "lenet5", PeriodMs: 10, OffsetMs: math.Inf(1)}}},
		"nan horizon":  {HorizonMs: nan, Tasks: []TaskSpec{{Name: "a", Model: "lenet5", PeriodMs: 10}}},
	}
	for what, sc := range cases {
		if _, _, _, err := sc.Build(); err == nil {
			t.Errorf("%s accepted at build", what)
		}
	}
}

func TestParseTaskList(t *testing.T) {
	specs, err := ParseTaskList("ds-cnn:50, lenet5:100:80", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("%d specs", len(specs))
	}
	if specs[0].Name != "t0-ds-cnn" || specs[0].PeriodMs != 50 || specs[0].DeadlineMs != 50 {
		t.Fatalf("spec0 %+v", specs[0])
	}
	if specs[1].DeadlineMs != 80 || specs[1].Seed != 3 {
		t.Fatalf("spec1 %+v", specs[1])
	}
	sc := &Scenario{Tasks: specs}
	if _, _, _, err := sc.Build(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "nope", "m:0", "m:10:0", "m:x", "m:10:20:30"} {
		if _, err := ParseTaskList(bad, 1); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
