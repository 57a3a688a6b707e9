package corpus

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"rtmdm/internal/metrics"
)

// testSpec is a small, fast slice used by most tests: single short
// horizon, small sets. Kept separate from SmokeSpec so CI-scale tuning
// never slows the unit tests.
func testSpec(count int) *Spec {
	s := SmokeSpec()
	s.Count = count
	s.TaskCounts = []int{2, 3}
	s.HorizonsMs = []float64{100}
	return s
}

func TestSpecDigestDefaultsInvariant(t *testing.T) {
	empty := &Spec{Count: 10}
	explicit := DefaultSpec()
	explicit.Count = 10
	d1, err := empty.Digest()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := explicit.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("digest of implicit defaults %s != explicit defaults %s", d1, d2)
	}
	other := DefaultSpec()
	other.Count = 10
	other.Seed = 2
	d3, err := other.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Fatalf("different seeds must digest differently")
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []*Spec{
		{Count: 0},
		{Count: 1, Policies: []string{"no-such-policy"}},
		{Count: 1, Platforms: []string{"no-such-platform"}},
		{Count: 1, Models: []string{"no-such-model"}},
		{Count: 1, FaultProfiles: []string{"no-such-profile"}},
		{Count: 1, Overruns: []string{"no-such-mode"}},
		{Count: 1, Utils: []float64{-1}},
		{Count: 1, TaskCounts: []int{0}},
		{Count: 1, HorizonsMs: []float64{-5}},
		{Count: 1, DeadlineFracs: []float64{1.5}},
		{Count: 1, MinPeriodMs: 100, MaxPeriodMs: 10},
	}
	for i, s := range bad {
		if err := s.withDefaults().Validate(); err == nil {
			t.Errorf("spec %d: expected validation error", i)
		}
	}
	if err := DefaultSpec().Validate(); err != nil {
		t.Fatalf("default spec must validate: %v", err)
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"count": 5, "utilz": [0.5]}`)); err == nil {
		t.Fatal("unknown field must be rejected")
	}
	s, err := ParseSpec([]byte(`{"count": 5, "utils": [0.5]}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Count != 5 || len(s.Utils) != 1 {
		t.Fatalf("parsed spec %+v", s)
	}
}

func TestGeneratorDeterministicAndIndexIndependent(t *testing.T) {
	g1, err := NewGenerator(testSpec(40))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenerator(testSpec(40))
	if err != nil {
		t.Fatal(err)
	}
	// Same spec, any evaluation order: identical instances.
	for _, i := range []int{7, 0, 39, 12, 7} {
		a, errA := g1.At(i)
		b, errB := g2.At(i)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("index %d: error mismatch %v vs %v", i, errA, errB)
		}
		if errA != nil {
			continue
		}
		if a.ID != b.ID {
			t.Fatalf("index %d: ID %s != %s", i, a.ID, b.ID)
		}
		if a.Axes != b.Axes {
			t.Fatalf("index %d: axes %+v != %+v", i, a.Axes, b.Axes)
		}
	}
	// Extending the corpus must not re-roll existing indices.
	big, err := NewGenerator(testSpec(200))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		a, errA := g1.At(i)
		b, errB := big.At(i)
		if (errA == nil) != (errB == nil) || (errA == nil && a.ID != b.ID) {
			t.Fatalf("index %d changed when count grew: %v/%v", i, errA, errB)
		}
	}
	if _, err := g1.At(40); err == nil {
		t.Fatal("out-of-range index must error")
	}
}

// TestDefaultSpecIDPin keeps corpus generation bit-identical: the
// SHA-256 over the scenario IDs of DefaultSpec items 0–63 at seed 1 is
// pinned, so any drift in the per-axis hash draws, the workload
// generator or the canonical scenario hash fails here.
func TestDefaultSpecIDPin(t *testing.T) {
	const want = "ff4c6d8f162720ca0ed80a1a388fece54d4038b09b4e183b61ba8d1dff409288"
	spec := DefaultSpec()
	spec.Seed = 1
	g, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i := 0; i < 64; i++ {
		it, err := g.At(i)
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		fmt.Fprintf(h, "%d %s\n", i, it.ID)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("DefaultSpec ID digest = %s, want %s", got, want)
	}
}

func TestGeneratorCoversAxes(t *testing.T) {
	g, err := NewGenerator(testSpec(120))
	if err != nil {
		t.Fatal(err)
	}
	policies := map[string]bool{}
	profiles := map[string]bool{}
	offsets := 0
	for i := 0; i < g.Count(); i++ {
		it, err := g.At(i)
		if err != nil {
			continue
		}
		policies[it.Axes.Policy] = true
		profiles[it.Axes.FaultProfile] = true
		if it.Axes.Offsets {
			offsets++
		}
		if it.Scenario.Faults != nil && it.Scenario.Faults.Overrun == "" {
			t.Fatalf("index %d: faulted scenario without overrun mode", i)
		}
		if (it.Scenario.Faults != nil) != (it.Axes.FaultProfile != "none") {
			t.Fatalf("index %d: fault stanza/axis mismatch", i)
		}
	}
	if len(policies) < 4 {
		t.Fatalf("120 draws covered only %d policies: %v", len(policies), policies)
	}
	if len(profiles) < 4 {
		t.Fatalf("120 draws covered only %d fault profiles: %v", len(profiles), profiles)
	}
	if offsets == 0 || offsets == g.Count() {
		t.Fatalf("offset gate never flipped: %d/%d", offsets, g.Count())
	}
}

// TestRunnerDifferentialSoundness is the in-tree slice of the corpus
// acceptance property: every generated scenario passes the differential
// oracle (no soundness violations, full incremental/cold parity), and
// the manifest digest is byte-identical at 1 vs 8 workers.
func TestRunnerDifferentialSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep in -short mode")
	}
	g, err := NewGenerator(testSpec(60))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	r1 := &Runner{Oracle: NewOracle(g), Workers: 1}
	rep1, out1, err := r1.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r8 := &Runner{Oracle: NewOracle(g), Workers: 8}
	rep8, _, err := r8.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if rep1.ManifestDigest != rep8.ManifestDigest {
		t.Fatalf("manifest digest differs across worker counts:\n1: %s\n8: %s", rep1.ManifestDigest, rep8.ManifestDigest)
	}
	if rep1.Classes[ClassViolation] != 0 {
		for _, v := range rep1.Violations {
			t.Errorf("violation at index %d (%s): %v", v.Index, v.ID, v.Violations)
		}
		t.Fatalf("%d violations in pinned corpus", rep1.Classes[ClassViolation])
	}
	if rep1.Classes[ClassOK] == 0 {
		t.Fatalf("no scenario passed all checks: %v", rep1.Classes)
	}
	// Manifest is reproducible from the outcomes alone.
	if d := ManifestDigest(g, out1); d != rep1.ManifestDigest {
		t.Fatalf("report digest %s != recomputed %s", rep1.ManifestDigest, d)
	}
	if !strings.HasPrefix(Manifest(g, out1), "rtmdm-corpus-manifest-v1\n") {
		t.Fatal("manifest missing version header")
	}
}

// TestInjectedBugTripsOracle proves the oracle is live: corrupting the
// analysis verdict (claiming everything schedulable) must produce
// soundness violations on a corpus slice that contains overloaded sets.
func TestInjectedBugTripsOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep in -short mode")
	}
	s := testSpec(40)
	s.Utils = []float64{1.5} // far past the schedulability boundary
	s.FaultProfiles = []string{"none"}
	g, err := NewGenerator(s)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(g)
	o.InjectVerdictBug = true
	rep, _, err := (&Runner{Oracle: o, Workers: 4}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Classes[ClassViolation] == 0 {
		t.Fatalf("injected verdict bug produced no violations: %v", rep.Classes)
	}
	found := false
	for _, v := range rep.Violations {
		for _, msg := range v.Violations {
			if strings.HasPrefix(msg, "soundness:") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("violations did not include a soundness failure: %+v", rep.Violations)
	}
}

func TestCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep in -short mode")
	}
	g, err := NewGenerator(testSpec(30))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "ckpt.json")

	// Reference: clean single-shot run.
	ref, _, err := (&Runner{Oracle: NewOracle(g), Workers: 2}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after a handful of completions.
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int32
	r := &Runner{Oracle: NewOracle(g), Workers: 2, CheckpointPath: ckpt, CheckpointEvery: 4,
		Progress: func(done, total int) {
			if n.Add(1) == 10 {
				cancel()
			}
		}}
	if _, _, err := r.Run(ctx); err == nil {
		t.Fatal("canceled run must return ctx error")
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	var ck checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		t.Fatal(err)
	}
	if len(ck.Outcomes) == 0 {
		t.Fatal("checkpoint holds no outcomes")
	}

	// Resume and converge to the same manifest digest.
	r2 := &Runner{Oracle: NewOracle(g), Workers: 3, CheckpointPath: ckpt}
	rep, _, err := r2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed == 0 {
		t.Fatal("resume loaded nothing from checkpoint")
	}
	if rep.ManifestDigest != ref.ManifestDigest {
		t.Fatalf("resumed digest %s != clean digest %s", rep.ManifestDigest, ref.ManifestDigest)
	}

	// A checkpoint for another spec must be refused.
	other, err := NewGenerator(testSpec(31))
	if err != nil {
		t.Fatal(err)
	}
	r3 := &Runner{Oracle: NewOracle(other), Workers: 1, CheckpointPath: ckpt}
	if _, _, err := r3.Run(context.Background()); err == nil {
		t.Fatal("checkpoint with mismatched spec digest must be rejected")
	}
}

func TestShrinkMinimizesCounterexample(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep in -short mode")
	}
	s := testSpec(60)
	s.Utils = []float64{1.5}
	s.TaskCounts = []int{4}
	g, err := NewGenerator(s)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(g)
	o.InjectVerdictBug = true
	ctx := context.Background()

	// Find a violating instance.
	var idx = -1
	for i := 0; i < g.Count(); i++ {
		if out := o.Check(ctx, i); out.Class == ClassViolation {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("no violating instance in overloaded slice")
	}
	item, err := o.Generated(idx)
	if err != nil {
		t.Fatal(err)
	}
	min, vs, steps := Shrink(ctx, o, item.Scenario)
	if len(vs) == 0 {
		t.Fatal("shrunk scenario lost the violation")
	}
	if steps == 0 {
		t.Fatal("shrinker evaluated no candidates")
	}
	if len(min.Tasks) > len(item.Scenario.Tasks) {
		t.Fatalf("shrink grew the task set: %d > %d", len(min.Tasks), len(item.Scenario.Tasks))
	}
	if len(min.Tasks) == len(item.Scenario.Tasks) && min.HorizonMs >= item.Scenario.HorizonMs && item.Scenario.HorizonMs > 2 {
		t.Fatalf("shrinker made no progress: %d tasks, horizon %v", len(min.Tasks), min.HorizonMs)
	}

	dir := t.TempDir()
	path, err := WriteRepro(dir, &Repro{ID: item.ID, SpecDigest: g.Digest(), Index: idx, Violations: vs, Scenario: min})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rp Repro
	if err := json.Unmarshal(data, &rp); err != nil {
		t.Fatalf("repro not valid JSON: %v", err)
	}
	if rp.ID != item.ID || rp.Scenario == nil || len(rp.Scenario.Tasks) != len(min.Tasks) {
		t.Fatalf("repro round-trip mismatch: %+v", rp)
	}
}

func TestShrinkNonViolatingIsNoop(t *testing.T) {
	g, err := NewGenerator(testSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(g)
	it, err := o.Generated(0)
	if err != nil {
		t.Fatal(err)
	}
	min, vs, steps := Shrink(context.Background(), o, it.Scenario)
	if len(vs) != 0 || steps != 0 {
		t.Fatalf("non-violating scenario shrank: %v (%d steps)", vs, steps)
	}
	if len(min.Tasks) != len(it.Scenario.Tasks) {
		t.Fatal("no-op shrink changed the scenario")
	}
}

func TestCorpusMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)
	g, err := NewGenerator(testSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(g)
	for i := 0; i < g.Count(); i++ {
		o.Check(context.Background(), i)
	}
	snap := reg.Snapshot()
	gen, _ := snap.Get("corpus.scenarios_generated")
	sim, _ := snap.Get("corpus.sim_runs")
	if gen.Value == 0 || sim.Value == 0 {
		t.Fatalf("corpus counters unwired: generated=%d sim_runs=%d", gen.Value, sim.Value)
	}
}
