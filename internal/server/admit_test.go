package server

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"rtmdm/internal/analysis"
	"rtmdm/internal/metrics"
	"rtmdm/internal/scenario"
)

// counterValue reads one counter out of a registry snapshot.
func counterValue(t *testing.T, reg *metrics.Registry, name string) int64 {
	t.Helper()
	s, ok := reg.Snapshot().Get(name)
	if !ok {
		t.Fatalf("metric %s not registered", name)
	}
	return s.Value
}

// capEval admits while the candidate set holds at most max tasks — a
// monotone stand-in for the real schedulability test, so admitter logic
// is exercised without model building.
func capEval(max int) evalFunc {
	return func(_ context.Context, sc *scenario.Scenario) (analysis.Verdict, error) {
		ok := len(sc.Tasks) <= max
		v := analysis.Verdict{Test: "cap", Schedulable: ok}
		if !ok {
			v.Reason = fmt.Sprintf("capacity %d exceeded", max)
		}
		return v, nil
	}
}

func testAdmitter(window time.Duration, eval evalFunc) *admitter {
	return newAdmitter(context.Background(), window, eval, testMetrics())
}

func admitReq(id uint64, node, task string) AdmitRequest {
	return AdmitRequest{
		RequestID: id,
		Node:      node,
		Task:      scenario.TaskSpec{Name: task, Model: "lenet5", PeriodMs: 100},
	}
}

func TestAdmitSequential(t *testing.T) {
	a := testAdmitter(0, capEval(2))
	ctx := context.Background()

	for i, want := range []bool{true, true, false} {
		resp, err := a.submit(ctx, admitReq(uint64(i+1), "n0", fmt.Sprintf("t%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Admitted != want {
			t.Fatalf("request %d admitted=%t; want %t (%s)", i+1, resp.Admitted, want, resp.Reason)
		}
	}
	if got := a.committedTasks("n0"); !reflect.DeepEqual(got, []string{"t0", "t1"}) {
		t.Fatalf("committed %v; want [t0 t1]", got)
	}
	a.drains.Wait()
}

func TestAdmitDuplicateName(t *testing.T) {
	a := testAdmitter(0, capEval(10))
	ctx := context.Background()
	if resp, _ := a.submit(ctx, admitReq(1, "n0", "same")); !resp.Admitted {
		t.Fatal("first admit rejected")
	}
	resp, err := a.submit(ctx, admitReq(2, "n0", "same"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Admitted {
		t.Fatal("duplicate task name admitted")
	}
	a.drains.Wait()
}

func TestAdmitBindingConflict(t *testing.T) {
	a := testAdmitter(0, capEval(10))
	ctx := context.Background()
	first := admitReq(1, "n0", "t0")
	first.Policy = "rt-mdm"
	if resp, _ := a.submit(ctx, first); !resp.Admitted {
		t.Fatal("first admit rejected")
	}
	second := admitReq(2, "n0", "t1")
	second.Policy = "serial-npfp"
	resp, err := a.submit(ctx, second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Admitted || resp.Reason == "" {
		t.Fatalf("conflicting policy admitted: %+v", resp)
	}
	// The committed set must be untouched by the rejection.
	if got := a.committedTasks("n0"); !reflect.DeepEqual(got, []string{"t0"}) {
		t.Fatalf("committed %v; want [t0]", got)
	}
	a.drains.Wait()
}

// TestAdmitConcurrentDeterministic is the -race determinism pin: N
// goroutines race distinct request IDs at one node, and the outcome —
// per-request decisions and the final committed set — must equal the
// sequential ID-order run, regardless of goroutine interleaving.
func TestAdmitConcurrentDeterministic(t *testing.T) {
	const n = 8
	const capacity = 3

	// Reference: sequential, ascending IDs, no batching.
	seq := testAdmitter(0, capEval(capacity))
	wantAdmit := make([]bool, n)
	for i := 0; i < n; i++ {
		resp, err := seq.submit(context.Background(), admitReq(uint64(i+1), "ref", fmt.Sprintf("t%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		wantAdmit[i] = resp.Admitted
	}
	want := seq.committedTasks("ref")
	seq.drains.Wait()

	for round := 0; round < 3; round++ {
		// A generous window so every racing goroutine lands in one batch
		// even on a loaded CI machine.
		a := testAdmitter(100*time.Millisecond, capEval(capacity))
		gotAdmit := make([]bool, n)
		var race sync.WaitGroup
		for i := 0; i < n; i++ {
			race.Add(1)
			go func(i int) {
				defer race.Done()
				resp, err := a.submit(context.Background(), admitReq(uint64(i+1), "node", fmt.Sprintf("t%d", i)))
				if err != nil {
					t.Error(err)
					return
				}
				gotAdmit[i] = resp.Admitted
			}(i)
		}
		race.Wait()
		a.drains.Wait()
		if got := a.committedTasks("node"); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: committed %v; want %v", round, got, want)
		}
		if !reflect.DeepEqual(gotAdmit, wantAdmit) {
			t.Fatalf("round %d: decisions %v; want %v", round, gotAdmit, wantAdmit)
		}
	}
}

// TestAdmitRealEvaluator exercises the production path (nil evalFunc →
// per-node incremental analyzer) end to end: small models admit, and
// verdicts carry WCRT bounds for committed tasks.
func TestAdmitRealEvaluator(t *testing.T) {
	a := testAdmitter(0, nil)
	ctx := context.Background()
	req := admitReq(1, "mcu0", "kws")
	req.Task.Model = "ds-cnn"
	req.Task.PeriodMs = 100
	resp, err := a.submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Admitted {
		t.Fatalf("ds-cnn @100ms rejected: %s", resp.Reason)
	}
	if len(resp.WCRTNs) == 0 || resp.WCRTNs["kws"] <= 0 {
		t.Fatalf("no WCRT bound in response: %+v", resp)
	}
	a.drains.Wait()
}

// TestAdmitRemove covers the removal op: dropping a committed task frees
// capacity (a previously rejected admission then succeeds), removing an
// unknown task fails without touching state, and responses flag Removed.
func TestAdmitRemove(t *testing.T) {
	a := testAdmitter(0, capEval(1))
	ctx := context.Background()
	if resp, _ := a.submit(ctx, admitReq(1, "n0", "t0")); !resp.Admitted {
		t.Fatal("first admit rejected")
	}
	if resp, _ := a.submit(ctx, admitReq(2, "n0", "t1")); resp.Admitted {
		t.Fatal("over-capacity admit accepted")
	}

	rm := admitReq(3, "n0", "t0")
	rm.Remove = true
	resp, err := a.submit(ctx, rm)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Removed {
		t.Fatalf("remove failed: %+v", resp)
	}
	if resp.Admitted {
		t.Fatalf("removal set Admitted (reserved for accepted admissions): %+v", resp)
	}
	if len(resp.Committed) != 0 {
		t.Fatalf("committed %v after removal; want empty", resp.Committed)
	}

	rm.RequestID = 4
	if resp, _ := a.submit(ctx, rm); resp.Admitted || resp.Reason == "" {
		t.Fatalf("removing an absent task succeeded: %+v", resp)
	}

	if resp, _ := a.submit(ctx, admitReq(5, "n0", "t1")); !resp.Admitted {
		t.Fatalf("admit after removal rejected: %s", resp.Reason)
	}
	a.drains.Wait()
}

// TestAdmitIncrementalWarm drives the production analyzer through a
// realistic admission stream — several commits, a rejected probe, a
// removal — and checks the committed set plus the warm metric. The node
// pins a serial policy: serial segmentation ignores the set size, so
// committed fixpoint bounds stay sound warm starts across additions
// (under the prefetch policies a size change re-segments every task and
// warm starts are refused — pinned at the end of this test).
func TestAdmitIncrementalWarm(t *testing.T) {
	reg := metrics.NewRegistry()
	a := newAdmitter(context.Background(), 0, nil, RegisterMetrics(reg))
	ctx := context.Background()

	mk := func(id uint64, name string, periodMs float64) AdmitRequest {
		return AdmitRequest{RequestID: id, Node: "mcu0", Policy: "serial-segfp",
			Task: scenario.TaskSpec{Name: name, Model: "tinymlp", PeriodMs: periodMs}}
	}
	// Admit with descending periods: each new task outranks the committed
	// ones under RM, so the committed tasks keep their base terms and
	// their previous bounds (which include real interference) are usable
	// warm starts. The first two admissions cannot warm-start — "a" alone
	// converges at its base — but from the third on at least one
	// committed fixpoint must.
	if resp, _ := a.submit(ctx, mk(1, "a", 200)); !resp.Admitted {
		t.Fatalf("admit a: %s", resp.Reason)
	}
	if resp, _ := a.submit(ctx, mk(2, "b", 100)); !resp.Admitted {
		t.Fatalf("admit b: %s", resp.Reason)
	}
	if resp, _ := a.submit(ctx, mk(3, "c", 50)); !resp.Admitted {
		t.Fatalf("admit c: %s", resp.Reason)
	}
	warmAfterC := counterValue(t, reg, "server.admit_warm")
	if warmAfterC == 0 {
		t.Fatal("third admission did not warm-start any fixpoint")
	}
	// An infeasible probe (period far below the model's demand) is cut
	// off by the necessary-condition screen and must not disturb the
	// committed warm state.
	if resp, _ := a.submit(ctx, mk(4, "probe", 0.001)); resp.Admitted {
		t.Fatal("infeasible probe admitted")
	}
	if resp, _ := a.submit(ctx, mk(5, "d", 40)); !resp.Admitted {
		t.Fatalf("admit d after rejected probe: %s", resp.Reason)
	}
	if got := counterValue(t, reg, "server.admit_warm"); got <= warmAfterC {
		t.Fatalf("admit_warm stuck at %d after more admissions", got)
	}

	rm := mk(6, "b", 0)
	rm.Remove = true
	if resp, _ := a.submit(ctx, rm); !resp.Removed {
		t.Fatalf("remove b: %+v", resp)
	}
	if got := a.committedTasks("mcu0"); !reflect.DeepEqual(got, []string{"a", "c", "d"}) {
		t.Fatalf("committed %v; want [a c d]", got)
	}
	// Post-removal the warm state is cleared; the next admission runs
	// cold and must still decide correctly.
	if resp, _ := a.submit(ctx, mk(7, "e", 30)); !resp.Admitted {
		t.Fatalf("admit e after removal: %s", resp.Reason)
	}

	// Prefetch policy (the default): SegmentBudget depends on the set
	// size, so an addition re-segments every committed task and the
	// analyzer must refuse warm starts — admit_warm stays flat no matter
	// how many tasks the node commits.
	warmBefore := counterValue(t, reg, "server.admit_warm")
	for i, p := range []float64{200, 100, 50, 40} {
		req := AdmitRequest{RequestID: uint64(10 + i), Node: "mcu1", Policy: "rt-mdm",
			Task: scenario.TaskSpec{Name: fmt.Sprintf("p%d", i), Model: "tinymlp", PeriodMs: p}}
		if resp, _ := a.submit(ctx, req); !resp.Admitted {
			t.Fatalf("rt-mdm admit p%d: %s", i, resp.Reason)
		}
	}
	if got := counterValue(t, reg, "server.admit_warm"); got != warmBefore {
		t.Fatalf("prefetch-policy additions warm-started (admit_warm %d -> %d); unsound across set sizes", warmBefore, got)
	}
	a.drains.Wait()
}
