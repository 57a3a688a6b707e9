package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"rtmdm/internal/analysis"
	"rtmdm/internal/core"
	"rtmdm/internal/corpus"
	"rtmdm/internal/cost"
	"rtmdm/internal/exec"
	"rtmdm/internal/metrics"
	"rtmdm/internal/task"
)

// corpus-sweep: the offline stack, no HTTP. The oracle sweeps a fixed
// slice of corpus.DefaultSpec() at the seed with one worker per CPU,
// after a warm-up slice has filled the generation memo caches.
const (
	sweepSlice = 300 // instances per sweep
	sweepWarm  = 16  // warm-up slice
	sweepQuick = 8   // slice of a smoke test
	// sweepWarmSeed offsets the warm-up slice's seed so it shares no
	// instance with the measured slice.
	sweepWarmSeed = 1 << 32
)

func sweepSpec(seed int64, count int) *corpus.Spec {
	s := corpus.DefaultSpec()
	s.Seed, s.Count = seed, count
	return s
}

type sweepSystem struct {
	t       *tracer
	reg     *metrics.Registry
	gen     *corpus.Generator
	workers int
}

func setupSweep(ctx context.Context, cfg config) (instance, error) {
	t, seed := cfg.t, cfg.seed
	s := &sweepSystem{t: t, workers: clientCount()}
	slice, warmSlice := sweepSlice, sweepWarm
	if cfg.quick {
		slice, warmSlice = sweepQuick, sweepQuick/2
	}
	warm, err := corpus.NewGenerator(sweepSpec(seed+sweepWarmSeed, warmSlice))
	if err != nil {
		return nil, err
	}
	if _, _, err := (&corpus.Runner{Oracle: corpus.NewOracle(warm), Workers: s.workers}).Run(ctx); err != nil {
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	if s.gen, err = corpus.NewGenerator(sweepSpec(seed, slice)); err != nil {
		return nil, err
	}
	if t != nil {
		s.reg = metrics.NewRegistry()
		instrument(s.reg)
	}
	return s, nil
}

// instrument points the process-wide corpus, exec and analysis
// counters at r; nil turns them off.
func instrument(r *metrics.Registry) {
	corpus.Instrument(r)
	exec.Instrument(r)
	analysis.Instrument(r)
}

func (s *sweepSystem) close(context.Context) error {
	if s.reg != nil {
		instrument(nil)
	}
	return nil
}

func (s *sweepSystem) counter(name string) int64 { return int64(value(snapshot(s.reg), name)) }

// sweep checks every instance of the slice with one goroutine per
// worker pulling indices in order, as corpus.Runner does, but timing
// each oracle check. Outcomes come back in index order.
func (s *sweepSystem) sweep(ctx context.Context, oracle *corpus.Oracle, round int) ([]corpus.Outcome, []time.Duration) {
	n := s.gen.Count()
	outcomes := make([]corpus.Outcome, n)
	lat := make([]time.Duration, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				start := time.Now()
				outcomes[i] = oracle.Check(ctx, i)
				lat[i] = time.Since(start)
				if s.t != nil {
					at := start.Sub(s.t.epoch)
					s.t.add(span{ID: uint64(round)<<32 | uint64(i), Name: "check", Start: at, End: at + lat[i]})
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return outcomes, lat
}

func (s *sweepSystem) run(ctx context.Context, d time.Duration, rep *report) error {
	oracle := corpus.NewOracle(s.gen)

	// The reference: a one-worker corpus.Runner sweep, which also fills
	// the generation memo caches for this slice before timing.
	refStart := time.Now()
	ref, refOut, err := (&corpus.Runner{Oracle: oracle, Workers: 1}).Run(ctx)
	if err != nil {
		return fmt.Errorf("reference sweep: %w", err)
	}
	refTime := time.Since(refStart)
	s.checkSweep("reference sweep", ref.ManifestDigest, refOut, ref.ManifestDigest, rep)

	// Timed phase: whole sweeps until d has passed, each required to
	// reproduce the reference manifest.
	evBefore := s.counter("sim.events_fired")
	genBefore, genErrBefore := s.counter("corpus.scenarios_generated"), s.counter("corpus.generate_errors")
	var lats []float64
	var busy time.Duration
	sweeps := 0
	start := time.Now()
	for sweeps == 0 || time.Since(start) < d {
		out, lat := s.sweep(ctx, oracle, sweeps+1)
		sweeps++
		s.checkSweep(fmt.Sprintf("sweep %d", sweeps), ref.ManifestDigest, out, corpus.ManifestDigest(s.gen, out), rep)
		for _, l := range lat {
			lats = append(lats, ms(l))
			busy += l
		}
	}
	elapsed := time.Since(start)
	rep.set("rss_peak_mb", rssPeakMB())
	checks := len(lats)
	events := s.counter("sim.events_fired") - evBefore
	generated, genErrs := s.counter("corpus.scenarios_generated")-genBefore, s.counter("corpus.generate_errors")-genErrBefore

	rep.set("op_p50_ms", rep.pct("check_p50_ms", lats, 50))
	rep.set("ops_per_s", float64(checks)/elapsed.Seconds())
	rep.notePct("check_p90_ms", lats, 90)
	rep.notePct("check_p99_ms", lats, 99)
	rep.detail["reference_sweep_s"] = refTime.Seconds()
	rep.detail["checks_per_s"] = rep.values["ops_per_s"]
	rep.detail["sweeps"] = sweeps
	rep.detail["slice"] = s.gen.Count()
	rep.detail["manifest_digest"] = ref.ManifestDigest
	rep.detail["classes"] = ref.Classes

	if s.t == nil {
		return nil
	}
	// Every sweep fires the same events, so the replay's event count is
	// one sweep's; the replay itself runs uninstrumented, like the
	// untraced sweeps the worker efficiency compares it with.
	instrument(nil)
	rp := s.replay(ctx)
	n := float64(rp.checks)
	rep.set("sim.events_per_check", ratio(float64(events), float64(checks)))
	rep.set("sim.ns_per_event", ratio(float64(rp.nominal+rp.faulted), float64(events)/float64(sweeps)))
	rep.set("corpus.generate_ms_per_check", ms(rp.generate)/n)
	rep.detail["analysis.cold_ms_per_check"] = ms(rp.cold) / n
	rep.detail["analysis.incremental_ms_per_check"] = ms(rp.incremental) / n
	rep.detail["exec.nominal_ms_per_check"] = ms(rp.nominal) / n
	rep.detail["exec.faulted_ms_per_check"] = ms(rp.faulted) / n
	rep.set("analysis.rta_p50_ms", median(rp.rta))
	rep.set("scenario.build_p50_ms", median(rp.build))
	rep.set("exec.sim_p50_ms", median(rp.sim))
	rep.set("corpus.generate_error_ratio", ratio(float64(genErrs), float64(generated)))
	// One replayed check is the work of one worker with no contention.
	single := n / rp.total.Seconds()
	rep.detail["corpus.worker_efficiency"] = ratio(rep.base["ops_per_s"], float64(s.workers)*single)
	rep.detail["busy_share"] = ratio(busy.Seconds(), float64(s.workers)*elapsed.Seconds())
	return nil
}

// checkSweep counts one sweep's checks and fails the run on any
// violation or on a manifest that differs from the reference.
func (s *sweepSystem) checkSweep(label, want string, out []corpus.Outcome, got string, rep *report) {
	rep.attempted += int64(len(out))
	for _, o := range out {
		if o.Class == corpus.ClassViolation || o.Class == corpus.ClassCanceled {
			rep.failed++
			rep.problem("%s: instance %d: %s %v", label, o.Index, o.Class, o.Violations)
		}
	}
	if got != want {
		rep.failed++
		rep.problem("%s: manifest %s differs from %s", label, got, want)
	}
}

// sweepReplay is what re-running each instance's oracle steps through
// the public functions took, on one goroutine.
type sweepReplay struct {
	checks                                               int
	generate, cold, incremental, nominal, faulted, total time.Duration
	rta, build, sim                                      []float64
	events                                               int64
}

// replayID files replay spans apart from the timed sweeps' check spans.
const replayID = 1 << 62

// replay walks the slice once, timing the steps the oracle takes per
// instance: Generator.At, Scenario.Build, analysis.EvaluateScenario, a
// fresh and a committed-warm IncrementalAnalyzer, exec.RunContext and,
// for instances with faults, exec.RunWithFaultsContext. It also times
// the instance policy's ForPolicyContext test on its own.
func (s *sweepSystem) replay(ctx context.Context) *sweepReplay {
	r := &sweepReplay{}
	for i := 0; i < s.gen.Count(); i++ {
		id := uint64(replayID | i)
		step := func(name string, f func()) time.Duration {
			at := s.t.now()
			f()
			d := s.t.now() - at
			s.t.add(span{ID: id, Name: name, Parent: "check", Start: at, End: at + d})
			return d
		}
		r.checks++
		var it corpus.Item
		var err error
		g := step("generate", func() { it, err = s.gen.At(i) })
		r.generate += g
		r.total += g
		if err != nil {
			continue
		}
		sc := it.Scenario.Canonicalize()
		var set *task.Set
		var plat cost.Platform
		var pol core.Policy
		var berr error
		b := step("build", func() { set, plat, pol, berr = sc.Build() })
		r.build = append(r.build, ms(b))
		r.total += b
		if berr != nil {
			continue
		}
		r.rta = append(r.rta, ms(step("rta", func() {
			if test, err := analysis.ForPolicyContext(ctx, pol); err == nil {
				test(set, plat)
			}
		})))
		c := step("cold", func() { _, _ = analysis.EvaluateScenario(ctx, sc) })
		inc := step("incremental", func() {
			a := analysis.NewIncrementalAnalyzer()
			if _, _, err := a.Evaluate(ctx, sc); err == nil {
				a.Commit(sc)
				_, _, _ = a.Evaluate(ctx, sc)
			}
		})
		nom := step("nominal", func() { _, _ = exec.RunContext(ctx, set, plat, pol, sc.Horizon()) })
		r.sim = append(r.sim, ms(nom))
		var f time.Duration
		if sc.Faults != nil {
			f = step("faulted", func() {
				if plan, err := sc.FaultPlan(); err == nil {
					_, _ = exec.RunWithFaultsContext(ctx, set, plat, pol, sc.Horizon(), plan)
				}
			})
		}
		r.cold += c
		r.incremental += inc
		r.nominal += nom
		r.faulted += f
		r.total += c + inc + nom + f
	}
	return r
}
