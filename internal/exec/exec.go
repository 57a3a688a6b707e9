// Package exec runs a multi-DNN task set on the simulated MCU platform
// under a core.Policy, in virtual time. It is the runtime half of the
// RT-MDM framework: releases periodic jobs, stages segment parameters
// through the DMA engine, dispatches segment computes on the CPU, and
// records everything in a trace for metrics and invariant checking.
package exec

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"rtmdm/internal/core"
	"rtmdm/internal/cost"
	"rtmdm/internal/fault"
	"rtmdm/internal/metrics"
	"rtmdm/internal/platform"
	"rtmdm/internal/segment"
	"rtmdm/internal/sim"
	"rtmdm/internal/task"
	"rtmdm/internal/trace"
)

// instruments is the package's metrics sink. All fields are nil when
// instrumentation is disabled (the default); metric methods are nil-safe,
// so every update below costs one branch and zero allocation when off.
type instruments struct {
	runs           *metrics.Counter
	jobsReleased   *metrics.Counter
	jobsCompleted  *metrics.Counter
	deadlineMisses *metrics.Counter
	ctxSwitches    *metrics.Counter
	cpuBusyNs      *metrics.Counter
	dmaBusyNs      *metrics.Counter
	flashBytes     *metrics.Counter
	sramPeak       *metrics.Gauge
	jobResponse    *metrics.Histogram
	faultsInjected *metrics.Counter
	jobsAborted    *metrics.Counter
	dmaRetries     *metrics.Counter
	releasesSupp   *metrics.Counter
	sim            *sim.Instruments
}

// instr is swapped atomically so Instrument may race with concurrent Runs
// (the parallel experiment sweeps) without a lock on the hot path. It always
// holds a non-nil struct; the zero struct means "disabled".
var instr atomic.Pointer[instruments]

func init() { instr.Store(&instruments{}) }

// Instrument wires the executor (and the sim engines it pools) to the
// registry; Instrument(nil) disables instrumentation again. Counts
// aggregate across every Run in the process, including concurrent ones.
// See docs/OBSERVABILITY.md for the metric catalogue.
func Instrument(r *metrics.Registry) {
	if r == nil {
		instr.Store(&instruments{})
		return
	}
	instr.Store(&instruments{
		runs:           r.Counter("exec.runs", "runs", "completed executor simulations"),
		jobsReleased:   r.Counter("exec.jobs_released", "jobs", "periodic job arrivals"),
		jobsCompleted:  r.Counter("exec.jobs_completed", "jobs", "jobs that finished their last segment"),
		deadlineMisses: r.Counter("exec.deadline_misses", "jobs", "jobs whose absolute deadline passed unfinished"),
		ctxSwitches:    r.Counter("exec.context_switches", "switches", "CPU dispatches that changed the running job"),
		cpuBusyNs:      r.Counter("exec.cpu_busy_ns", "ns", "pure CPU work simulated (unit rate)"),
		dmaBusyNs:      r.Counter("exec.dma_busy_ns", "ns", "pure DMA transfer work simulated (unit rate)"),
		flashBytes:     r.Counter("exec.flash_bytes", "bytes", "parameter bytes read from external memory"),
		sramPeak:       r.Gauge("exec.sram_peak_bytes", "bytes", "high-water mark of staged parameter bytes across runs"),
		jobResponse: r.Histogram("exec.job_response_ns", "ns",
			"response times of completed jobs",
			[]int64{1e5, 1e6, 5e6, 1e7, 5e7, 1e8, 5e8}),
		faultsInjected: r.Counter("exec.faults_injected", "faults", "injected fault events (overruns, release delays, DMA slowdown hits, transfer faults)"),
		jobsAborted:    r.Counter("exec.jobs_aborted", "jobs", "jobs killed at their deadline under the abort overrun policy"),
		dmaRetries:     r.Counter("exec.dma_retries", "transfers", "chunk transfers re-issued after an injected transient fault"),
		releasesSupp:   r.Counter("exec.releases_suppressed", "jobs", "job releases shed by the skip-next overrun policy"),
		sim: &sim.Instruments{
			Scheduled:     r.Counter("sim.events_scheduled", "events", "events entering the kernel queue"),
			Fired:         r.Counter("sim.events_fired", "events", "events whose callback executed"),
			Cancelled:     r.Counter("sim.events_cancelled", "events", "events removed before firing"),
			SlabHighWater: r.Gauge("sim.slab_high_water", "slots", "peak simultaneously pending events in any engine"),
		},
	})
}

// Result is everything one simulation run produces.
type Result struct {
	Trace   *trace.Trace
	Metrics *trace.Metrics
	Infos   []trace.TaskInfo
	Horizon sim.Time
	// CPUBusyNs and DMABusyNs are pure work nanoseconds (at unit rate).
	CPUBusyNs int64
	DMABusyNs int64
	// SRAMPeak is the high-water mark of staged parameter bytes.
	SRAMPeak int64
	// ActivationPeak is the high-water mark of activation bytes resident
	// at any instant: the running job's in-segment working set plus every
	// preempted job's parked boundary state.
	ActivationPeak int64
	// FlashBytes is the total parameter volume read from external memory.
	FlashBytes int64
	// EnergyMicroJ is the window's energy estimate from the platform's
	// energy profile (idle floor + CPU/DMA activity + flash reads).
	EnergyMicroJ float64
	// AvgPowerMw is EnergyMicroJ over the horizon.
	AvgPowerMw float64
	// FaultsInjected counts fault events the run's fault plan injected
	// (compute overruns, release delays, DMA slowdown hits, transfer
	// faults). Zero without a plan.
	FaultsInjected int64
	// JobsAborted counts jobs killed at their deadline (OverrunAbort).
	JobsAborted int64
	// DMARetries counts chunk transfers re-issued after an injected
	// transient transfer fault.
	DMARetries int64
	// ReleasesSuppressed counts job releases shed by OverrunSkipNext.
	ReleasesSuppressed int64
	// SRAMResidual is the staged parameter bytes still held at the horizon
	// (in-flight jobs only; aborted jobs must have released everything).
	SRAMResidual int64
}

// CPUUtilization is the fraction of the horizon the CPU computed.
func (r *Result) CPUUtilization() float64 {
	if r.Horizon == 0 {
		return 0
	}
	return float64(r.CPUBusyNs) / float64(r.Horizon) //lint:allow millitime -- utilization ratio at the result boundary
}

// DMAUtilization is the fraction of the horizon the DMA transferred.
func (r *Result) DMAUtilization() float64 {
	if r.Horizon == 0 {
		return 0
	}
	return float64(r.DMABusyNs) / float64(r.Horizon) //lint:allow millitime -- utilization ratio at the result boundary
}

// enginePool recycles simulation engines across runs: sweep-scale callers
// (F5/F19/F20/T21 run thousands of task sets) reuse each engine's event slab
// and queue capacity instead of re-growing them per simulated set. Nothing in
// a Result retains the engine, so pooling is invisible to callers.
var enginePool = sync.Pool{New: func() any { return sim.NewEngine() }}

// job is one released inference instance.
type job struct {
	rt          *rtask
	idx         int
	release     sim.Time
	absDeadline sim.Time
	// nextLoad is the first segment not yet fully staged; a transfer for
	// it may be in flight (loading). nextCompute is the first segment not
	// yet executed. Staged-and-unconsumed count = nextLoad - nextCompute.
	nextLoad    int
	nextCompute int
	loading     bool
	// segLoaded counts the bytes of segment nextLoad already staged when
	// transfers are chunked.
	segLoaded int64
	heldBytes int64
	done      bool
	aborted   bool
	// attempt counts transfer-fault retries of the current chunk; xfer and
	// retryEv track the in-flight (or queued) transfer and the armed backoff
	// so an abort can revoke them.
	attempt int
	xfer    *platform.Transfer
	retryEv sim.Event
}

func (j *job) name() string    { return j.rt.t.Name }
func (j *job) segments() int   { return j.rt.t.NumSegments() }
func (j *job) priority() int   { return j.rt.t.Priority }
func (j *job) staged() bool    { return j.nextCompute < j.nextLoad }
func (j *job) allLoaded() bool { return j.nextLoad >= j.segments() }

// rtask is the runtime state of one task.
type rtask struct {
	t *task.Task
	// pending holds released, unfinished jobs in release order; only the
	// head executes (jobs of one task are processed FIFO).
	pending []*job
	nextIdx int
	// suppress counts future releases to shed (OverrunSkipNext): each
	// deadline miss of this task suppresses one upcoming release.
	suppress int
}

//rtmdm:hotpath
func (rt *rtask) head() *job {
	if len(rt.pending) == 0 {
		return nil
	}
	return rt.pending[0]
}

type runner struct {
	eng  *sim.Engine
	cpu  *platform.CPU
	dma  *platform.DMA
	sram *platform.SRAM
	set  *task.Set
	plat cost.Platform
	pol  core.Policy
	tr   *trace.Trace
	rts  []*rtask
	// locked is the in-progress job under job-level non-preemption.
	locked *job
	// running is the job currently occupying the CPU (nil when idle).
	running *job
	// lastRan is the job that most recently held the CPU; dispatching a
	// different job costs plat.CPU.SwitchNs of extra compute.
	lastRan *job
	// actPeak tracks the activation-residency high-water mark.
	actPeak int64
	// flashBytes tallies parameter bytes read from external memory.
	flashBytes int64
	// kickPending coalesces same-instant scheduling decisions: all events
	// at one virtual instant (releases, completions) are processed before
	// the dispatcher picks work, so simultaneous releases are ordered by
	// urgency rather than by event-queue arrival.
	kickPending bool
	horizon     sim.Time
	err         error
	// ins is the process-wide metrics sink, loaded once per run (never
	// nil; the zero struct's nil metrics discard updates).
	ins *instruments
	// plan is the run's fault-injection schedule (nil = nominal run; every
	// plan method is nil-safe and injects nothing).
	plan *fault.Plan
	// Per-run fault accounting, surfaced on the Result.
	faultsInjected     int64
	jobsAborted        int64
	dmaRetries         int64
	releasesSuppressed int64
}

// noteFault records one injected fault event.
//
//rtmdm:hotpath
func (r *runner) noteFault() {
	r.faultsInjected++
	r.ins.faultsInjected.Add(1)
}

// InternalError wraps a panic recovered at the executor's public boundary:
// a malformed input (e.g. a hand-built plan with negative costs) drove the
// platform layer into an invariant panic. Callers get a structured error
// instead of a crash; the stack pinpoints the violated invariant.
type InternalError struct {
	Panic any
	Stack string
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("exec: internal error: %v", e.Panic)
}

// Run simulates the task set on the platform under the policy until the
// horizon. The returned result carries the full trace; Run also verifies
// the trace invariants before returning.
func Run(set *task.Set, plat cost.Platform, pol core.Policy, horizon sim.Duration) (*Result, error) {
	return RunWithFaults(set, plat, pol, horizon, nil)
}

// RunContext is Run with a cancellation context: the event loop polls
// ctx every few hundred events (via the kernel's stop hook, so the poll
// is allocation-free and cannot perturb event order) and aborts the run
// with ctx.Err() once the context is done. A run that completes before
// cancellation is byte-identical to Run — the server's request deadlines
// ride on this without costing nominal runs anything.
func RunContext(ctx context.Context, set *task.Set, plat cost.Platform, pol core.Policy, horizon sim.Duration) (*Result, error) {
	return RunWithFaultsContext(ctx, set, plat, pol, horizon, nil)
}

// RunWithFaults is Run under a fault-injection plan (nil = nominal: the
// run is byte-identical to Run). The plan perturbs timing — compute
// overruns, release delays, DMA slowdowns, transfer retries — while
// pol.Overrun selects what happens to jobs that consequently miss their
// deadlines. Platform-layer invariant panics are converted to an
// *InternalError rather than crashing the caller.
func RunWithFaults(set *task.Set, plat cost.Platform, pol core.Policy, horizon sim.Duration, plan *fault.Plan) (res *Result, err error) {
	return RunWithFaultsContext(context.Background(), set, plat, pol, horizon, plan)
}

// RunWithFaultsContext is RunWithFaults with a cancellation context; see
// RunContext for the abort semantics.
func RunWithFaultsContext(ctx context.Context, set *task.Set, plat cost.Platform, pol core.Policy, horizon sim.Duration, plan *fault.Plan) (res *Result, err error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("exec: non-positive horizon %v", horizon)
	}
	defer func() {
		if rec := recover(); rec != nil {
			res, err = nil, &InternalError{Panic: rec, Stack: string(debug.Stack())}
		}
	}()
	eng := enginePool.Get().(*sim.Engine)
	eng.Reset()
	defer enginePool.Put(eng)
	ins := instr.Load()
	eng.SetInstruments(ins.sim)
	_, cpu, dma := platform.NewBus(eng, plat)
	r := &runner{
		eng: eng, cpu: cpu, dma: dma,
		sram: platform.NewSRAM(plat.WeightBufBytes),
		set:  set, plat: plat, pol: pol,
		tr:      &trace.Trace{},
		horizon: horizon,
		ins:     ins,
		plan:    plan,
	}
	if plan != nil {
		dma.SetDerate(func(at sim.Time, workNs int64) int64 {
			scaled := plan.DMADerateNs(at, workNs)
			if scaled != workNs {
				r.noteFault()
			}
			return scaled
		})
	}
	for _, t := range set.Tasks {
		rt := &rtask{t: t}
		r.rts = append(r.rts, rt)
		r.scheduleRelease(rt, 0)
	}
	if ctx.Done() != nil {
		// One closure per run (setup path, not hot); the kernel polls it
		// every few hundred events.
		eng.SetStop(func() bool { return ctx.Err() != nil })
	}
	eng.Run(horizon)
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("exec: run aborted: %w", cerr)
	}
	if r.err != nil {
		return nil, r.err
	}

	infos := make([]trace.TaskInfo, 0, len(set.Tasks))
	for _, t := range set.Tasks {
		infos = append(infos, trace.TaskInfo{
			Name: t.Name, Period: t.Period, Deadline: t.Deadline,
			Offset: t.Offset, Jitter: r.effJitter(t), Segments: t.NumSegments(),
		})
	}
	if err := r.tr.CheckInvariants(infos); err != nil {
		return nil, fmt.Errorf("exec: trace invariant violated under %s: %w", pol.Name, err)
	}
	ins.runs.Add(1)
	ins.cpuBusyNs.Add(cpu.BusyNs)
	ins.dmaBusyNs.Add(dma.BusyNs)
	ins.flashBytes.Add(r.flashBytes)
	ins.sramPeak.SetMax(r.sram.Peak())
	energy := plat.Energy.EnergyMicroJ(int64(horizon), cpu.BusyNs, dma.BusyNs, r.flashBytes)
	return &Result{
		Trace:              r.tr,
		Metrics:            r.tr.Analyze(infos, horizon),
		Infos:              infos,
		Horizon:            horizon,
		CPUBusyNs:          cpu.BusyNs,
		DMABusyNs:          dma.BusyNs,
		SRAMPeak:           r.sram.Peak(),
		ActivationPeak:     r.actPeak,
		FlashBytes:         r.flashBytes,
		EnergyMicroJ:       energy,
		AvgPowerMw:         energy / 1000 / horizon.Seconds(),
		FaultsInjected:     r.faultsInjected,
		JobsAborted:        r.jobsAborted,
		DMARetries:         r.dmaRetries,
		ReleasesSuppressed: r.releasesSuppressed,
		SRAMResidual:       r.sram.Used(),
	}, nil
}

// effJitter is a task's effective release window: its configured jitter
// plus the plan's worst-case injected delay, clamped below the period so
// releases stay ordered. Without a plan it equals t.Jitter.
//
//rtmdm:hotpath
func (r *runner) effJitter(t *task.Task) sim.Duration {
	j := t.Jitter + r.plan.MaxReleaseDelay()
	if j >= t.Period {
		j = t.Period - 1
	}
	return j
}

//rtmdm:hotpath
func (r *runner) emit(k trace.Kind, j *job, seg int, bytes int64) {
	r.tr.Add(trace.Event{
		At: r.eng.Now(), Kind: k, Task: j.name(), Job: j.idx, Segment: seg, Bytes: bytes,
	})
}

// scheduleRelease arms job k's arrival: nominal grid point plus a
// deterministic pseudo-random delay within the task's jitter bound, plus
// any sporadic delay the fault plan injects (clamped to the effective
// jitter window so release order and the trace invariants hold).
func (r *runner) scheduleRelease(rt *rtask, k int) {
	nominal := core.SatAddTime(rt.t.Offset, core.SatMulTime(rt.t.Period, int64(k)))
	if nominal >= r.horizon {
		return
	}
	at := nominal + releaseJitter(rt.t.Name, k, rt.t.Jitter)
	if d := r.plan.ReleaseDelay(rt.t.Name, k); d > 0 {
		r.noteFault()
		at += d
		if lim := nominal + r.effJitter(rt.t); at > lim {
			at = lim
		}
	}
	r.eng.Schedule(at, func() { r.release(rt) })
}

// releaseJitter derives a deterministic delay in [0, max] from the task
// name and job index (FNV-1a, then core.Mix64), so jittered runs stay
// bit-reproducible.
//
//rtmdm:hotpath
func releaseJitter(name string, k int, max sim.Duration) sim.Duration {
	if max <= 0 {
		return 0
	}
	h := uint64(1469598103934665603)
	for _, c := range name {
		h = (h ^ uint64(c)) * 1099511628211
	}
	h = core.Mix64(h ^ uint64(k)*0x9e3779b97f4a7c15)
	return sim.Duration(h % uint64(max+1))
}

// release creates the next job of rt and schedules the following release.
// Under OverrunSkipNext a pending suppression (earned by a deadline miss)
// consumes this arrival instead: no job is created, no Release is traced.
func (r *runner) release(rt *rtask) {
	if rt.suppress > 0 {
		rt.suppress--
		rt.nextIdx++
		r.releasesSuppressed++
		r.ins.releasesSupp.Add(1)
		r.scheduleRelease(rt, rt.nextIdx)
		return
	}
	j := &job{
		rt:          rt,
		idx:         rt.nextIdx,
		release:     r.eng.Now(),
		absDeadline: r.eng.Now() + rt.t.Deadline,
	}
	rt.nextIdx++
	rt.pending = append(rt.pending, j)
	r.ins.jobsReleased.Add(1)
	r.emit(trace.Release, j, -1, 0)
	if j.absDeadline <= r.horizon {
		// Watch the absolute deadline. The check double-defers through a
		// fresh same-instant event so that a completion at exactly the
		// deadline (whose events were queued earlier, with lower sequence
		// numbers) is processed first and does not count as a miss.
		r.eng.Schedule(j.absDeadline, func() {
			r.eng.Schedule(r.eng.Now(), func() {
				if j.done {
					return
				}
				r.ins.deadlineMisses.Add(1)
				r.emit(trace.DeadlineMiss, j, -1, 0)
				switch r.pol.Overrun {
				case core.OverrunAbort:
					r.abort(j)
				case core.OverrunSkipNext:
					rt.suppress++
				}
			})
		})
	}
	r.scheduleRelease(rt, rt.nextIdx)
	r.kick()
}

// abort kills job j at its deadline (core.OverrunAbort): the CPU and the
// DMA channel are reclaimed if j occupies them, the armed retry (if any) is
// revoked, every staging buffer the job holds is released, and the job
// leaves its task's pending queue. Exactly one Abort event is traced; all
// of the job's callbacks are keyed on the activities and events cancelled
// here, so nothing of it can fire afterwards.
func (r *runner) abort(j *job) {
	if j.done || j.aborted {
		return
	}
	j.aborted = true
	j.done = true
	// The Abort event goes first: it closes the job's open compute/load
	// intervals in the trace, and reclaiming the DMA below may immediately
	// start another job's queued transfer at this same instant.
	r.jobsAborted++
	r.ins.jobsAborted.Add(1)
	r.emit(trace.Abort, j, -1, 0)
	if r.locked == j {
		r.locked = nil
	}
	for i, p := range j.rt.pending {
		if p == j {
			j.rt.pending = append(j.rt.pending[:i], j.rt.pending[i+1:]...)
			break
		}
	}
	if r.running == j {
		r.cpu.Abort()
		r.running = nil
	}
	j.retryEv.Cancel()
	j.retryEv = sim.Event{}
	j.loading = false
	if j.heldBytes > 0 {
		r.sram.Release(j.heldBytes)
		j.heldBytes = 0
	}
	if j.xfer != nil {
		x := j.xfer
		j.xfer = nil
		if !r.dma.Cancel(x) && r.dma.Current() == x {
			r.dma.Abort()
		}
	}
	r.kick()
}

// kick requests a dispatch pass at the current instant. The pass is
// deferred to a fresh event so that every release/completion at this
// instant is processed first; loads may unblock computes and vice versa,
// but a single pass suffices: tryDMA only issues transfers (completion
// comes later), and tryCPU's completion re-kicks.
func (r *runner) kick() {
	if r.err != nil || r.kickPending {
		return
	}
	r.kickPending = true
	r.eng.Schedule(r.eng.Now(), func() {
		r.kickPending = false
		if r.err != nil {
			return
		}
		r.tryDMA()
		r.tryCPU()
	})
}

// less orders jobs most-urgent-first under the policy's discipline.
func (r *runner) less(a, b *job) bool {
	if r.pol.EDF {
		if a.absDeadline != b.absDeadline {
			return a.absDeadline < b.absDeadline
		}
	}
	if a.priority() != b.priority() {
		return a.priority() < b.priority()
	}
	return a.name() < b.name()
}

// headJobs returns the head job of every task that has one.
func (r *runner) headJobs() []*job {
	out := make([]*job, 0, len(r.rts))
	for _, rt := range r.rts {
		if j := rt.head(); j != nil {
			out = append(out, j)
		}
	}
	return out
}

// cpuEligible reports whether j could occupy the CPU next.
//
//rtmdm:hotpath
func (r *runner) cpuEligible(j *job) bool {
	if j.done || !j.staged() {
		return false
	}
	if r.pol.JobLevelNP && r.locked != nil && r.locked != j {
		return false
	}
	return true
}

// loadTarget returns the job whose segments the DMA should stage next, or
// nil. Under PrefetchAcrossJobs every head job with buffer room competes;
// otherwise only the job holding (or about to hold) the CPU may load.
func (r *runner) loadTarget() *job {
	heads := r.headJobs()
	if len(heads) == 0 {
		return nil
	}
	loadable := func(j *job) bool {
		if j.done || j.loading || j.allLoaded() {
			return false
		}
		return j.nextLoad-j.nextCompute < r.pol.DepthFor(j.rt.t.Name)
	}
	if !r.pol.PrefetchAcrossJobs {
		// Identify the head-of-line job: the one on the CPU, the locked
		// job, or the most urgent head job. Serial policies never load for
		// anyone else, so a single thread of control is preserved.
		var hol *job
		switch {
		case r.running != nil:
			hol = r.running
		case r.pol.JobLevelNP && r.locked != nil:
			hol = r.locked
		default:
			for _, j := range heads {
				if hol == nil || r.less(j, hol) {
					hol = j
				}
			}
		}
		if hol != nil && loadable(hol) {
			return hol
		}
		return nil
	}
	if r.pol.DMA == core.DMAFIFO {
		// Memory-unaware ablation: any job with buffer room competes, in
		// release order.
		cands := heads[:0]
		for _, j := range heads {
			if loadable(j) {
				cands = append(cands, j)
			}
		}
		if len(cands) == 0 {
			return nil
		}
		sort.Slice(cands, func(i, k int) bool {
			if cands[i].release != cands[k].release {
				return cands[i].release < cands[k].release
			}
			return cands[i].name() < cands[k].name()
		})
		return cands[0]
	}
	// Priority-gated issuing (the RT-MDM design point): the channel is
	// reserved for the most urgent incomplete job that still has loads
	// remaining. A less urgent job may only transfer once that job has no
	// DMA demand left, so an urgent job is blocked by at most one
	// in-flight transfer over its whole lifetime — the property the
	// schedulability analysis builds on.
	var gate *job
	for _, j := range heads {
		if j.done || j.allLoaded() {
			continue
		}
		if gate == nil || r.less(j, gate) {
			gate = j
		}
	}
	if gate != nil && loadable(gate) {
		return gate
	}
	// When the gate job's window is full the channel deliberately idles:
	// letting less urgent jobs "steal the gap" would let them re-stage
	// segments during an urgent job's busy window, voiding the staged-
	// inventory blocking bound every task's analysis builds on — and a
	// lower task gains no *guaranteed* latency from stealing anyway, since
	// its offline bound must already assume its loads freeze whenever a
	// more urgent job has DMA demand left (see docs/ANALYSIS.md §4).
	return nil
}

// tryDMA issues at most one transfer; zero-byte segments stage instantly
// in a loop (they never occupy the channel).
func (r *runner) tryDMA() {
	for {
		if r.dma.Busy() {
			return
		}
		j := r.loadTarget()
		if j == nil {
			return
		}
		seg := j.rt.t.Plan.Segments[j.nextLoad]
		if r.pol.JobLevelNP && r.locked == nil {
			// Vanilla single-threaded semantics: the job occupies the
			// runtime from its very first load. Without this, a job
			// staged before an urgent release could grab the lock during
			// the urgent job's load and chain a second whole-job
			// blocking.
			r.locked = j
		}
		if seg.LoadBytes == 0 {
			r.emit(trace.LoadStart, j, seg.Index, 0)
			r.emit(trace.LoadEnd, j, seg.Index, 0)
			j.nextLoad++
			continue // staging was free; look for more work
		}
		if j.segLoaded == 0 {
			// The whole segment's buffer is reserved at the first chunk.
			if !r.sram.Alloc(seg.LoadBytes) {
				// Staging SRAM exhausted. With core.Provision satisfied
				// this cannot happen; without it we degrade gracefully by
				// waiting for buffers to free up (a compute completion
				// re-kicks).
				return
			}
			j.heldBytes += seg.LoadBytes
		}
		bytes := seg.LoadBytes - j.segLoaded
		if c := r.pol.ChunkBytes; c > 0 && bytes > c {
			// Limited-preemption DMA: issue one chunk, then re-arbitrate
			// the channel at the chunk boundary.
			bytes = c
		}
		r.issueChunk(j, seg, bytes)
		return
	}
}

// issueChunk submits one parameter-chunk transfer for j's segment seg and
// handles its completion. Under a fault plan the chunk may be lost to a
// transient transfer fault: the channel was occupied for the full duration
// but nothing staged, so the chunk is re-issued after an exponential
// backoff, up to the plan's retry budget. Retried submissions may queue
// behind other jobs' transfers, so the LoadStart trace event (and the flash
// read) is tied to channel occupancy (OnStart), not submission.
func (r *runner) issueChunk(j *job, seg segment.Segment, bytes int64) {
	j.loading = true
	t := &platform.Transfer{
		Bytes:    bytes,
		Priority: j.priority(),
	}
	t.OnStart = func() {
		r.flashBytes += bytes
		r.emit(trace.LoadStart, j, seg.Index, bytes)
	}
	t.OnDone = func() {
		j.xfer = nil
		if r.plan.TransferFaulty(j.name(), j.idx, seg.Index, j.segLoaded, j.attempt) {
			j.attempt++
			r.dmaRetries++
			r.ins.dmaRetries.Add(1)
			r.noteFault()
			r.emit(trace.DMARetry, j, seg.Index, bytes)
			j.retryEv = r.eng.After(r.plan.RetryBackoffNs(j.attempt), func() {
				j.retryEv = sim.Event{}
				r.issueChunk(j, seg, bytes)
			})
			return
		}
		j.attempt = 0
		r.emit(trace.LoadEnd, j, seg.Index, bytes)
		j.loading = false
		j.segLoaded += bytes
		if j.segLoaded >= seg.LoadBytes {
			j.segLoaded = 0
			j.nextLoad++
		}
		r.kick()
	}
	j.xfer = t
	r.dma.Submit(t)
}

// tryCPU dispatches the most urgent staged segment if the CPU is idle.
func (r *runner) tryCPU() {
	if r.cpu.Busy() {
		return
	}
	var best *job
	for _, j := range r.headJobs() {
		if !r.cpuEligible(j) {
			continue
		}
		if best == nil || r.less(j, best) {
			best = j
		}
	}
	if best == nil {
		return
	}
	j := best
	seg := j.rt.t.Plan.Segments[j.nextCompute]
	if r.pol.JobLevelNP {
		r.locked = j
	}
	work := seg.ComputeNs
	if extra := r.plan.OverrunExtraNs(j.name(), j.idx, seg.Index, seg.ComputeNs); extra > 0 {
		// Injected WCET exceedance: the segment computes longer than its
		// modeled cost. Traced before ComputeStart, extra ns in Bytes.
		work += extra
		r.noteFault()
		r.emit(trace.Overrun, j, seg.Index, extra)
	}
	if r.lastRan != j {
		work += r.plat.CPU.SwitchNs
		r.ins.ctxSwitches.Add(1)
	}
	r.running = j
	r.lastRan = j
	r.accountActivations(j, seg)
	r.emit(trace.ComputeStart, j, seg.Index, 0)
	r.cpu.Run(work, func() { r.onComputeDone(j, seg) })
	// Starting a compute may open prefetch room (depth window slides only
	// on completion, not here) — nothing further to do.
}

func (r *runner) onComputeDone(j *job, seg segment.Segment) {
	r.running = nil
	r.emit(trace.ComputeEnd, j, seg.Index, 0)
	// The segment's staging buffer frees once its compute is done.
	if seg.LoadBytes > 0 {
		r.sram.Release(seg.LoadBytes)
		j.heldBytes -= seg.LoadBytes
	}
	j.nextCompute++
	if j.nextCompute >= j.segments() {
		j.done = true
		r.ins.jobsCompleted.Add(1)
		r.ins.jobResponse.Observe(int64(r.eng.Now() - j.release))
		r.emit(trace.JobDone, j, -1, 0)
		if j.heldBytes != 0 {
			r.fail(fmt.Errorf("exec: job %s#%d finished holding %d B", j.name(), j.idx, j.heldBytes))
			return
		}
		if j.rt.head() != j {
			r.fail(fmt.Errorf("exec: job %s#%d finished out of order", j.name(), j.idx))
			return
		}
		j.rt.pending = j.rt.pending[1:]
		if r.locked == j {
			r.locked = nil
		}
	}
	r.kick()
}

// accountActivations checks the activation-SRAM invariant at a dispatch
// instant: the running job's working set plus every other started-but-
// unfinished job's parked boundary state must fit the non-staging SRAM.
// With core.Provision satisfied this can never trip; it exists to validate
// the provisioning rule empirically on every simulated schedule.
func (r *runner) accountActivations(running *job, seg segment.Segment) {
	var resident int64
	if running.rt.t.Plan.Model != nil {
		resident = running.rt.t.Plan.Model.PeakActivationBytes()
	}
	for _, rt := range r.rts {
		j := rt.head()
		if j == nil || j == running || j.nextCompute == 0 {
			continue // not started: holds no activation state
		}
		resident += rt.t.Plan.Segments[j.nextCompute-1].ResidentBytes
	}
	if resident > r.actPeak {
		r.actPeak = resident
	}
	if act := r.plat.SRAMBytes - r.plat.WeightBufBytes; resident > act && running.rt.t.Plan.Model != nil {
		r.fail(fmt.Errorf("exec: activation SRAM overcommitted: %d B resident, %d B available (provisioning violated)",
			resident, act))
	}
}

func (r *runner) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}
