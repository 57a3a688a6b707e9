// Command perfbench is the repository benchmark. It runs one workload
// against the system in-process — servers and gateway behind real
// loopback listeners, or the corpus oracle directly — checks the
// outputs, and prints a run record and then one JSON result line. See
// README.md for the workloads, the metrics and how to run it.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// instance is one workload's system, set up and ready to measure.
type instance interface {
	// run performs the cold pass, the timed phase of length d and the
	// output checks, filling rep. A traced instance then replays the
	// recorded inputs and fills the per-layer metrics too.
	run(ctx context.Context, d time.Duration, rep *report) error
	close(ctx context.Context) error
}

// workload is one named input set and the system it drives.
type workload struct {
	name  string
	setup func(ctx context.Context, cfg config) (instance, error)
	// setupReps is how many cold set-ups an untraced run times: its own
	// and setupReps-1 more, each in a fresh process, half before and
	// half after the timed phase so that their median spans the run.
	// setup_s is the median. admit-churn's set-up takes about 2 ms, so
	// it affords more of them against the host's jitter.
	setupReps int
}

// config is what a workload's set-up gets.
type config struct {
	seed int64
	// t records spans; nil for an untraced pass.
	t *tracer
	// quick shrinks the inputs for the package's smoke tests; its
	// numbers compare with nothing.
	quick bool
}

// workloads are the runnable workloads. BENCHMARK.json lists the first
// two; corpus-sweep saturates both CPUs with memory-heavy work and
// spread too widely between runs on a shared host to be gated, so it
// is run by hand.
var workloads = []workload{
	{"admit-churn", setupAdmit, 31},
	{"analyze-mix", setupMix, 11},
	{"corpus-sweep", setupSweep, 11},
}

// deterministic names the run-record digests a seed fixes, each with
// the count of entries it covers.
var deterministic = []struct{ digest, count string }{
	{"admit_log_sha256", "admit_log_ops"},
	{"manifest_digest", "slice"},
}

// minBeyond is how many samples a reported percentile needs beyond it.
const minBeyond = 10

type options struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	spans    string
	commit   string
	// exe is the benchmark's own executable, run with --setup-only for
	// the extra set-ups; empty times the run's own set-up only.
	exe string
	// quick shrinks the inputs and skips the sample rule; the
	// package's smoke tests set it.
	quick bool
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var seconds, trace int
	var setupOnly bool
	fs.StringVar(&opt.workload, "workload", "", "workload to run: admit-churn, analyze-mix or corpus-sweep")
	fs.Int64Var(&opt.seed, "seed", 1, "workload seed (inputs are a pure function of it)")
	fs.IntVar(&seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs an untraced and a traced pass and reports the per-layer metrics")
	fs.BoolVar(&setupOnly, "setup-only", false, "set the workload up once, print the seconds it took, as measured and scaled, and exit (untraced runs time their extra set-ups this way)")
	fs.StringVar(&opt.spans, "spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	fs.StringVar(&opt.commit, "commit", "unknown", "commit the measured tree was built from, for the run record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	opt.dur, opt.trace = time.Duration(seconds)*time.Second, trace == 1
	var w *workload
	for i := range workloads {
		if workloads[i].name == opt.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", opt.workload)
		return 2
	}
	if setupOnly {
		st, err := timedSetup(ctx, w, config{seed: opt.seed})
		if err == nil {
			err = json.NewEncoder(stdout).Encode(st)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	opt.exe = exe

	res, rec, err := measure(ctx, w, opt)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"record": rec}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: output checks failed:", strings.Join(rec["problems"].([]string), "; "))
		return 1
	}
	return 0
}

// measure runs the workload as opt asks and assembles the result and
// the run record.
func measure(ctx context.Context, w *workload, opt options) (result, map[string]any, error) {
	var reps []*report
	var res result
	if !opt.trace {
		rep := newReport(minBeyond)
		if opt.quick {
			rep.minBeyond = 0
		}
		var setups, measured []float64
		add := func(st setupTime) {
			setups = append(setups, st.Scaled)
			measured = append(measured, st.Measured)
		}
		elsewhere := func(n int) error {
			for i := 0; i < n && opt.exe != ""; i++ {
				st, err := childSetup(ctx, opt)
				if err != nil {
					return err
				}
				add(st)
			}
			return nil
		}
		if err := elsewhere((w.setupReps - 1) / 2); err != nil {
			return res, nil, err
		}
		inst, st, err := scaledSetup(ctx, w, config{seed: opt.seed, quick: opt.quick})
		if err != nil {
			return res, nil, err
		}
		add(st)
		// The workload reads the peak at the end of its timed phase, so
		// rss_peak_mb covers the served load and not set-up garbage.
		resetPeakRSS()
		if err := runPass(ctx, inst, opt.dur, rep); err != nil {
			return res, nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if err := elsewhere(w.setupReps / 2); err != nil {
			return res, nil, err
		}
		rep.set("setup_s", median(setups))
		rep.detail["setup_s.all"] = setups
		rep.detail["measured_setup_s.all"] = measured
		reps = append(reps, rep)
		res.Metrics = pick(rep, endToEnd)
	} else {
		// The untraced pass gives the baseline the tracing overhead and
		// the worker efficiency are taken against.
		half := opt.dur / 2
		base := newReport(0)
		if err := onePass(ctx, w, config{seed: opt.seed, quick: opt.quick}, half, base); err != nil {
			return res, nil, err
		}
		t := newTracer()
		rep := newReport(0)
		rep.base = base.values
		if err := onePass(ctx, w, config{seed: opt.seed, t: t, quick: opt.quick}, half, rep); err != nil {
			return res, nil, err
		}
		// The generation memo caches are process-wide, so only the first
		// pass generated its inputs cold; its figures stand for the run.
		for _, k := range []string{"corpus.generate_ms_per_check", "corpus.generate_error_ratio"} {
			if v, ok := base.values[k]; ok {
				rep.set(k, v)
			}
		}
		rep.set("trace.overhead_ratio", ratio(rep.values["op_p50_ms"], base.values["op_p50_ms"]))
		// Both passes ran the same seed, so their logs must agree.
		for _, k := range deterministic {
			if v, ok := base.detail[k.digest]; ok && base.detail[k.count] == rep.detail[k.count] && v != rep.detail[k.digest] {
				rep.failed++
				rep.problem("%s differs between two passes with seed %d", k.digest, opt.seed)
			}
		}
		if err := os.MkdirAll(opt.spans, 0o755); err != nil {
			return res, nil, err
		}
		path := filepath.Join(opt.spans, fmt.Sprintf("%s-seed%d.json", w.name, opt.seed))
		if err := t.writeFile(path); err != nil {
			return res, nil, fmt.Errorf("writing spans: %w", err)
		}
		rep.detail["spans_file"] = path
		reps = append(reps, base, rep)
		res.Metrics = pick(rep, perLayer)
	}

	problems := []string{}
	nproblems := 0
	detail := map[string]any{}
	var short []string
	for i, rep := range reps {
		res.Attempted += rep.attempted
		res.Failed += rep.failed
		problems = append(problems, rep.problems...)
		nproblems += rep.nproblems
		short = append(short, rep.short...)
		for k, v := range rep.detail {
			if len(reps) > 1 && i == 0 {
				k = "untraced." + k
			}
			detail[k] = v
		}
	}
	if len(short) > 0 {
		return res, nil, fmt.Errorf("percentiles not resolved by the sample (run longer): %s", strings.Join(short, "; "))
	}
	res.Correct = nproblems == 0 && res.Failed == 0
	if res.Attempted < 1 {
		return res, nil, fmt.Errorf("no operation was attempted")
	}
	rec := runRecord(opt)
	rec["detail"] = detail
	rec["problems"] = problems
	return res, rec, nil
}

// setupTime is one timed set-up, in seconds as measured and at the
// reference host speed (hostspeed.go).
type setupTime struct {
	Scaled   float64 `json:"setup_s"`
	Measured float64 `json:"measured_setup_s"`
}

// scaledSetup sets the workload up and times it. The host's speed is
// sampled just before and just after, and the time is scaled to the
// reference speed by their mean: set-up is CPU work, and on a shared
// host its time follows the host's speed as analyze-mix's requests do.
func scaledSetup(ctx context.Context, w *workload, cfg config) (instance, setupTime, error) {
	host := newHostSampler(clientCount())
	before := host.sample(hostSample)
	start := time.Now()
	inst, err := w.setup(ctx, cfg)
	if err != nil {
		return nil, setupTime{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	secs := time.Since(start).Seconds()
	after := host.sample(hostSample)
	return inst, setupTime{Scaled: secs * hostScale((before+after)/2), Measured: secs}, nil
}

// timedSetup sets the workload up once and tears it down again.
func timedSetup(ctx context.Context, w *workload, cfg config) (setupTime, error) {
	inst, st, err := scaledSetup(ctx, w, cfg)
	if err != nil {
		return st, err
	}
	if err := inst.close(ctx); err != nil {
		return st, fmt.Errorf("%s tear-down: %w", w.name, err)
	}
	return st, nil
}

// childSetup times one set-up in a fresh process, the benchmark's own
// executable run with --setup-only. Like the run's own set-up it starts
// with an empty heap and cold generation memo caches, which a second
// set-up in the same process would find warm.
func childSetup(ctx context.Context, opt options) (setupTime, error) {
	cmd := osexec.CommandContext(ctx, opt.exe, "--workload", opt.workload,
		"--seed", strconv.FormatInt(opt.seed, 10), "--setup-only")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var st setupTime
	if err != nil {
		return st, fmt.Errorf("set-up process: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	if err := json.Unmarshal(out, &st); err != nil || st.Scaled <= 0 || st.Measured <= 0 {
		return st, fmt.Errorf("set-up process printed %q", out)
	}
	return st, nil
}

// onePass sets the workload up once and measures it for d.
func onePass(ctx context.Context, w *workload, cfg config, d time.Duration, rep *report) error {
	inst, err := w.setup(ctx, cfg)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", w.name, err)
	}
	if err := runPass(ctx, inst, d, rep); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	return nil
}

// runPass runs a set-up instance and always tears it down.
func runPass(ctx context.Context, inst instance, d time.Duration, rep *report) error {
	err := inst.run(ctx, d, rep)
	if cerr := inst.close(ctx); err == nil {
		err = cerr
	}
	return err
}

// pick copies the named metrics out of rep; a name the workload did
// not set reports 0.
func pick(rep *report, defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: rep.values[d.name], Unit: d.unit}
	}
	return out
}

// runRecord is the environment a result was measured in.
func runRecord(opt options) map[string]any {
	return map[string]any{
		"workload":   opt.workload,
		"seed":       opt.seed,
		"seconds":    opt.dur.Seconds(),
		"trace":      opt.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"clients":    clientCount(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     opt.commit,
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// resetPeakRSS returns the freed heap to the kernel and resets the
// process's peak resident set (VmHWM) to its current size.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // absent outside Linux
}

// rssPeakMB is the process's peak resident set (VmHWM) in MiB, or the
// Go runtime's obtained memory where /proc is unavailable.
func rssPeakMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
