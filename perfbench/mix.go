package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"time"

	"rtmdm/internal/analysis"
	"rtmdm/internal/core"
	"rtmdm/internal/corpus"
	"rtmdm/internal/exec"
	"rtmdm/internal/metrics"
	"rtmdm/internal/scenario"
	"rtmdm/internal/server"
	"rtmdm/internal/sim"
)

// analyze-mix: the read path. One server.Server, no gateway; clients
// send /v1/analyze (all policies) and /v1/simulate for corpus
// scenarios, mostly from a hot set far smaller than the result cache
// and otherwise from a pool several times larger than it.
const (
	mixHot          = 32  // hot scenarios; 64 cache keys against 256 entries
	mixPool         = 512 // cold scenarios; 1024 cache keys
	mixQuick        = 8   // hot set and a quarter of the pool in a smoke test
	mixHotShare     = 0.8
	mixAnalyzeShare = 0.75 // analyze:simulate = 3:1
	mixSimChecks    = 32   // seeded sample of simulations checked against exec
	mixSegment      = time.Second
)

// mixSpec is the corpus slice the scenarios come from: the default
// spec without fault injection, so every simulation is the nominal
// exec.RunContext run, and without mobilenetv1-0.25 and autoencoder.
// With those two the cold misses' compute is dominated by a few heavy
// scenarios: over six seeds run alternately with and without them on a
// shared 2-vCPU host, requests per second spread 0.22 against 0.14, and
// set-up took twice as long.
func mixSpec(seed int64, hot, pool int) *corpus.Spec {
	s := corpus.DefaultSpec()
	s.Seed = seed
	s.Count = hot + pool + pool/8 + 1 // headroom for generation errors
	s.FaultProfiles = []string{"none"}
	s.Models = []string{"ds-cnn", "lenet5", "mobilenetv2-micro", "resnet8", "squeezenet-micro", "tinymlp"}
	return s
}

type mixScenario struct {
	sc       *scenario.Scenario
	analyze  []byte // request bodies
	simulate []byte
}

// mixOp is one request and what came back.
type mixOp struct {
	id       uint64
	simulate bool
	scen     int
	rep      reply
	timed    bool
	// scale converts a timed operation's latency to the reference host
	// speed.
	scale float64
	// differs marks a body unequal to the first its client got for the
	// same key; only first bodies are kept.
	differs bool
}

type mixSystem struct {
	t         *tracer
	reg       *metrics.Registry
	seed      int64
	hot, pool int
	scens     []mixScenario // hot set first
	// Set-up's Generator.At calls: their total time, their number and
	// how many found no feasible draw.
	genTime           time.Duration
	genCalls, genErrs int
	srv               *server.Server
	svc               *service
	clients           []*client
}

func setupMix(ctx context.Context, cfg config) (instance, error) {
	t := cfg.t
	s := &mixSystem{t: t, seed: cfg.seed, hot: mixHot, pool: mixPool}
	if cfg.quick {
		s.hot, s.pool = mixQuick, 4*mixQuick
	}
	if err := s.generate(ctx); err != nil {
		return nil, err
	}
	if t != nil {
		s.reg = metrics.NewRegistry()
		exec.Instrument(s.reg)
	}
	s.srv = server.New(server.Config{Registry: s.reg})
	svc, err := listen(spanHandler(t, "server", "client", s.srv))
	if err != nil {
		s.close(ctx)
		return nil, err
	}
	s.svc = svc
	for c := 0; c < clientCount(); c++ {
		cl := newClient()
		s.clients = append(s.clients, cl)
		if err := cl.get(ctx, s.svc.url+"/healthz"); err != nil {
			s.close(ctx)
			return nil, fmt.Errorf("server warm-up: %w", err)
		}
	}
	return s, nil
}

// generate expands the corpus slice in parallel and keeps the first
// hot+pool instances that generate, in index order.
func (s *mixSystem) generate(ctx context.Context) error {
	want := s.hot + s.pool
	gen, err := corpus.NewGenerator(mixSpec(s.seed, s.hot, s.pool))
	if err != nil {
		return err
	}
	items := make([]*mixScenario, gen.Count())
	errs := make([]error, gen.Count())
	took := make([]time.Duration, gen.Count())
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < clientCount(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				start := time.Now()
				it, err := gen.At(i)
				took[i] = time.Since(start)
				if err != nil {
					errs[i] = errSkipped // an infeasible draw; the next index replaces it
					continue
				}
				ms := &mixScenario{sc: it.Scenario}
				if ms.analyze, err = json.Marshal(server.AnalyzeRequest{Scenario: mustJSON(it.Scenario)}); err == nil {
					ms.simulate, err = json.Marshal(server.SimulateRequest{Scenario: mustJSON(it.Scenario)})
				}
				items[i], errs[i] = ms, err
			}
		}()
	}
feed:
	for i := range items {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, it := range items {
		switch {
		case errs[i] == errSkipped:
			s.genErrs++
		case errs[i] != nil:
			return errs[i]
		}
		s.genCalls++
		s.genTime += took[i]
		if it != nil && len(s.scens) < want {
			s.scens = append(s.scens, *it)
		}
	}
	if len(s.scens) < want {
		return fmt.Errorf("corpus slice gave %d scenarios, want %d", len(s.scens), want)
	}
	return nil
}

// errSkipped marks a corpus index whose draw had no feasible workload.
var errSkipped = errors.New("infeasible draw")

func mustJSON(v any) json.RawMessage {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // a generated scenario always marshals
	}
	return data
}

func (s *mixSystem) close(ctx context.Context) error {
	for _, c := range s.clients {
		c.close()
	}
	var err error
	if s.svc != nil {
		err = s.svc.close(ctx)
	}
	if s.srv != nil {
		if serr := s.srv.Shutdown(ctx); err == nil {
			err = serr
		}
	}
	if s.reg != nil {
		exec.Instrument(nil)
	}
	return err
}

func (s *mixSystem) send(ctx context.Context, c int, op *mixOp) {
	body, path := s.scens[op.scen].analyze, "/v1/analyze"
	if op.simulate {
		body, path = s.scens[op.scen].simulate, "/v1/simulate"
	}
	var id uint64
	if s.t != nil {
		id = op.id
	}
	op.rep = s.clients[c].post(ctx, s.svc.url+path, body, id)
	clientSpan(s.t, op.id, op.rep)
}

func (s *mixSystem) run(ctx context.Context, d time.Duration, rep *report) error {
	nc := len(s.clients)
	logs := make([][]*mixOp, nc)
	firsts := make([]map[mixKey][]byte, nc)
	for c := range firsts {
		firsts[c] = map[mixKey][]byte{}
	}
	// record logs op and keeps its body only if it is the first its
	// client got for the key; later bodies are compared and dropped.
	record := func(c int, op *mixOp) {
		logs[c] = append(logs[c], op)
		if !op.rep.ok() {
			return
		}
		k := mixKey{op.scen, op.simulate}
		if first, ok := firsts[c][k]; ok {
			op.differs = !bytes.Equal(first, op.rep.body)
			op.rep.body = nil
		} else {
			firsts[c][k] = op.rep.body
		}
	}
	seqs := make([]uint64, nc)
	nextID := func(c int) uint64 {
		seqs[c]++
		return uint64(c+1)<<32 | seqs[c]
	}
	// Cold pass: the hot set's first analyze and simulate, which fill
	// the result cache.
	coldStart := time.Now()
	eachClient(nc, func(c int) {
		for i := c; i < s.hot; i += nc {
			for _, sim := range []bool{false, true} {
				op := &mixOp{id: nextID(c), simulate: sim, scen: i}
				s.send(ctx, c, op)
				record(c, op)
			}
		}
	})
	cold := time.Since(coldStart)

	// The timed phase runs in segments. Between segments both clients
	// are idle while the host's speed is sampled; each operation's
	// latency and each segment's time are scaled by the mean of the
	// samples on either side.
	rngs := make([]*rand.Rand, nc)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(s.seed*7919 + int64(c) + 1))
	}
	before := snapshot(s.reg)
	var elapsed time.Duration
	var scaled float64 // seconds at the reference speed
	var hostMs []float64
	host := newHostSampler(nc)
	prev := host.sample(hostSample)
	for elapsed < d {
		segStart := time.Now()
		segEnd := segStart.Add(min(mixSegment, d-elapsed))
		segOps := make([][]*mixOp, nc)
		eachClient(nc, func(c int) {
			rng := rngs[c]
			for time.Now().Before(segEnd) {
				op := &mixOp{id: nextID(c), timed: true, simulate: rng.Float64() >= mixAnalyzeShare}
				if rng.Float64() < mixHotShare {
					op.scen = rng.Intn(s.hot)
				} else {
					op.scen = s.hot + rng.Intn(s.pool)
				}
				s.send(ctx, c, op)
				record(c, op)
				segOps[c] = append(segOps[c], op)
			}
		})
		seg := time.Since(segStart)
		cur := host.sample(hostSample)
		scale := hostScale((prev + cur) / 2)
		for _, ops := range segOps {
			for _, op := range ops {
				op.scale = scale
			}
		}
		elapsed += seg
		scaled += seg.Seconds() * scale
		hostMs = append(hostMs, cur)
		prev = cur
	}
	rep.detail["host_chunk_ms"] = hostMs
	counters := snapshot(s.reg).Diff(before)
	rep.set("rss_peak_mb", rssPeakMB())

	return s.check(ctx, logs, firsts, cold, elapsed, scaled, counters, rep)
}

// mixKey names one cached result: a scenario and the route.
type mixKey struct {
	scen     int
	simulate bool
}

// check requires every body to equal the first body served for its
// key, replays the analyses and a seeded sample of the simulations, and
// computes the metrics.
func (s *mixSystem) check(ctx context.Context, logs [][]*mixOp, firsts []map[mixKey][]byte, cold, elapsed time.Duration, scaled float64, counters metrics.Snapshot, rep *report) error {
	first := map[mixKey][]byte{}
	for _, fc := range firsts {
		for k, body := range fc {
			if prev, ok := first[k]; !ok {
				first[k] = body
			} else if !bytes.Equal(prev, body) {
				rep.failed++
				rep.problem("scenario %d (simulate=%t): the clients were served different bodies", k.scen, k.simulate)
			}
		}
	}
	var all, raw, analyzeLat, simulateLat []float64
	completed := 0
	for _, log := range logs {
		for _, op := range log {
			rep.attempted++
			lat, measured := failedSample, failedSample
			switch {
			case !op.rep.ok():
				rep.failed++
				rep.problem("request %d: %s", op.id, op.rep.failure())
			case op.differs:
				rep.failed++
				rep.problem("request %d (%s): body differs from the first body served for its key", op.id, op.rep.cache)
			default:
				measured = ms(op.rep.lat)
				lat = measured * op.scale
			}
			if !op.timed {
				continue
			}
			if op.rep.ok() {
				completed++
			}
			all = append(all, lat)
			raw = append(raw, measured)
			if op.simulate {
				simulateLat = append(simulateLat, lat)
			} else {
				analyzeLat = append(analyzeLat, lat)
			}
		}
	}

	rp := s.replay(ctx, first, rep)

	rep.set("op_p50_ms", rep.pct("op_p50_ms", all, 50))
	rep.set("ops_per_s", float64(completed)/scaled)
	rep.notePct("measured_op_p50_ms", raw, 50)
	rep.detail["measured_ops_per_s"] = float64(completed) / elapsed.Seconds()
	rep.notePct("op_p90_ms", all, 90)
	rep.notePct("op_p99_ms", all, 99)
	rep.detail["cold_s"] = cold.Seconds()
	rep.notePct("analyze_p50_ms", analyzeLat, 50)
	rep.notePct("analyze_p99_ms", analyzeLat, 99)
	rep.notePct("simulate_p50_ms", simulateLat, 50)
	rep.notePct("simulate_p99_ms", simulateLat, 99)
	rep.detail["mix_per_s"] = rep.values["ops_per_s"]
	rep.detail["distinct_keys"] = len(first)
	rep.set("corpus.generate_ms_per_check", ratio(ms(s.genTime), float64(s.genCalls)))
	rep.set("corpus.generate_error_ratio", ratio(float64(s.genErrs), float64(s.genCalls-s.genErrs)))

	if s.t == nil {
		return nil
	}
	var transport, hitSelf, missSelf []float64
	srvSpans, clientSpans := s.t.byID("server"), s.t.byID("client")
	for _, log := range logs {
		for _, op := range log {
			cl, sv := clientSpans[op.id], srvSpans[op.id]
			if !op.timed || !op.rep.ok() || len(cl) == 0 || len(sv) == 0 {
				continue
			}
			transport = append(transport, ms(cl[0].dur()-sv[0].dur()))
			switch sv[0].Tag {
			case "hit":
				hitSelf = append(hitSelf, ms(sv[0].dur()))
			case "miss":
				if c, ok := rp.compute[mixKey{op.scen, op.simulate}]; ok {
					missSelf = append(missSelf, ms(sv[0].dur()-c))
				}
			}
		}
	}
	c := func(name string) float64 { return value(counters, name) }
	rep.set("transport.self_p50_ms", median(transport))
	rep.set("server.cache_hit_ratio", ratio(c("server.cache_hits"), c("server.cache_hits")+c("server.cache_misses")+c("server.cache_coalesced")))
	rep.set("server.hit_self_p50_ms", median(hitSelf))
	rep.set("server.miss_self_p50_ms", median(missSelf))
	rep.set("server.rejected_ratio", ratio(c("server.rejected_busy"), c("server.requests_total")))
	rep.set("analysis.rta_p50_ms", median(rp.rta))
	rep.set("scenario.build_p50_ms", median(rp.build))
	rep.set("exec.sim_p50_ms", median(rp.sim))
	rep.set("sim.ns_per_event", ratio(float64(rp.simTime), float64(rp.events)))
	rep.set("sim.events_per_check", ratio(float64(rp.events), float64(len(rp.sim))))
	return nil
}

// mixReplay is what re-running the served inputs through the public
// functions took.
type mixReplay struct {
	compute    map[mixKey]time.Duration // whole replayed computation per key
	build, rta []float64                // ms per (scenario, policy)
	sim        []float64                // ms per simulation
	simTime    time.Duration
	events     int64
}

// replay re-derives every served analysis and a seeded sample of the
// served simulations (every one, when traced) and checks the bodies
// against them. Traced, it runs on one goroutine so the timings are
// not perturbed; untraced, it spreads over the clients' worth of CPUs.
func (s *mixSystem) replay(ctx context.Context, first map[mixKey][]byte, rep *report) *mixReplay {
	keys := make([]mixKey, 0, len(first))
	for k := range first {
		keys = append(keys, k)
	}
	sortKeys(keys)
	var sims []mixKey
	var jobs []mixKey
	for _, k := range keys {
		if k.simulate {
			sims = append(sims, k)
		} else {
			jobs = append(jobs, k)
		}
	}
	if s.t == nil {
		rng := rand.New(rand.NewSource(s.seed))
		rng.Shuffle(len(sims), func(i, j int) { sims[i], sims[j] = sims[j], sims[i] })
		sims = sims[:min(len(sims), mixSimChecks)]
	}
	jobs = append(jobs, sims...)

	out := &mixReplay{compute: map[mixKey]time.Duration{}}
	var mu sync.Mutex
	workers := clientCount()
	if s.t != nil {
		workers = 1
	}
	var beforeEvents int64
	if s.reg != nil {
		beforeEvents = s.events()
	}
	next := make(chan mixKey)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				r := s.replayKey(ctx, k, first[k])
				mu.Lock()
				if r.err != "" {
					rep.failed++
					rep.problem("scenario %d (simulate=%t): %s", k.scen, k.simulate, r.err)
				}
				out.compute[k] = r.total
				out.build = append(out.build, r.build...)
				out.rta = append(out.rta, r.rta...)
				if k.simulate {
					out.sim = append(out.sim, ms(r.run))
					out.simTime += r.run
				}
				mu.Unlock()
			}
		}()
	}
	for _, k := range jobs {
		next <- k
	}
	close(next)
	wg.Wait()
	if s.reg != nil {
		out.events = s.events() - beforeEvents
	}
	return out
}

func (s *mixSystem) events() int64 { return int64(value(s.reg.Snapshot(), "sim.events_fired")) }

func sortKeys(keys []mixKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].scen != keys[j].scen {
			return keys[i].scen < keys[j].scen
		}
		return !keys[i].simulate && keys[j].simulate
	})
}

// keyReplay is one key's replayed computation: total is what the
// server's compute step repeats, run the simulation alone.
type keyReplay struct {
	total, run time.Duration
	build, rta []float64
	err        string
}

// replayKey recomputes one key's result the way the server would,
// from the bytes the client sent, and compares it with the served body.
func (s *mixSystem) replayKey(ctx context.Context, k mixKey, body []byte) keyReplay {
	var r keyReplay
	ms0 := s.scens[k.scen]
	raw := ms0.analyze
	var req server.AnalyzeRequest
	if k.simulate {
		raw = ms0.simulate
	}
	if err := json.Unmarshal(raw, &req); err != nil {
		r.err = err.Error()
		return r
	}
	parsed, err := scenario.Parse(req.Scenario)
	if err != nil {
		r.err = err.Error()
		return r
	}
	sc := parsed.Canonicalize()
	hash, err := scenario.CanonicalHash(sc)
	if err != nil {
		r.err = err.Error()
		return r
	}
	if k.simulate {
		return s.replaySimulate(ctx, sc, hash, body)
	}
	want := server.AnalyzeResponse{ScenarioHash: hash, Platform: sc.Platform}
	for _, p := range core.PolicyNames() {
		res := server.PolicyResult{Policy: p}
		cand := *sc
		cand.Policy = p
		t0 := time.Now()
		set, plat, pol, err := cand.Build()
		t1 := time.Now()
		r.build = append(r.build, ms(t1.Sub(t0)))
		r.total += t1.Sub(t0)
		if err != nil {
			res.Error = err.Error()
			want.Results = append(want.Results, res)
			continue
		}
		test, err := analysis.ForPolicyContext(ctx, pol)
		if err != nil {
			res.Error = err.Error()
		} else {
			v := test(set, plat)
			res.Test, res.Schedulable, res.Reason = v.Test, v.Schedulable, v.Reason
			res.WCRTNs = wcrtNs(v.WCRT)
		}
		t2 := time.Now()
		r.rta = append(r.rta, ms(t2.Sub(t1)))
		r.total += t2.Sub(t1)
		want.Results = append(want.Results, res)
	}
	var got server.AnalyzeResponse
	if err := json.Unmarshal(body, &got); err != nil {
		r.err = err.Error()
	} else if !reflect.DeepEqual(got, want) {
		r.err = fmt.Sprintf("analysis differs from Build + ForPolicyContext: got %+v, want %+v", got, want)
	}
	return r
}

// replaySimulate runs the nominal simulation through exec.RunContext
// and compares the summary with the served one.
func (s *mixSystem) replaySimulate(ctx context.Context, sc *scenario.Scenario, hash string, body []byte) keyReplay {
	var r keyReplay
	t0 := time.Now()
	set, plat, pol, err := sc.Build()
	if err != nil {
		r.err = err.Error()
		return r
	}
	t1 := time.Now()
	res, err := exec.RunContext(ctx, set, plat, pol, sc.Horizon())
	r.run = time.Since(t1)
	r.total = t1.Sub(t0) + r.run
	r.build = append(r.build, ms(t1.Sub(t0)))
	if err != nil {
		r.err = err.Error()
		return r
	}
	want := server.SimulateResponse{
		ScenarioHash:   hash,
		HorizonNs:      int64(res.Horizon),
		Tasks:          make(map[string]server.TaskSummary, len(res.Metrics.PerTask)),
		TotalMissRatio: res.Metrics.TotalMissRatio(),
		AnyMiss:        res.Metrics.AnyMiss(),
		CPUUtilization: res.CPUUtilization(),
		DMAUtilization: res.DMAUtilization(),
		SRAMPeakBytes:  res.SRAMPeak,
		FlashBytes:     res.FlashBytes,
		EnergyMicroJ:   res.EnergyMicroJ,
		FaultsInjected: res.FaultsInjected,
		JobsAborted:    res.JobsAborted,
		DMARetries:     res.DMARetries,
	}
	for name, tm := range res.Metrics.PerTask {
		want.Tasks[name] = server.TaskSummary{
			Released:      tm.Released,
			Completed:     tm.Completed,
			Misses:        tm.Misses,
			MissRatio:     tm.MissRatio(),
			MaxResponseNs: int64(tm.MaxResponse),
			AvgResponseNs: int64(tm.AvgResponse()),
			P50ResponseNs: int64(tm.Percentile(50)),
			P95ResponseNs: int64(tm.Percentile(95)),
			P99ResponseNs: int64(tm.Percentile(99)),
		}
	}
	// Compare through the wire form: the served body is JSON.
	wantBody, err := json.Marshal(&want)
	if err != nil {
		r.err = err.Error()
		return r
	}
	var got, wantRT server.SimulateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		r.err = err.Error()
	} else if err := json.Unmarshal(wantBody, &wantRT); err != nil {
		r.err = err.Error()
	} else if !reflect.DeepEqual(got, wantRT) {
		r.err = fmt.Sprintf("simulation differs from exec.RunContext: got %+v, want %+v", got, wantRT)
	}
	return r
}

// wcrtNs converts a verdict's WCRT map to wire nanoseconds; nil when
// empty, as the server sends it.
func wcrtNs(m map[string]sim.Duration) map[string]int64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = int64(v)
	}
	return out
}
