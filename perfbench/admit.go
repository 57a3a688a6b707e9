package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"time"

	"rtmdm/internal/analysis"
	"rtmdm/internal/cluster"
	"rtmdm/internal/metrics"
	"rtmdm/internal/scenario"
	"rtmdm/internal/server"
)

// admit-churn: the admission write path. A cluster.Gateway fronts two
// server.Server shards; each client owns half the nodes, fills them
// cold, then runs a probe add/remove cycle skewed toward one hot node.
const (
	admitNodes    = 8
	admitShards   = 2
	admitSetSize  = 10  // tasks each node holds after the fill
	admitQuick    = 4   // nodes and set size of a smoke test
	admitHotShare = 0.7 // share of a client's probes sent to its hot node
	admitPlatform = "stm32h743"
	admitHorizon  = 200.0 // ms
	// admitLogPrefix is how many probe operations per client enter the
	// admission-log digest, besides the whole fill.
	admitLogPrefix = 64
)

// admitFamilies are the node policies: one prefetch family and one
// serial family, whose warm fixpoint starts behave differently.
var admitFamilies = [2]string{"rt-mdm", "serial-segfp"}

// admitModels are the zoo models admission tasks cycle through.
var admitModels = []string{"tinymlp", "lenet5", "ds-cnn", "autoencoder"}

// admitPeriods is the fill's period ladder in ms, longest first; each
// node jitters it by up to ±10%. The ladder leaves room for the probes:
// over seeds -1 to 120 and a few large ones every node's fill commits
// in full on both families, and the output check fails the run on any
// fill task that does not.
var admitPeriods = [admitSetSize]float64{400, 340, 290, 250, 215, 185, 160, 140, 120, 100}

// admitNode is one admission node's inputs.
type admitNode struct {
	name   string
	policy string
	fill   []scenario.TaskSpec // descending period order
	probes [2]scenario.TaskSpec
}

// admitOp is one admission request and what came back.
type admitOp struct {
	id     uint64
	node   int
	remove bool
	fill   bool
	// warmup marks the fill phase's probe cycle: checked, not timed.
	warmup bool
	task   scenario.TaskSpec
	rep    reply
	resp   server.AdmitResponse
}

type admitSystem struct {
	t         *tracer
	reg       *metrics.Registry
	nodes     []admitNode
	owned     [][]int // per client: owned node indices, hot node first
	seed      int64
	setSize   int
	shards    []*server.Server
	shardSvcs []*service
	gw        *cluster.Gateway
	gwSvc     *service
	gwURL     string
	clients   []*client
}

func setupAdmit(ctx context.Context, cfg config) (instance, error) {
	t := cfg.t
	s := &admitSystem{t: t, seed: cfg.seed, nodes: make([]admitNode, admitNodes), setSize: admitSetSize}
	if cfg.quick {
		s.nodes, s.setSize = make([]admitNode, admitQuick), admitQuick
	}
	s.plan()
	if t != nil {
		s.reg = metrics.NewRegistry()
	}
	var urls []string
	for i := 0; i < admitShards; i++ {
		srv := server.New(server.Config{Registry: s.reg})
		svc, err := listen(spanHandler(t, "shard", "gateway", srv))
		if err != nil {
			s.close(ctx)
			return nil, err
		}
		s.shards = append(s.shards, srv)
		s.shardSvcs = append(s.shardSvcs, svc)
		urls = append(urls, svc.url)
	}
	gw, err := cluster.NewGateway(cluster.Config{Shards: urls, Registry: s.reg})
	if err != nil {
		s.close(ctx)
		return nil, err
	}
	s.gw = gw
	svc, err := listen(spanHandler(t, "gateway", "client", gw))
	if err != nil {
		s.close(ctx)
		return nil, err
	}
	s.gwSvc, s.gwURL = svc, svc.url
	for range s.owned {
		c := newClient()
		s.clients = append(s.clients, c)
		if err := c.get(ctx, s.gwURL+"/healthz"); err != nil {
			s.close(ctx)
			return nil, fmt.Errorf("gateway warm-up: %w", err)
		}
	}
	return s, nil
}

// plan draws every node's policy, fill set and probe tasks from the
// seed.
func (s *admitSystem) plan() {
	rng := rand.New(rand.NewSource(s.seed))
	nc := clientCount()
	s.owned = make([][]int, nc)
	first := rng.Intn(2)
	for i := range s.nodes {
		c := i % nc
		k := len(s.owned[c])
		s.owned[c] = append(s.owned[c], i)
		// Per client, families alternate starting from the hot node, and
		// the clients' hot nodes differ in family.
		s.nodes[i] = admitNode{name: fmt.Sprintf("node-%d", i), policy: admitFamilies[(first+c+k)%2]}
	}
	for i := range s.nodes {
		n := &s.nodes[i]
		// Every node holds the same model mix and period ladder, rotated
		// by its place in its client's list, so that seeds change the
		// inputs but not how much analysis they ask for.
		rot := i / nc
		n.fill = make([]scenario.TaskSpec, s.setSize)
		for j := range n.fill {
			n.fill[j] = scenario.TaskSpec{
				Model:    admitModels[(j+rot)%len(admitModels)],
				Seed:     1 + rng.Int63n(1000),
				PeriodMs: admitPeriods[j] * (0.9 + 0.2*rng.Float64()),
			}
		}
		sort.SliceStable(n.fill, func(a, b int) bool { return n.fill[a].PeriodMs > n.fill[b].PeriodMs })
		for j := range n.fill {
			n.fill[j].Name = fmt.Sprintf("t%02d", j)
			n.fill[j].PeriodMs = float64(int(n.fill[j].PeriodMs + 0.5))
		}
		for j, name := range []string{"probe-a", "probe-b"} {
			n.probes[j] = scenario.TaskSpec{
				Name:     name,
				Model:    admitModels[j],
				Seed:     1 + rng.Int63n(1000),
				PeriodMs: float64(40 + 10*j + rng.Intn(10)),
			}
		}
	}
}

func (s *admitSystem) close(ctx context.Context) error {
	for _, c := range s.clients {
		c.close()
	}
	var errs []error
	if s.gwSvc != nil {
		errs = append(errs, s.gwSvc.close(ctx))
	}
	if s.gw != nil {
		errs = append(errs, s.gw.Shutdown(ctx))
	}
	for _, svc := range s.shardSvcs {
		errs = append(errs, svc.close(ctx))
	}
	for _, srv := range s.shards {
		errs = append(errs, srv.Shutdown(ctx))
	}
	return errors.Join(errs...)
}

// opStream is one client's deterministic request sequence.
type opStream struct {
	client int
	rng    *rand.Rand
	owned  []int
	seq    uint64
	cycle  map[int]int
}

func (s *admitSystem) stream(c int) *opStream {
	return &opStream{
		client: c,
		rng:    rand.New(rand.NewSource(s.seed*7919 + int64(c) + 1)),
		owned:  s.owned[c],
		cycle:  map[int]int{},
	}
}

// nextID is unique per client and independent of timing, so a seed
// always produces the same request_id sequence.
func (o *opStream) nextID() uint64 {
	o.seq++
	return uint64(o.client+1)<<32 | o.seq
}

// nextProbe draws the next probe operation: the hot node with
// admitHotShare, else one of the client's other nodes; per node the
// cycle is add probe-a, add probe-b, remove probe-a, remove probe-b.
func (o *opStream) nextProbe(nodes []admitNode) *admitOp {
	node := o.owned[0]
	if len(o.owned) > 1 && o.rng.Float64() >= admitHotShare {
		node = o.owned[1+o.rng.Intn(len(o.owned)-1)]
	}
	return o.probeOn(node, nodes)
}

// probeOn is the next operation of node's probe cycle.
func (o *opStream) probeOn(node int, nodes []admitNode) *admitOp {
	pos := o.cycle[node] % 4
	o.cycle[node]++
	return &admitOp{id: o.nextID(), node: node, remove: pos >= 2, task: nodes[node].probes[pos%2]}
}

func (s *admitSystem) send(ctx context.Context, c int, op *admitOp) {
	n := s.nodes[op.node]
	req := server.AdmitRequest{
		RequestID: op.id, Node: n.name, Platform: admitPlatform, Policy: n.policy,
		HorizonMs: admitHorizon, Task: op.task, Remove: op.remove,
	}
	if op.remove {
		req.Task = scenario.TaskSpec{Name: op.task.Name}
	}
	body, err := json.Marshal(req)
	if err != nil {
		op.rep.err = err
		return
	}
	var id uint64
	if s.t != nil {
		id = op.id
	}
	op.rep = s.clients[c].post(ctx, s.gwURL+"/v1/admit", body, id)
	clientSpan(s.t, op.id, op.rep)
	if op.rep.ok() {
		if err := json.Unmarshal(op.rep.body, &op.resp); err != nil {
			op.rep.err = fmt.Errorf("decode admit response: %w", err)
			return
		}
		op.rep.body = nil
	}
}

func (s *admitSystem) run(ctx context.Context, d time.Duration, rep *report) error {
	nc := len(s.clients)
	streams := make([]*opStream, nc)
	logs := make([][]*admitOp, nc)
	for c := range streams {
		streams[c] = s.stream(c)
	}
	// Fill: cold admissions, each client filling its nodes in turn and
	// then running one probe cycle on each, so that the timed phase
	// starts with every set size the probes reach already evaluated.
	fillStart := time.Now()
	eachClient(nc, func(c int) {
		for _, ni := range s.owned[c] {
			for _, tk := range s.nodes[ni].fill {
				op := &admitOp{id: streams[c].nextID(), node: ni, fill: true, task: tk}
				s.send(ctx, c, op)
				logs[c] = append(logs[c], op)
			}
		}
		for _, ni := range s.owned[c] {
			for range 4 {
				op := streams[c].probeOn(ni, s.nodes)
				op.warmup = true
				s.send(ctx, c, op)
				logs[c] = append(logs[c], op)
			}
		}
	})
	fill := time.Since(fillStart)

	// Probe: the timed phase.
	before := snapshot(s.reg)
	probeStart := time.Now()
	deadline := probeStart.Add(d)
	eachClient(nc, func(c int) {
		for time.Now().Before(deadline) {
			op := streams[c].nextProbe(s.nodes)
			s.send(ctx, c, op)
			logs[c] = append(logs[c], op)
		}
	})
	elapsed := time.Since(probeStart)
	counters := snapshot(s.reg).Diff(before)
	rep.set("rss_peak_mb", rssPeakMB())

	return s.check(ctx, logs, fill, elapsed, counters, rep)
}

// check replays every node's request sequence through a fresh replica,
// compares each served decision with it, and computes the metrics.
func (s *admitSystem) check(ctx context.Context, logs [][]*admitOp, fill, elapsed time.Duration, counters metrics.Snapshot, rep *report) error {
	perNode := make([][]*admitOp, len(s.nodes))
	for _, log := range logs {
		for _, op := range log {
			perNode[op.node] = append(perNode[op.node], op)
		}
	}
	decisions := map[uint64]decision{}
	for ni, ops := range perNode {
		rp := newReplica(&s.nodes[ni])
		for _, op := range ops {
			d := rp.apply(ctx, op.id, op.remove, op.task)
			decisions[op.id] = d
			rep.attempted++
			switch {
			case !op.rep.ok():
				rep.failed++
				rep.problem("admit %d on %s: %s", op.id, s.nodes[ni].name, op.rep.failure())
			case op.fill && !op.resp.Admitted:
				rep.failed++
				rep.problem("fill task %s on %s was not admitted: %s", op.task.Name, s.nodes[ni].name, op.resp.Reason)
			default:
				if diff := decisionDiff(op.resp, d.resp); diff != "" {
					rep.failed++
					rep.problem("admit %d on %s differs from the replay: %s", op.id, s.nodes[ni].name, diff)
				}
			}
		}
	}

	var adds, removes []float64
	var warm, cold []float64
	var reused, built, evaluated int
	var transport, gwSelf, shardSelf []float64
	gwSpans, shardSpans, clientSpans := s.t.byID("gateway"), s.t.byID("shard"), s.t.byID("client")
	completed := 0
	for _, log := range logs {
		for _, op := range log {
			d := decisions[op.id]
			if op.fill || op.warmup {
				if d.evaluated {
					cold = append(cold, ms(d.eval))
				}
				continue
			}
			lat := failedSample
			if op.rep.ok() {
				lat = ms(op.rep.lat)
			}
			if op.remove {
				removes = append(removes, lat)
				if !op.rep.ok() {
					adds = append(adds, failedSample)
				}
				continue
			}
			adds = append(adds, lat)
			if !op.rep.ok() {
				continue
			}
			completed++
			if d.evaluated {
				evaluated++
				warm = append(warm, ms(d.eval))
				reused += d.stats.TasksReused
				built += d.stats.TasksBuilt
			}
			if s.t == nil {
				continue
			}
			cl, gw, sh := clientSpans[op.id], gwSpans[op.id], shardSpans[op.id]
			if len(cl) == 0 || len(gw) == 0 || len(sh) == 0 {
				continue
			}
			transport = append(transport, ms(cl[0].dur()-gw[0].dur()))
			gwSelf = append(gwSelf, ms(selfTime(gw[0], sh)))
			shardSelf = append(shardSelf, ms(sh[len(sh)-1].dur()-d.eval))
		}
	}

	rep.set("op_p50_ms", rep.pct("admit_p50_ms", adds, 50))
	rep.set("ops_per_s", float64(completed)/elapsed.Seconds())
	rep.notePct("admit_p90_ms", adds, 90)
	rep.notePct("admit_p99_ms", adds, 99)
	rep.notePct("remove_p50_ms", removes, 50)
	rep.detail["fill_s"] = fill.Seconds()
	rep.detail["admit_per_s"] = rep.values["ops_per_s"]
	rep.detail["admit_log_sha256"], rep.detail["admit_log_ops"] = admitLog(logs)

	if s.t != nil {
		c := func(name string) float64 { return value(counters, name) }
		rep.set("transport.self_p50_ms", median(transport))
		rep.set("cluster.admit_self_p50_ms", median(gwSelf))
		rep.set("cluster.admits_per_batch", ratio(c("gateway.admit_forwarded"), c("gateway.admit_batches")))
		rep.set("server.admit_self_p50_ms", median(shardSelf))
		rep.set("server.admits_per_batch", ratio(c("server.admit_committed")+c("server.admit_rejected"), c("server.admit_batches")))
		rep.set("server.rejected_ratio", ratio(c("server.rejected_busy"), c("server.requests_total")))
		rep.set("analysis.warm_eval_p50_ms", median(warm))
		rep.set("analysis.cold_eval_p50_ms", median(cold))
		rep.set("analysis.tasks_reused_ratio", ratio(float64(reused), float64(reused+built)))
		rep.set("analysis.warm_start_ratio", ratio(c("server.admit_warm"), float64(evaluated)))
	}
	return nil
}

// admitLog digests the admission log: every fill decision plus the
// first admitLogPrefix probe decisions of each client. A seed gives
// the same digest on every run.
func admitLog(logs [][]*admitOp) (string, int) {
	h := sha256.New()
	n := 0
	for _, log := range logs {
		probes := 0
		for _, op := range log {
			if !op.fill && !op.warmup {
				if probes == admitLogPrefix {
					break
				}
				probes++
			}
			fmt.Fprintf(h, "%d %d %t %s %t %t %s %s\n", op.id, op.node, op.remove, op.task.Name,
				op.resp.Admitted, op.resp.Removed, op.resp.Test, strings.Join(op.resp.Committed, ","))
			n++
		}
	}
	return hex.EncodeToString(h.Sum(nil)), n
}

// replica mirrors one node's admission state outside the server: the
// committed set and an IncrementalAnalyzer fed the same request
// sequence, deciding as the server's admitter does.
type replica struct {
	node      *admitNode
	inc       *analysis.IncrementalAnalyzer
	committed []scenario.TaskSpec
}

func newReplica(n *admitNode) *replica {
	return &replica{node: n, inc: analysis.NewIncrementalAnalyzer()}
}

// decision is the replica's answer to one request and, for an
// addition that reached the analysis, how long Evaluate took.
type decision struct {
	resp      server.AdmitResponse
	evaluated bool
	eval      time.Duration
	stats     analysis.EvalStats
}

func (r *replica) names() []string {
	names := make([]string, len(r.committed))
	for i, t := range r.committed {
		names[i] = t.Name
	}
	sort.Strings(names)
	return names
}

func (r *replica) scenario(tasks []scenario.TaskSpec) *scenario.Scenario {
	return (&scenario.Scenario{
		Platform: admitPlatform, Policy: r.node.policy, HorizonMs: admitHorizon, Tasks: tasks,
	}).Canonicalize()
}

func (r *replica) apply(ctx context.Context, id uint64, remove bool, tk scenario.TaskSpec) decision {
	d := decision{resp: server.AdmitResponse{RequestID: id, Node: r.node.name, Committed: r.names()}}
	at := -1
	for i, c := range r.committed {
		if c.Name == tk.Name {
			at = i
		}
	}
	if remove {
		if at < 0 {
			d.resp.Reason = fmt.Sprintf("task %q not committed on node %q", tk.Name, r.node.name)
			return d
		}
		r.committed = append(append([]scenario.TaskSpec(nil), r.committed[:at]...), r.committed[at+1:]...)
		r.inc.Commit(r.scenario(append([]scenario.TaskSpec(nil), r.committed...)))
		d.resp.Removed = true
		d.resp.Committed = r.names()
		return d
	}
	if at >= 0 {
		d.resp.Reason = fmt.Sprintf("task %q already committed on node %q", tk.Name, r.node.name)
		return d
	}
	cand := r.scenario(append(append([]scenario.TaskSpec(nil), r.committed...), tk))
	start := time.Now()
	v, st, err := r.inc.Evaluate(ctx, cand)
	d.eval, d.stats, d.evaluated = time.Since(start), st, true
	if err != nil {
		d.resp.Reason = err.Error()
		return d
	}
	d.resp.Test, d.resp.WCRTNs = v.Test, wcrtNs(v.WCRT)
	if !v.Schedulable {
		d.resp.Reason = v.Reason
		if d.resp.Reason == "" {
			d.resp.Reason = "schedulability test failed"
		}
		return d
	}
	r.committed = append(r.committed, tk)
	r.inc.Commit(cand)
	d.resp.Admitted = true
	d.resp.Committed = r.names()
	return d
}

// decisionDiff describes the first difference between a served and a
// replayed admission decision, or returns "".
func decisionDiff(got, want server.AdmitResponse) string {
	switch {
	case got.RequestID != want.RequestID || got.Node != want.Node:
		return fmt.Sprintf("answered %d/%s, want %d/%s", got.RequestID, got.Node, want.RequestID, want.Node)
	case got.Admitted != want.Admitted || got.Removed != want.Removed:
		return fmt.Sprintf("admitted=%t removed=%t, want %t %t", got.Admitted, got.Removed, want.Admitted, want.Removed)
	case got.Test != want.Test || got.Reason != want.Reason:
		return fmt.Sprintf("test %q reason %q, want %q %q", got.Test, got.Reason, want.Test, want.Reason)
	case !reflect.DeepEqual(got.WCRTNs, want.WCRTNs):
		return fmt.Sprintf("wcrt %v, want %v", got.WCRTNs, want.WCRTNs)
	case strings.Join(got.Committed, ",") != strings.Join(want.Committed, ","):
		return fmt.Sprintf("committed %v, want %v", got.Committed, want.Committed)
	}
	return ""
}
