// Command rtmdm-loadgen drives an rtmdm-serve instance with a
// configurable request mix and reports latency percentiles, throughput,
// and the cache speedup (cold analyze p50 over cache-hit p50).
//
// Usage:
//
//	rtmdm-loadgen -url http://localhost:8080 [-concurrency 8]
//	              [-duration 10s] [-mix analyze=4,simulate=4,admit=2]
//	              [-cold 16] [-quick] [-min-speedup 0]
//	rtmdm-loadgen -url http://localhost:8080 -churn [-churn-nodes 4]
//	              [-churn-tasks 16] [-hot-frac 0.7] [-min-warm-speedup 0]
//
// The default run has two phases: a calibration phase that measures the
// cold (cache-miss) and hot (cache-hit) analyze paths on distinct
// scenarios, then a mixed-load phase at the requested concurrency.
// -quick shrinks both for CI smoke tests; -min-speedup N fails the
// process if the measured cache speedup is below N×.
//
// -churn replaces both phases with an admission churn run against the
// server's incremental analyzers: a fill phase commits a task set per
// node (every admission evaluates at a new set size, so the per-task
// term caches cannot help — the cold baseline), then a probe phase
// interleaves probe additions and removals at a fixed set size, skewed
// toward one hot node, where every task's terms are served from the
// analyzer's cache. -min-warm-speedup N fails the process if warm
// probes are not N× faster than the cold fill; see docs/SERVER.md.
//
// -cluster drives an rtmdm-gateway fronting -cluster-shards rtmdm-serve
// instances with a fixed seed-deterministic workload: mixed tenants
// (-tenants gold=3,free=1 tags requests with X-Rtmdm-Tenant), hot-node
// probe skew, optional seed-driven shard-kill chaos (-chaos-rate,
// -chaos-cmd), optional deterministic transport-level fault injection
// (-chaos-http "drop-out=0.03,latency=0.15,latency-ms=25,..." — drops,
// delays, tampering and partitions derived from -seed), and a sorted
// per-shard admission log (-admit-log) that is byte-identical across
// same-seed runs; see cluster.go and docs/CLUSTER.md.
//
// -corpus SPEC ('smoke', 'default', or a spec file) draws the mixed
// phase's scenarios and the cluster fill's admission tasks from the
// generated scenario corpus (internal/corpus) instead of the
// hand-authored builders; selection is deterministic per (-seed, spec),
// so same-seed runs stay byte-identical. -corpus-count overrides the
// spec's scenario count. See docs/CORPUS.md.
//
// -json FILE writes a machine-readable report for any mode ('-' =
// stdout): totals, per-endpoint stats for the mixed phase, and the
// per-shard / per-tenant breakdown for cluster runs; the schema is
// documented in docs/SERVER.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rtmdm/internal/cluster"
)

// opStats is the shared latency/throughput block of the JSON report.
type opStats struct {
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	Shed     int     `json:"shed,omitempty"`
	Retries  int     `json:"retries,omitempty"`
	RPS      float64 `json:"rps"`
	P50Ms    float64 `json:"p50_ms"`
	P90Ms    float64 `json:"p90_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

// shardReport breaks a cluster run down by owning shard.
type shardReport struct {
	Shard int `json:"shard"`
	Nodes int `json:"nodes"`
	opStats
}

// tenantReport breaks a cluster run down by tenant, with admission
// verdict counts so CI can assert weighted fairness.
type tenantReport struct {
	Tenant   string `json:"tenant"`
	Weight   int    `json:"weight"`
	Admitted int    `json:"admitted"`
	Rejected int    `json:"rejected"`
	Removed  int    `json:"removed"`
	opStats
}

// report is the -json output schema (documented in docs/SERVER.md).
type report struct {
	Mode         string             `json:"mode"`
	Seed         int64              `json:"seed,omitempty"`
	DurationS    float64            `json:"duration_s"`
	Total        opStats            `json:"total"`
	Endpoints    map[string]opStats `json:"endpoints,omitempty"`
	Shards       []shardReport      `json:"shards,omitempty"`
	Tenants      []tenantReport     `json:"tenants,omitempty"`
	CacheSpeedup float64            `json:"cache_speedup,omitempty"`
	WarmSpeedup  float64            `json:"warm_speedup,omitempty"`
	ChaosKills   int                `json:"chaos_kills,omitempty"`

	mixedErrors int // exit-status plumbing, not part of the schema
}

func writeReport(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func decodeInto(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

func drainClose(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

type sample struct {
	endpoint string
	cache    string // X-Rtmdm-Cache header, "" for admit
	status   int
	latency  time.Duration
}

type collector struct {
	mu      sync.Mutex
	samples []sample
}

func (c *collector) add(s sample) {
	c.mu.Lock()
	c.samples = append(c.samples, s)
	c.mu.Unlock()
}

// percentile returns the nearest-rank p-th percentile of ds: the
// smallest sample with at least p% of the samples at or below it.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(rank, len(sorted)-1))]
}

// client wraps the HTTP plumbing shared by all phases.
type client struct {
	base string
	http *http.Client
}

func (c *client) post(path, body string) (status int, cache string, latency time.Duration, err error) {
	start := time.Now()
	resp, err := c.http.Post(c.base+path, "application/json", strings.NewReader(body))
	latency = time.Since(start)
	if err != nil {
		return 0, "", latency, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Rtmdm-Cache"), latency, nil
}

// admitResult is the slice of the admit response the generator inspects.
type admitResult struct {
	Admitted bool   `json:"admitted"`
	Removed  bool   `json:"removed"`
	Reason   string `json:"reason"`
}

// postAdmit posts an admission request and decodes the decision.
func (c *client) postAdmit(body string) (res admitResult, status int, latency time.Duration, err error) {
	start := time.Now()
	resp, err := c.http.Post(c.base+"/v1/admit", "application/json", strings.NewReader(body))
	latency = time.Since(start)
	if err != nil {
		return res, 0, latency, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&res)
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return res, resp.StatusCode, latency, err
}

// scenarioJSON builds a small two-task scenario whose identity varies
// with variant, so distinct variants are distinct cache keys. With
// -corpus, the scenario is drawn from the generated corpus instead
// (seed-deterministic per variant; see corpus.go).
func scenarioJSON(variant int) string {
	if corpusSrc != nil {
		if body, ok := corpusSrc.scenarioJSON(variant); ok {
			return body
		}
	}
	period := 40 + 2*(variant%20)
	return fmt.Sprintf(`{"horizon_ms": 200, "tasks": [
		{"name": "kws", "model": "ds-cnn", "period_ms": %d},
		{"name": "ae", "model": "autoencoder", "period_ms": %d}
	]}`, period, 2*period)
}

func analyzeBody(variant int) string {
	return fmt.Sprintf(`{"scenario": %s, "policies": ["rt-mdm", "serial-segfp"]}`, scenarioJSON(variant))
}

func simulateBody(variant int) string {
	return fmt.Sprintf(`{"scenario": %s}`, scenarioJSON(variant))
}

func admitBody(id uint64, node string, taskIdx int) string {
	if corpusSrc != nil {
		if body, ok := corpusSrc.admitTaskJSON(id, node, taskIdx, fmt.Sprintf("t%d", taskIdx)); ok {
			return body
		}
	}
	return fmt.Sprintf(`{"request_id": %d, "node": %q, "task": {
		"name": "t%d", "model": "lenet5", "period_ms": %d
	}}`, id, node, taskIdx, 80+5*(taskIdx%10))
}

func churnAddBody(id uint64, node, name string, periodMs float64) string {
	return fmt.Sprintf(`{"request_id": %d, "node": %q, "task": {
		"name": %q, "model": "tinymlp", "period_ms": %g
	}}`, id, node, name, periodMs)
}

func churnRemoveBody(id uint64, node, name string) string {
	return fmt.Sprintf(`{"request_id": %d, "node": %q, "remove": true, "task": {"name": %q}}`,
		id, node, name)
}

// runChurn measures the admission hot path end to end and returns the
// warm speedup (cold fill p50 / warm probe p50).
//
// Fill: each node commits tasksPerNode tasks in descending period order.
// Every fill admission evaluates the candidate at a set size the node
// has never seen, so the incremental analyzer's term caches cannot
// apply — the latencies are the cold baseline. Probe: an interleaved
// add/remove cycle (probe-a, probe-b added then removed) holds the
// evaluated set sizes fixed, so every task's terms — model build,
// segmentation, demand sums — are served from the cache; that reuse is
// the warm win. (Under the server's default rt-mdm policy the probe's
// RTA fixpoints still run cold: its segment budget depends on the task
// count, so committed bounds are not sound starts at a new set size.)
// Operations are skewed toward node 0 by hotFrac, exercising the term
// LRU under a realistic hot-node pattern. Node names carry a per-run
// tag, so a server that already holds an earlier run's nodes starts
// this run from empty nodes too.
func runChurn(c *client, nodes, tasksPerNode int, hotFrac float64, duration time.Duration) (float64, error) {
	var reqID atomic.Uint64
	fail := func(op string, res admitResult, status int, err error) error {
		return fmt.Errorf("churn %s: status %d reason %q err %v", op, status, res.Reason, err)
	}
	runTag := strconv.FormatInt(time.Now().UnixNano(), 36)
	churnNode := func(j int) string { return fmt.Sprintf("churn-%s-%d", runTag, j) }

	var coldLat []time.Duration
	for j := 0; j < nodes; j++ {
		nodeName := churnNode(j)
		for i := 0; i < tasksPerNode; i++ {
			period := float64(40 + 5*(tasksPerNode-1-i))
			name := fmt.Sprintf("t%02d", i)
			res, status, lat, err := c.postAdmit(churnAddBody(reqID.Add(1), nodeName, name, period))
			if err != nil || status != http.StatusOK || !res.Admitted {
				return 0, fail("fill "+nodeName+"/"+name, res, status, err)
			}
			coldLat = append(coldLat, lat)
		}
	}

	var warmLat, removeLat []time.Duration
	rejected := 0
	cycle := make([]int, nodes)
	rng := rand.New(rand.NewSource(1))
	stop := time.Now().Add(duration)
	for time.Now().Before(stop) {
		j := 0
		if nodes > 1 && rng.Float64() >= hotFrac {
			j = 1 + rng.Intn(nodes-1)
		}
		nodeName := churnNode(j)
		var (
			res    admitResult
			status int
			lat    time.Duration
			err    error
		)
		switch cycle[j] % 4 {
		case 0, 1:
			name, period := "probe-a", 35.0
			if cycle[j]%4 == 1 {
				name, period = "probe-b", 30.0
			}
			res, status, lat, err = c.postAdmit(churnAddBody(reqID.Add(1), nodeName, name, period))
			if err != nil || status != http.StatusOK {
				return 0, fail("probe add "+nodeName, res, status, err)
			}
			if !res.Admitted {
				rejected++
			}
			warmLat = append(warmLat, lat)
		case 2, 3:
			name := "probe-a"
			if cycle[j]%4 == 3 {
				name = "probe-b"
			}
			res, status, lat, err = c.postAdmit(churnRemoveBody(reqID.Add(1), nodeName, name))
			if err != nil || status != http.StatusOK {
				return 0, fail("probe remove "+nodeName, res, status, err)
			}
			// A remove can miss if the matching add was rejected; the
			// cycle stays consistent either way.
			removeLat = append(removeLat, lat)
		}
		cycle[j]++
	}

	coldP50, warmP50 := percentile(coldLat, 50), percentile(warmLat, 50)
	fmt.Printf("churn fill : nodes=%d tasks=%d n=%d p50=%v p90=%v\n",
		nodes, tasksPerNode, len(coldLat), coldP50, percentile(coldLat, 90))
	fmt.Printf("churn probe: n=%d rejected=%d p50=%v p90=%v\n",
		len(warmLat), rejected, warmP50, percentile(warmLat, 90))
	fmt.Printf("churn rm   : n=%d p50=%v\n", len(removeLat), percentile(removeLat, 50))
	if warmP50 <= 0 || len(coldLat) == 0 {
		fmt.Println("warm speedup: n/a")
		return 0, nil
	}
	speedup := float64(coldP50) / float64(warmP50)
	fmt.Printf("warm speedup: %.1fx (cold fill p50 %v / warm probe p50 %v)\n",
		speedup, coldP50, warmP50)
	return speedup, nil
}

func parseMix(spec string) (map[string]int, error) {
	mix := map[string]int{}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad mix entry %q", part)
		}
		w, err := strconv.Atoi(kv[1])
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad mix weight %q", part)
		}
		switch kv[0] {
		case "analyze", "simulate", "admit":
			mix[kv[0]] = w
		default:
			return nil, fmt.Errorf("unknown endpoint %q in mix", kv[0])
		}
	}
	return mix, nil
}

func waitHealthy(c *client, deadline time.Duration) error {
	until := time.Now().Add(deadline)
	for time.Now().Before(until) {
		resp, err := c.http.Get(c.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("server at %s not healthy after %v", c.base, deadline)
}

func main() {
	var (
		url         = flag.String("url", "http://localhost:8080", "rtmdm-serve base URL")
		concurrency = flag.Int("concurrency", 8, "mixed-phase worker count")
		duration    = flag.Duration("duration", 10*time.Second, "mixed-phase length")
		mixSpec     = flag.String("mix", "analyze=4,simulate=4,admit=2", "endpoint weights")
		cold        = flag.Int("cold", 16, "distinct scenarios in the calibration phase")
		quick       = flag.Bool("quick", false, "CI smoke preset: -concurrency 4 -duration 2s -cold 8")
		minSpeedup  = flag.Float64("min-speedup", 0, "fail unless cache speedup (cold p50 / hit p50) reaches this factor")
		reqTimeout  = flag.Duration("request-timeout", 30*time.Second, "per-request client timeout")
		healthWait  = flag.Duration("health-wait", 10*time.Second, "how long to wait for /healthz")

		churn      = flag.Bool("churn", false, "run the admission churn phase instead of calibrate+mixed")
		churnNodes = flag.Int("churn-nodes", 4, "admission nodes in the churn phase")
		churnTasks = flag.Int("churn-tasks", 16, "tasks committed per node by the churn fill")
		hotFrac    = flag.Float64("hot-frac", 0.7, "fraction of churn operations aimed at the hot node")
		minWarm    = flag.Float64("min-warm-speedup", 0, "fail unless warm admission speedup (cold fill p50 / warm probe p50) reaches this factor")

		clusterMode  = flag.Bool("cluster", false, "drive an rtmdm-gateway cluster with a fixed seed-deterministic workload")
		clusterShard = flag.Int("cluster-shards", 0, "shard count behind the gateway, mirrors its ring (required with -cluster)")
		clusterRepl  = flag.Int("cluster-replicas", 64, "virtual ring points per shard (must match the gateway's -replicas)")
		clusterNodes = flag.Int("cluster-nodes", 24, "admission nodes in the cluster workload")
		clusterFill  = flag.Int("cluster-fill", 6, "tasks committed per node by the cluster fill")
		clusterProbe = flag.Int("cluster-probes", 4, "probe add/remove cycles per cold node (hot nodes run 4x)")
		hotNodes     = flag.Float64("hot-nodes", 0.125, "fraction of nodes receiving the hot probe boost")
		seed         = flag.Int64("seed", 1, "cluster workload seed (probe periods, chaos decisions)")
		tenantsSpec  = flag.String("tenants", "", "tenant weights name=w,... for the cluster mix (empty = untagged)")
		admitLog     = flag.String("admit-log", "", "write the sorted per-shard admission log to FILE")
		chaosRate    = flag.Float64("chaos-rate", 0, "per-tick probability of a seed-driven shard kill")
		chaosCmd     = flag.String("chaos-cmd", "", "shell command run on each chaos kill; {shard} is substituted")
		chaosTick    = flag.Duration("chaos-interval", 500*time.Millisecond, "chaos decision tick")
		chaosHTTP    = flag.String("chaos-http", "", "deterministic transport fault spec, e.g. drop-out=0.03,drop-in=0.03,latency=0.15,latency-ms=25,truncate=0.02,corrupt=0.02,partition=FROM-TO:DIR[:HOST]")
		corpusSpec   = flag.String("corpus", "", "draw scenarios/tasks from a generated corpus: 'smoke', 'default', or a spec file (seed-deterministic; see docs/CORPUS.md)")
		corpusCount  = flag.Int("corpus-count", 0, "override the corpus spec's scenario count")
		jsonOut      = flag.String("json", "", "write a JSON report to FILE ('-' = stdout)")
	)
	flag.Parse()
	if *quick {
		*concurrency, *duration, *cold = 4, 2*time.Second, 8
		*churnNodes, *churnTasks = 2, 8
	}
	mix, err := parseMix(*mixSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtmdm-loadgen:", err)
		os.Exit(2)
	}

	if *corpusSpec != "" {
		src, cerr := newCorpusSource(*corpusSpec, *corpusCount, *seed)
		if cerr != nil {
			fmt.Fprintln(os.Stderr, "rtmdm-loadgen:", cerr)
			os.Exit(2)
		}
		corpusSrc = src
		fmt.Printf("rtmdm-loadgen: corpus traffic on (spec %.12s…, %d scenarios, seed %d)\n",
			src.gen.Digest(), src.gen.Count(), *seed)
	}

	c := &client{base: strings.TrimRight(*url, "/"), http: &http.Client{Timeout: *reqTimeout}}
	if *chaosHTTP != "" {
		ccfg, cerr := cluster.ParseChaosSpec(*chaosHTTP)
		if cerr != nil {
			fmt.Fprintln(os.Stderr, "rtmdm-loadgen:", cerr)
			os.Exit(2)
		}
		ccfg.Seed = *seed
		transport, cerr := cluster.NewChaosTransport(ccfg, nil)
		if cerr != nil {
			fmt.Fprintln(os.Stderr, "rtmdm-loadgen:", cerr)
			os.Exit(2)
		}
		c.http.Transport = transport
		fmt.Printf("rtmdm-loadgen: chaos transport on (seed %d): %s\n", *seed, *chaosHTTP)
	}
	if err := waitHealthy(c, *healthWait); err != nil {
		fmt.Fprintln(os.Stderr, "rtmdm-loadgen:", err)
		os.Exit(1)
	}
	fmt.Printf("rtmdm-loadgen: target %s\n", c.base)

	rep := &report{Mode: "mixed"}
	emit := func() {
		if *jsonOut == "" {
			return
		}
		if err := writeReport(*jsonOut, rep); err != nil {
			fmt.Fprintln(os.Stderr, "rtmdm-loadgen: write report:", err)
			os.Exit(1)
		}
	}

	if *clusterMode {
		if *clusterShard <= 0 {
			fmt.Fprintln(os.Stderr, "rtmdm-loadgen: -cluster requires -cluster-shards > 0")
			os.Exit(2)
		}
		weights, err := cluster.ParseTenantWeights(*tenantsSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rtmdm-loadgen:", err)
			os.Exit(2)
		}
		clusterFillOps = *clusterFill
		err = runCluster(c, clusterCfg{
			shards:      *clusterShard,
			replicas:    *clusterRepl,
			nodes:       *clusterNodes,
			fill:        *clusterFill,
			probes:      *clusterProbe,
			hotNodes:    *hotNodes,
			seed:        *seed,
			weights:     weights,
			concurrency: *concurrency,
			logPath:     *admitLog,
			chaosRate:   *chaosRate,
			chaosCmd:    *chaosCmd,
			chaosTick:   *chaosTick,
		}, rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rtmdm-loadgen: cluster:", err)
			os.Exit(1)
		}
		printClusterSummary(rep)
		emit()
		return
	}

	if *churn {
		rep.Mode = "churn"
		warmSpeedup, err := runChurn(c, *churnNodes, *churnTasks, *hotFrac, *duration)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rtmdm-loadgen:", err)
			os.Exit(1)
		}
		rep.WarmSpeedup = warmSpeedup
		emit()
		if *minWarm > 0 && warmSpeedup < *minWarm {
			fmt.Fprintf(os.Stderr, "rtmdm-loadgen: warm admission speedup %.1fx below required %.1fx\n",
				warmSpeedup, *minWarm)
			os.Exit(1)
		}
		return
	}

	speedup := calibrate(c, *cold)
	rep.CacheSpeedup = speedup
	runMixed(c, mix, *concurrency, *duration, rep)
	emit()

	if rep.mixedErrors > 0 {
		os.Exit(1)
	}
	if *minSpeedup > 0 && speedup < *minSpeedup {
		fmt.Fprintf(os.Stderr, "rtmdm-loadgen: cache speedup %.1fx below required %.1fx\n", speedup, *minSpeedup)
		os.Exit(1)
	}
}

// calibrate measures the cold (miss) and hot (hit) analyze paths and
// returns the p50 speedup factor.
func calibrate(c *client, cold int) float64 {
	var coldLat, hotLat []time.Duration
	for i := 0; i < cold; i++ {
		status, cache, lat, err := c.post("/v1/analyze", analyzeBody(i))
		if err != nil || status != http.StatusOK {
			fmt.Fprintf(os.Stderr, "rtmdm-loadgen: cold analyze %d: status %d err %v\n", i, status, err)
			os.Exit(1)
		}
		if cache == "miss" {
			coldLat = append(coldLat, lat)
		}
	}
	const hotRounds = 5
	for r := 0; r < hotRounds; r++ {
		for i := 0; i < cold; i++ {
			status, cache, lat, err := c.post("/v1/analyze", analyzeBody(i))
			if err != nil || status != http.StatusOK {
				fmt.Fprintf(os.Stderr, "rtmdm-loadgen: hot analyze %d: status %d err %v\n", i, status, err)
				os.Exit(1)
			}
			if cache == "hit" {
				hotLat = append(hotLat, lat)
			}
		}
	}
	coldP50, hotP50 := percentile(coldLat, 50), percentile(hotLat, 50)
	fmt.Printf("cold analyze: n=%d p50=%v p90=%v\n", len(coldLat), coldP50, percentile(coldLat, 90))
	fmt.Printf("hot  analyze: n=%d p50=%v p90=%v\n", len(hotLat), hotP50, percentile(hotLat, 90))
	if hotP50 <= 0 || len(coldLat) == 0 {
		fmt.Println("cache speedup: n/a")
		return 0
	}
	speedup := float64(coldP50) / float64(hotP50)
	fmt.Printf("cache speedup: %.1fx (cold p50 %v / hit p50 %v)\n", speedup, coldP50, hotP50)
	return speedup
}

// runMixed fires the weighted endpoint mix from concurrent workers for
// the configured duration, prints the per-endpoint report, and fills
// rep's endpoint breakdown.
func runMixed(c *client, mix map[string]int, concurrency int, duration time.Duration, rep *report) {
	var endpoints []string
	for _, ep := range []string{"analyze", "simulate", "admit"} {
		for i := 0; i < mix[ep]; i++ {
			endpoints = append(endpoints, ep)
		}
	}
	if len(endpoints) == 0 {
		fmt.Println("mixed phase: empty mix, skipped")
		return
	}

	col := &collector{}
	var reqID atomic.Uint64
	stop := time.Now().Add(duration)
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			node := fmt.Sprintf("node-%d", w)
			taskIdx := 0
			for time.Now().Before(stop) {
				ep := endpoints[rng.Intn(len(endpoints))]
				variant := rng.Intn(24)
				var status int
				var cache string
				var lat time.Duration
				var err error
				switch ep {
				case "analyze":
					status, cache, lat, err = c.post("/v1/analyze", analyzeBody(variant))
				case "simulate":
					status, cache, lat, err = c.post("/v1/simulate", simulateBody(variant))
				case "admit":
					taskIdx++
					status, cache, lat, err = c.post("/v1/admit", admitBody(reqID.Add(1), node, taskIdx))
				}
				if err != nil {
					status = 0
				}
				col.add(sample{endpoint: ep, cache: cache, status: status, latency: lat})
			}
		}(w)
	}
	wg.Wait()

	fmt.Printf("mixed phase: %v, %d workers\n", duration, concurrency)
	secs := duration.Seconds()
	if secs <= 0 {
		secs = 1
	}
	rep.DurationS = secs
	rep.Endpoints = map[string]opStats{}
	total, errors := 0, 0
	var allLats []time.Duration
	for _, ep := range []string{"analyze", "simulate", "admit"} {
		var lats []time.Duration
		n, errs, shed := 0, 0, 0
		states := map[string]int{}
		for _, s := range col.samples {
			if s.endpoint != ep {
				continue
			}
			n++
			switch {
			case s.status == http.StatusTooManyRequests:
				shed++
			case s.status != http.StatusOK:
				errs++
			default:
				lats = append(lats, s.latency)
				if s.cache != "" {
					states[s.cache]++
				}
			}
		}
		total += n
		errors += errs
		allLats = append(allLats, lats...)
		if n == 0 {
			continue
		}
		rep.Endpoints[ep] = opStats{
			Requests: n, Errors: errs, Shed: shed,
			RPS:   float64(n) / secs,
			P50Ms: msOf(percentile(lats, 50)),
			P90Ms: msOf(percentile(lats, 90)),
			P99Ms: msOf(percentile(lats, 99)),
		}
		fmt.Printf("  %-8s n=%-5d err=%-3d shed=%-3d p50=%-10v p90=%-10v p99=%v\n",
			ep, n, errs, shed, percentile(lats, 50), percentile(lats, 90), percentile(lats, 99))
		if len(states) > 0 {
			fmt.Printf("  %-8s cache: hit=%d miss=%d coalesced=%d\n",
				"", states["hit"], states["miss"], states["coalesced"])
		}
	}
	rep.Total = opStats{
		Requests: total, Errors: errors,
		RPS:   float64(total) / secs,
		P50Ms: msOf(percentile(allLats, 50)),
		P90Ms: msOf(percentile(allLats, 90)),
		P99Ms: msOf(percentile(allLats, 99)),
	}
	fmt.Printf("total: %d requests in %v (%.1f req/s), %d errors\n",
		total, duration, float64(total)/secs, errors)
	rep.mixedErrors = errors
}
