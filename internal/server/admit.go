package server

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"rtmdm/internal/analysis"
	"rtmdm/internal/httpsvc"
	"rtmdm/internal/scenario"
	"rtmdm/internal/sim"
)

// AdmitRequest asks a node to accept one more periodic DNN task. The
// first request a node sees pins its platform, policy, and horizon;
// later requests must leave them empty or matching. RequestID orders
// concurrent requests: all requests gathered into one batch window are
// decided in ascending RequestID order (ties broken by task name), so
// the committed set is a deterministic function of the request set, not
// of goroutine interleaving.
type AdmitRequest struct {
	RequestID uint64            `json:"request_id"`
	Node      string            `json:"node"`
	Platform  string            `json:"platform,omitempty"`
	Policy    string            `json:"policy,omitempty"`
	HorizonMs float64           `json:"horizon_ms,omitempty"`
	Task      scenario.TaskSpec `json:"task"`
	// Remove drops the named committed task instead of admitting one.
	// Removal needs no schedulability test — shedding a task only shrinks
	// demand — so it always succeeds when the task exists; only task.name
	// is consulted from Task.
	Remove bool `json:"remove,omitempty"`
}

// AdmitResponse is one admission decision. Committed lists the node's
// task names after the decision (sorted), so a client can audit state
// without another round trip. Admitted reports only accepted
// admissions (it mirrors the server.admit_committed metric); a
// successful removal sets Removed alone and leaves Admitted false.
type AdmitResponse struct {
	RequestID uint64           `json:"request_id"`
	Node      string           `json:"node"`
	Admitted  bool             `json:"admitted"`
	Removed   bool             `json:"removed,omitempty"`
	Test      string           `json:"test,omitempty"`
	Reason    string           `json:"reason,omitempty"`
	WCRTNs    map[string]int64 `json:"wcrt_ns,omitempty"`
	Committed []string         `json:"committed"`
}

// evalFunc judges a candidate scenario. Injected so admitter tests can
// run without model building; when nil (production), each node judges
// candidates through its own analysis.IncrementalAnalyzer, which keeps
// term caches and warm fixpoint starts across the node's admission
// stream.
type evalFunc func(ctx context.Context, sc *scenario.Scenario) (analysis.Verdict, error)

// admitCall is one queued admission request plus its rendezvous.
type admitCall struct {
	req  AdmitRequest
	resp AdmitResponse
	err  error
	done chan struct{}
}

// node is one admission domain: a platform/policy/horizon binding and
// the task set committed so far. Commit/reject is atomic per request —
// a rejected request leaves the committed set untouched, and decisions
// within a batch window are applied in RequestID order.
type node struct {
	mu        sync.Mutex
	platform  string
	policy    string
	horizonMs float64
	bound     bool
	committed []scenario.TaskSpec
	pending   []*admitCall
	draining  bool
	// gone marks a node removed from the admitter's map (handoff release
	// or placeholder replacement) so a submit racing the removal re-fetches
	// instead of appending work to an orphan.
	gone bool
	// inc is the node's incremental analyzer (lazily created; only used
	// when the admitter has no injected evalFunc). It evolves with the
	// committed set: Commit after every accepted change, which keeps warm
	// fixpoint starts valid across single-task additions.
	inc *analysis.IncrementalAnalyzer
}

// admitter routes admission requests to per-node queues and drains each
// queue in deterministic order. The batch window trades latency for
// determinism: requests arriving within window of each other are decided
// as one RequestID-sorted batch.
type admitter struct {
	mu     sync.Mutex
	nodes  map[string]*node
	window time.Duration
	eval   evalFunc
	base   context.Context
	met    *Metrics

	// drains tracks live drain goroutines for Shutdown.
	drains httpsvc.Tracker
}

func newAdmitter(base context.Context, window time.Duration, eval evalFunc, met *Metrics) *admitter {
	return &admitter{
		nodes:  make(map[string]*node),
		window: window,
		eval:   eval,
		base:   base,
		met:    met,
	}
}

func (a *admitter) node(name string) *node {
	a.mu.Lock()
	defer a.mu.Unlock()
	n, ok := a.nodes[name]
	if !ok {
		n = &node{}
		a.nodes[name] = n
	}
	return n
}

// submit enqueues req on its node and waits for the decision. The wait
// is bounded by ctx, but the decision itself is made under the
// admitter's base context: a client that gives up does not abort a
// batch other clients are riding on.
func (a *admitter) submit(ctx context.Context, req AdmitRequest) (AdmitResponse, error) {
	cl := &admitCall{req: req, done: make(chan struct{})}
	for {
		n := a.node(req.Node)
		n.mu.Lock()
		if n.gone {
			// The node was released (handoff) between the map lookup and
			// the lock; re-fetch so the request lands on live state.
			n.mu.Unlock()
			continue
		}
		n.pending = append(n.pending, cl)
		if !n.draining {
			n.draining = true
			a.drains.Add()
			go a.drain(n)
		}
		n.mu.Unlock()
		break
	}
	select {
	case <-cl.done:
		return cl.resp, cl.err
	case <-ctx.Done():
		return AdmitResponse{}, ctx.Err()
	}
}

// drain decides batches for one node until its queue is empty. Each
// batch gathers the requests that arrived during the window, sorts them
// by (RequestID, task name), and decides them sequentially against the
// evolving committed set.
func (a *admitter) drain(n *node) {
	defer a.drains.Done()
	for {
		a.wait()
		n.mu.Lock()
		batch := n.pending
		n.pending = nil
		if len(batch) == 0 {
			n.draining = false
			n.mu.Unlock()
			return
		}
		n.mu.Unlock()

		sort.SliceStable(batch, func(i, j int) bool {
			if batch[i].req.RequestID != batch[j].req.RequestID {
				return batch[i].req.RequestID < batch[j].req.RequestID
			}
			return batch[i].req.Task.Name < batch[j].req.Task.Name
		})
		a.met.admitBatches.Inc()
		for _, cl := range batch {
			cl.resp, cl.err = a.decide(n, cl.req)
			close(cl.done)
		}
	}
}

// wait sleeps out the batch window, returning early if the server is
// shutting down (pending requests are still decided, just unbatched).
func (a *admitter) wait() {
	if a.window <= 0 {
		return
	}
	t := time.NewTimer(a.window)
	defer t.Stop()
	select {
	case <-t.C:
	case <-a.base.Done():
	}
}

// decide evaluates one request against the node's committed set and
// commits the task iff the policy's schedulability test passes.
func (a *admitter) decide(n *node, req AdmitRequest) (AdmitResponse, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	resp := AdmitResponse{RequestID: req.RequestID, Node: req.Node, Committed: n.taskNames()}

	if req.Remove {
		return a.decideRemove(n, req, resp)
	}
	if !n.bound {
		n.platform, n.policy, n.horizonMs = req.Platform, req.Policy, req.HorizonMs
		n.bound = true
	} else if err := n.checkBinding(req); err != nil {
		resp.Reason = err.Error()
		return resp, nil
	}
	for _, t := range n.committed {
		if t.Name == req.Task.Name {
			resp.Reason = fmt.Sprintf("task %q already committed on node %q", req.Task.Name, req.Node)
			return resp, nil
		}
	}

	cand := (&scenario.Scenario{
		Platform:  n.platform,
		Policy:    n.policy,
		HorizonMs: n.horizonMs,
		Tasks:     append(append([]scenario.TaskSpec(nil), n.committed...), req.Task),
	}).Canonicalize()
	var v analysis.Verdict
	var err error
	if a.eval != nil {
		v, err = a.eval(a.base, cand)
	} else {
		if n.inc == nil {
			n.inc = analysis.NewIncrementalAnalyzer()
		}
		var st analysis.EvalStats
		v, st, err = n.inc.Evaluate(a.base, cand)
		if st.Warm {
			a.met.admitWarm.Inc()
		}
	}
	if err != nil {
		resp.Reason = err.Error()
		a.met.admitRejected.Inc()
		return resp, nil
	}
	resp.Test = v.Test
	resp.WCRTNs = wcrtNs(v.WCRT)
	if !v.Schedulable {
		resp.Reason = v.Reason
		if resp.Reason == "" {
			resp.Reason = "schedulability test failed"
		}
		a.met.admitRejected.Inc()
		return resp, nil
	}
	n.committed = append(n.committed, req.Task)
	if n.inc != nil {
		n.inc.Commit(cand)
	}
	resp.Admitted = true
	resp.Committed = n.taskNames()
	a.met.admitCommitted.Inc()
	return resp, nil
}

// decideRemove drops a committed task. No schedulability test runs:
// removing a task only shrinks demand, so the remaining set stays
// schedulable. The node's warm analysis state is re-anchored via Commit
// on the shrunk set — since that set was never evaluated, the commit
// clears the warm bounds and the next admission runs cold fixpoints
// (removals restart from the C+L base; see analysis.IncrementalAnalyzer).
// Callers hold n.mu.
func (a *admitter) decideRemove(n *node, req AdmitRequest, resp AdmitResponse) (AdmitResponse, error) {
	if n.bound {
		if err := n.checkBinding(req); err != nil {
			resp.Reason = err.Error()
			return resp, nil
		}
	}
	at := -1
	for i, t := range n.committed {
		if t.Name == req.Task.Name {
			at = i
			break
		}
	}
	if at < 0 {
		resp.Reason = fmt.Sprintf("task %q not committed on node %q", req.Task.Name, req.Node)
		return resp, nil
	}
	n.committed = append(append([]scenario.TaskSpec(nil), n.committed[:at]...), n.committed[at+1:]...)
	if n.inc != nil {
		n.inc.Commit((&scenario.Scenario{
			Platform:  n.platform,
			Policy:    n.policy,
			HorizonMs: n.horizonMs,
			Tasks:     append([]scenario.TaskSpec(nil), n.committed...),
		}).Canonicalize())
	}
	resp.Removed = true
	resp.Committed = n.taskNames()
	return resp, nil
}

// checkBinding rejects requests that contradict the node's pinned
// platform/policy/horizon. Callers hold n.mu.
func (n *node) checkBinding(req AdmitRequest) error {
	if req.Platform != "" && req.Platform != n.platform {
		return fmt.Errorf("node platform is %q, request says %q", n.platform, req.Platform)
	}
	if req.Policy != "" && req.Policy != n.policy {
		return fmt.Errorf("node policy is %q, request says %q", n.policy, req.Policy)
	}
	if req.HorizonMs != 0 && req.HorizonMs != n.horizonMs {
		return fmt.Errorf("node horizon is %v ms, request says %v", n.horizonMs, req.HorizonMs)
	}
	return nil
}

// taskNames returns the committed task names, sorted. Callers hold n.mu.
func (n *node) taskNames() []string {
	names := make([]string, len(n.committed))
	for i, t := range n.committed {
		names[i] = t.Name
	}
	sort.Strings(names)
	return names
}

// committedTasks returns a snapshot of a node's committed task names for
// tests and state inspection; nil if the node does not exist.
func (a *admitter) committedTasks(nodeName string) []string {
	a.mu.Lock()
	n, ok := a.nodes[nodeName]
	a.mu.Unlock()
	if !ok {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.taskNames()
}

// wcrtNs converts a verdict's WCRT map to int64 nanoseconds for the
// wire. Returns nil for empty maps so the JSON field is omitted.
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
