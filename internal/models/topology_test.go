package models

import (
	"reflect"
	"testing"

	"rtmdm/internal/cost"
	"rtmdm/internal/nn"
	"rtmdm/internal/segment"
)

// topologySeeds spans the weight seeds the workload generator can draw
// (rng.Intn(1<<16)) plus the scenario default.
var topologySeeds = []int64{1, 2, 7, 65535}

// TestTopologyMatchesBuildAcrossSeeds pins seed independence: everything
// the timing model reads — layer geometry, parameter bytes, MACs,
// activation peaks and the segmentation plans built from them — is the
// same on the shared topology as on a fresh build, for any seed.
// It is what lets the analysis path run on Topology.
func TestTopologyMatchesBuildAcrossSeeds(t *testing.T) {
	budgets := []int64{4 << 10, 16 << 10, 64 << 10}
	computeLimits := []int64{0, 1_000_000}
	for _, name := range Names() {
		topo, err := Topology(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range topologySeeds {
			m, err := Build(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			compareTopology(t, name, seed, topo, m)
			for _, plat := range cost.Platforms() {
				for _, b := range budgets {
					for _, c := range computeLimits {
						lim := segment.Limits{Bytes: b, ComputeNs: c}
						want, err := segment.BuildLimits(m, plat, lim, segment.Greedy)
						if err != nil {
							t.Fatalf("%s seed %d %s %+v: %v", name, seed, plat.Name, lim, err)
						}
						got, err := segment.BuildLimits(topo, plat, lim, segment.Greedy)
						if err != nil {
							t.Fatalf("%s topology %s %+v: %v", name, plat.Name, lim, err)
						}
						if got.SerialNs() != want.SerialNs() || !reflect.DeepEqual(got.Segments, want.Segments) {
							t.Errorf("%s seed %d %s %+v: topology plan differs (serial %d vs %d ns, %d vs %d segments)",
								name, seed, plat.Name, lim, got.SerialNs(), want.SerialNs(),
								len(got.Segments), len(want.Segments))
						}
					}
				}
			}
		}
	}
}

func compareTopology(t *testing.T, name string, seed int64, topo, m *nn.Model) {
	t.Helper()
	if topo.Name != m.Name || topo.Input != m.Input || topo.InQuant != m.InQuant ||
		topo.Output != m.Output || len(topo.Nodes) != len(m.Nodes) {
		t.Fatalf("%s seed %d: model header or node count differs", name, seed)
	}
	if topo.TotalParamBytes() != m.TotalParamBytes() || topo.TotalMACs() != m.TotalMACs() ||
		topo.PeakActivationBytes() != m.PeakActivationBytes() {
		t.Errorf("%s seed %d: totals differ", name, seed)
	}
	for i := range m.Nodes {
		a, b := topo.Nodes[i].Layer, m.Nodes[i].Layer
		if a.Name() != b.Name() || a.Kind() != b.Kind() || a.InShape() != b.InShape() ||
			a.OutShape() != b.OutShape() || a.OutQuant() != b.OutQuant() ||
			!reflect.DeepEqual(topo.Nodes[i].Inputs, m.Nodes[i].Inputs) {
			t.Errorf("%s seed %d: node %d (%s) differs in name, kind, shape or wiring", name, seed, i, b.Name())
		}
		if a.ParamBytes() != b.ParamBytes() || a.MACs() != b.MACs() {
			t.Errorf("%s seed %d: node %d (%s) params %d/%d, MACs %d/%d",
				name, seed, i, b.Name(), a.ParamBytes(), b.ParamBytes(), a.MACs(), b.MACs())
		}
	}
}

func TestTopologyIsMemoized(t *testing.T) {
	for _, name := range Names() {
		a, err := Topology(name)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Topology(name)
		if a != b {
			t.Fatalf("%s: Topology built twice", name)
		}
	}
	if _, err := Topology("nonexistent"); err == nil {
		t.Fatal("unknown model did not error")
	}
}
