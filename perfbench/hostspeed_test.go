package main

import (
	"testing"
	"time"
)

// TestHostScale checks the direction of the host-speed scaling: a
// reference-speed host leaves timings alone, a slower one shrinks them.
func TestHostScale(t *testing.T) {
	if got := hostScale(hostRefMs); got != 1 {
		t.Errorf("hostScale(reference) = %v, want 1", got)
	}
	if got := hostScale(2 * hostRefMs); got != 0.5 {
		t.Errorf("hostScale(2×reference) = %v, want 0.5", got)
	}
	if got := hostScale(hostRefMs / 2); got != 2 {
		t.Errorf("hostScale(reference/2) = %v, want 2", got)
	}
}

// TestHostKernelDoesNotAllocate keeps the kernel off the program's
// heap: a chunk that allocated could start or pay for a collection.
func TestHostKernelDoesNotAllocate(t *testing.T) {
	k := newHostKernel(1)
	if n := testing.AllocsPerRun(20, k.chunk); n != 0 {
		t.Errorf("a kernel chunk allocates %v times", n)
	}
	if ms := newHostSampler(1).sample(20 * time.Millisecond); ms <= 0 {
		t.Errorf("sample = %v ms per chunk", ms)
	}
}
