package main

import (
	"bytes"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The host's speed is sampled with a fixed kernel that uses none of the
// program's code, so CPU-bound timings (every workload's set-up and
// analyze-mix's requests) can be scaled to a reference speed. On a shared host the same code runs up to 1.8 times
// slower for minutes at a time while neighbours contend for caches and
// memory; the kernel slows with it, the program's own changes leave it
// alone.

// hostRefMs is the reference speed: a host on which one kernel chunk
// takes this many milliseconds. Scaled timings read as if measured
// there.
const hostRefMs = 0.25

// hostSample is how long one sample of the host's speed runs.
const hostSample = 75 * time.Millisecond

// hostScale is the factor that takes a timing measured while a chunk
// took chunkMs to the reference speed. Over 18 runs of analyze-mix on a
// shared 2-vCPU Xeon host (go1.24), whose mean chunk times ranged from
// 0.14 to 0.28 ms, the log-log slopes of the measured op_p50_ms and
// ops_per_s against the run's mean chunk time were 1.02 and -0.93, with
// correlations 0.98 and -0.98: the workload slows in proportion.
func hostScale(chunkMs float64) float64 { return hostRefMs / chunkMs }

const (
	hostSortLen  = 2048
	hostTableLen = 1 << 15
	hostMemWords = 1 << 19 // 4 MiB of scattered writes
	hostNumbers  = 128
)

// hostKernel is one goroutine's kernel state, allocated once: a chunk
// sorts, looks up, formats and scatters without allocating, so it
// neither triggers nor pays for a collection of the program's heap.
type hostKernel struct {
	keys, work []int
	table      map[uint64]uint64
	mem        []uint64
	buf        []byte
	x          uint64
	sink       uint64
}

func newHostKernel(seed uint64) *hostKernel {
	k := &hostKernel{
		keys:  make([]int, hostSortLen),
		work:  make([]int, hostSortLen),
		table: make(map[uint64]uint64, hostTableLen),
		mem:   make([]uint64, hostMemWords),
		buf:   make([]byte, 0, 32*hostNumbers),
		x:     seed*0x9e3779b97f4a7c15 + 1,
	}
	for i := range k.mem {
		k.mem[i] = uint64(i) // fault the pages in before any chunk is timed
	}
	for i := range k.keys {
		k.keys[i] = int(k.next() >> 33)
	}
	for i := 0; i < hostTableLen; i++ {
		k.table[uint64(i)*0x9e3779b97f4a7c15] = uint64(i)
	}
	return k
}

func (k *hostKernel) next() uint64 {
	k.x = k.x*6364136223846793005 + 1442695040888963407
	return k.x
}

// chunk runs one fixed unit of work.
func (k *hostKernel) chunk() {
	copy(k.work, k.keys)
	sort.Ints(k.work)
	var s uint64
	for i := 0; i < hostSortLen; i++ {
		s += k.table[(k.next()%(2*hostTableLen))*0x9e3779b97f4a7c15]
	}
	k.buf = k.buf[:0]
	for i := 0; i < hostNumbers; i++ {
		k.buf = strconv.AppendInt(k.buf, int64(k.next()>>20), 10)
		k.buf = strconv.AppendFloat(k.buf, float64(k.next()>>40)/7, 'g', -1, 64)
		k.buf = append(k.buf, ',')
	}
	s += uint64(bytes.Count(k.buf, []byte{'7'}))
	for i := 0; i < 2*hostSortLen; i++ {
		v := k.next()
		k.mem[(v>>24)%hostMemWords] += v
	}
	k.sink += s + uint64(k.work[hostSortLen/2])
}

// hostSampler times kernel chunks on one goroutine per client.
type hostSampler struct {
	kernels []*hostKernel
}

func newHostSampler(n int) *hostSampler {
	h := &hostSampler{}
	for i := 0; i < n; i++ {
		h.kernels = append(h.kernels, newHostKernel(uint64(i+1)))
	}
	return h
}

// sample runs the kernel on every goroutine for d and returns the
// median milliseconds per chunk.
func (h *hostSampler) sample(d time.Duration) float64 {
	per := make([][]float64, len(h.kernels))
	var wg sync.WaitGroup
	end := time.Now().Add(d)
	for i, k := range h.kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				t0 := time.Now()
				k.chunk()
				per[i] = append(per[i], ms(time.Since(t0)))
			}
		}()
	}
	wg.Wait()
	var all []float64
	for _, p := range per {
		all = append(all, p...)
	}
	return median(all)
}
