package main

import (
	"runtime"
	"sync"
	"time"
)

// The reference job measures how fast the shared host runs this guest
// right now. Other tenants on the host's cores and caches slow the guest
// by up to a third for seconds to minutes at a time, and CPU time grows
// with it (steal aside, it is the vCPU itself that is slower), so a
// pass's CPU time alone spreads 0.10-0.25 between runs. The ratio of a
// pass's CPU time to the reference job's, measured right before and
// right after it, cancels most of that.
//
// The job is the benchmark's own code, fixed: it must never change with
// the program. On every CPU at once, like the program's pool, it does
// complex matrix products at the program's 80-orbital block size (the
// dense kernels) and a strided read-modify-write stream over a buffer
// larger than the caches (the memory traffic around them).
const (
	refN         = 80                                   // matrix order
	refMats      = 6                                    // matrices the products rotate through
	refProducts  = 25                                   // matrix products per CPU
	refStreamLen = 4 << 20                              // float64s per CPU: 32 MiB
	refSweeps    = 40                                   // stream sweeps per CPU
	refStride    = 8                                    // one float64 per 64-byte cache line
	refFlops     = refProducts * 8 * refN * refN * refN // per CPU
)

// refState is one CPU's reference data, allocated once so that the job
// itself allocates nothing.
type refState struct {
	mats   [refMats][]complex128 // read-only inputs
	out    []complex128
	stream []float64
	sink   float64
}

var (
	refOnce sync.Once
	refCPUs []*refState
)

func refInit() {
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		st := &refState{out: make([]complex128, refN*refN), stream: make([]float64, refStreamLen)}
		for m := range st.mats {
			st.mats[m] = make([]complex128, refN*refN)
			for i := range st.mats[m] {
				st.mats[m][i] = complex(float64((i+m)%7)*0.01, float64(i%5)*0.001)
			}
		}
		for i := range st.stream {
			st.stream[i] = float64(i % 13)
		}
		refCPUs = append(refCPUs, st)
	}
}

// refJob runs the reference job and returns the CPU time it took, summed
// over the CPUs, and the flops it did: first the products on every CPU at
// once, then the stream on every CPU at once.
func refJob() (time.Duration, int64) {
	refOnce.Do(refInit)
	c0 := processCPU()
	onAll((*refState).products)
	onAll((*refState).sweep)
	return processCPU() - c0, int64(len(refCPUs)) * refFlops
}

// onAll runs f on every CPU's reference data at once and waits for it.
func onAll(f func(*refState)) {
	var wg sync.WaitGroup
	for _, st := range refCPUs {
		wg.Add(1)
		go func(st *refState) {
			defer wg.Done()
			f(st)
		}(st)
	}
	wg.Wait()
}

func (st *refState) products() {
	for r := 0; r < refProducts; r++ {
		a, b := st.mats[r%refMats], st.mats[(r+1)%refMats]
		clear(st.out)
		for i := 0; i < refN; i++ {
			out := st.out[i*refN : (i+1)*refN]
			for k := 0; k < refN; k++ {
				aik := a[i*refN+k]
				row := b[k*refN : (k+1)*refN]
				for j := range out {
					out[j] += aik * row[j]
				}
			}
		}
	}
}

func (st *refState) sweep() {
	s := st.sink + real(st.out[0])
	for r := 0; r < refSweeps; r++ {
		for i := 0; i < len(st.stream); i += refStride {
			s += st.stream[i]
			st.stream[i] = s * 1e-9
		}
	}
	st.sink = s * 1e-9
}
