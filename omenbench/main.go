// Command omenbench is the repository benchmark. It runs one of four
// workloads against the public entry points of the spec, core, distrib
// and server packages, checks every pass against the workload's
// correctness oracle, and prints one JSON line of metrics:
//
//	go build -o .bench_build/omenbench ./omenbench
//	.bench_build/omenbench -workload sweep -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it times untraced passes for -seconds and reports the
// end-to-end metrics (medians over passes). With -trace 1 it runs the
// workload's traced passes instead: spans and counts recorded around
// the calls into each layer, reported as the per-layer metrics. See
// README.md for the metric dictionary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// defaultSeed is the seed whose observables and flop totals are recorded
// in oracle.go.
const defaultSeed = 1

// minPasses is the fewest untraced passes a run makes, however short
// -seconds is: every end-to-end metric is a median over passes.
const minPasses = 3

// setupReps is how many set-ups a run times on their own before each
// pass: a set-up takes milliseconds and a run makes only a few passes,
// so setup_s is the median over these and the passes' own set-ups,
// spread over the whole run.
const setupReps = 16

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload receives: its seed-derived inputs come from
// rng, and its files live under dir.
type env struct {
	seed int64
	rng  *splitmix
	dir  string

	mu sync.Mutex
	// failures collects oracle violations; any makes the run incorrect.
	failures []string
}

// failf records an oracle violation; clients of the service workload
// call it concurrently.
func (e *env) failf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "omenbench: oracle:", msg)
	e.mu.Lock()
	e.failures = append(e.failures, msg)
	e.mu.Unlock()
}

// passResult is what one untraced pass measured.
type passResult struct {
	setup, wall time.Duration
	// cpu is the CPU time the process used during the pass: all its
	// threads, the Go runtime's included.
	cpu time.Duration
	// ref is the mean CPU time of the reference jobs run right before
	// and right after the pass, and refFlops the flops of one.
	ref      time.Duration
	refFlops int64
	flops    int64
	// jobs holds per-job latencies for workloads that submit jobs; nil
	// means the pass itself is the one job.
	jobs              []time.Duration
	attempted, failed int64
}

// workload is one benchmark workload.
type workload interface {
	// prepare derives the inputs from the seed and computes whatever
	// the oracle compares against; it is not timed.
	prepare(ctx context.Context, e *env) error
	// setup makes, times and tears down the set-up of one untraced
	// pass without running the pass.
	setup(ctx context.Context, e *env) (time.Duration, error)
	// pass runs one untraced pass with a fresh set-up and checks it.
	pass(ctx context.Context, e *env) (passResult, error)
	// traced runs the traced passes and returns the per-layer metrics
	// it measured (unmeasured ones default to zero).
	traced(ctx context.Context, e *env) (layerMetrics, passResult, error)
	// finish runs the once-per-run oracle checks.
	finish(ctx context.Context, e *env) error
}

var workloads = map[string]func() workload{
	"sweep":   func() workload { return &sweepWL{} },
	"scf":     func() workload { return &scfWL{} },
	"fabric":  func() workload { return &fabricWL{} },
	"service": func() workload { return &serviceWL{} },
}

func main() {
	name := flag.String("workload", "", "workload: sweep, scf, fabric or service")
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 10, "how long the untraced passes run")
	trace := flag.Int("trace", 0, "1: run the traced passes and report per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "omenbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := run(mk(), *name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "omenbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "omenbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(w workload, name string, seed int64, budget time.Duration, trace bool) (*result, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-"+name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, rng: newSplitmix(uint64(seed)), dir: dir}
	ctx := context.Background()
	if err := w.prepare(ctx, e); err != nil {
		return nil, fmt.Errorf("prepare %s: %w", name, err)
	}

	res := &result{Metrics: make(map[string]metric)}
	if trace {
		lm, pr, err := w.traced(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("traced %s: %w", name, err)
		}
		res.Attempted, res.Failed = pr.attempted, pr.failed
		lm["runtime.max_rss_mb"] = maxRSSMB()
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{Value: lm[d.name], Unit: d.unit}
		}
	} else {
		// Passes run until -seconds is spent, and a pass starts only if
		// a typical one would end in time, so a run lasts about -seconds.
		start := time.Now()
		var passes []passResult
		var setups, took []float64
		refBefore, refFlops := refJob()
		for len(passes) < minPasses || time.Since(start).Seconds()+median(took) <= budget.Seconds() {
			t0 := time.Now()
			for i := 0; i < setupReps; i++ {
				d, err := w.setup(ctx, e)
				if err != nil {
					return nil, fmt.Errorf("%s set-up: %w", name, err)
				}
				setups = append(setups, d.Seconds())
			}
			// Collect the garbage of the set-ups and earlier passes now, so
			// that no pass pays for another's in its CPU time.
			runtime.GC()
			pr, err := w.pass(ctx, e)
			if err != nil {
				return nil, fmt.Errorf("%s pass %d: %w", name, len(passes)+1, err)
			}
			refAfter, _ := refJob()
			pr.ref, pr.refFlops = (refBefore+refAfter)/2, refFlops
			refBefore = refAfter
			took = append(took, time.Since(t0).Seconds())
			passes = append(passes, pr)
			fmt.Fprintf(os.Stderr, "omenbench: pass %d: setup %.6f s, wall %.4f s, cpu %.4f s, reference job cpu %.4f s\n", len(passes), pr.setup.Seconds(), pr.wall.Seconds(), pr.cpu.Seconds(), pr.ref.Seconds())
			res.Attempted += pr.attempted
			res.Failed += pr.failed
		}
		vals := endToEnd(passes, setups)
		for _, d := range endToEndDefs {
			res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
		}
		fmt.Fprintf(os.Stderr, "omenbench: %s seed %d: %d passes in %.1f s\n", name, seed, len(passes), time.Since(start).Seconds())
	}
	if err := w.finish(ctx, e); err != nil {
		return nil, fmt.Errorf("finish %s: %w", name, err)
	}
	res.Correct = len(e.failures) == 0 && res.Attempted > 0
	return res, nil
}

// endToEnd reduces the passes, and the set-up times measured besides
// them, to the end-to-end metrics: medians over passes. The pass timings
// are relative to the reference job run beside each pass (ref.go and
// README.md, "Why a reference job"). The raw CPU and wall-clock figures
// go to standard error, with job latencies as quantiles within each pass
// and then the median over passes.
func endToEnd(passes []passResult, setups []float64) map[string]float64 {
	var cpuRel, flopsRel, cpu, perCore, wall, gflops, p50, p90 []float64
	samples := 0
	for _, p := range passes {
		c, w, ref := p.cpu.Seconds(), p.wall.Seconds(), p.ref.Seconds()
		setups = append(setups, p.setup.Seconds())
		cpuRel = append(cpuRel, c/ref)
		flopsRel = append(flopsRel, (float64(p.flops)/c)/(float64(p.refFlops)/ref))
		cpu = append(cpu, c)
		perCore = append(perCore, float64(p.flops)/c/1e9)
		wall = append(wall, w)
		gflops = append(gflops, float64(p.flops)/w/1e9)
		jobs := toSeconds(p.jobs)
		if p.jobs == nil {
			jobs = []float64{w}
		}
		samples += len(jobs)
		p50 = append(p50, quantile(jobs, 0.5))
		p90 = append(p90, quantile(jobs, 0.9))
	}
	fmt.Fprintf(os.Stderr, "omenbench: raw medians: cpu %.4f s per pass, %.4g GFlop/s per core; wall %.4f s per pass, %.4g GFlop/s; job latency p50 %.4f s, p90 %.4f s (%d job samples); %d set-up samples\n",
		median(cpu), median(perCore), median(wall), median(gflops), median(p50), median(p90), samples, len(setups))
	return map[string]float64{
		"setup_s":       median(setups),
		"cpu_vs_ref":    median(cpuRel),
		"gflops_vs_ref": median(flopsRel),
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// toSeconds converts durations for quantile.
func toSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// processCPU is the CPU time all of the process's threads have used so
// far, user and system. Time the hypervisor runs other guests on this
// guest's CPUs (steal) is not in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample reads the allocation and CPU-time counters of the Go
// runtime, for the runtime.* per-layer metrics.
type runtimeSample struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func sampleRuntime() runtimeSample {
	ss := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(ss)
	var r runtimeSample
	if ss[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = ss[0].Value.Uint64()
	}
	if ss[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = ss[1].Value.Float64()
	}
	if ss[2].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = ss[2].Value.Float64()
	}
	return r
}

// splitmix is the seed-to-inputs generator: splitmix64, fixed here so a
// seed means the same inputs on every Go release.
type splitmix struct{ s uint64 }

func newSplitmix(seed uint64) *splitmix { return &splitmix{s: seed} }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of [0, n).
func (r *splitmix) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// writeTrace writes a traced run's spans next to the run's other files
// and prints the per-layer self-time summary to standard error.
func writeTrace(e *env, name string, rec *Recorder, prof Profile) {
	path := filepath.Join(filepath.Dir(e.dir), "trace-"+name+".jsonl")
	if err := rec.WriteFile(path); err != nil {
		fmt.Fprintln(os.Stderr, "omenbench: write trace:", err)
	} else {
		fmt.Fprintf(os.Stderr, "omenbench: spans written to %s\n", path)
	}
	fmt.Fprint(os.Stderr, prof.String())
}
