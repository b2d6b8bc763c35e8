package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/comms"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/perf"
	"repro/internal/spec"
)

// fabricNE sizes the fabric workload: thousands of microsecond tasks, so
// the wire, lease round trips and fsync'd commits set the time.
const fabricNE = 4000

// fabricWorkers is the number of in-process workers (the container's
// two cores; each worker runs a width-1 pool).
const fabricWorkers = 2

// fabricWL is a distributed transmission sweep of the tiny chain device:
// distrib.Serve on a loopback TCP listener, journaled with fsync, and
// two in-process distrib.RunWorker. The seed shifts the energy window.
type fabricWL struct {
	spec spec.RunSpec
	ref  *reference
	dirs int // pass directories made so far
}

func (w *fabricWL) prepare(ctx context.Context, e *env) error {
	s := spec.Default()
	s.Device.Name = "chain"
	s.Grid.NE = fabricNE
	off := (e.rng.float() - 0.5) * 0.2
	s.Grid.EMin += off
	s.Grid.EMax += off
	w.spec = s
	var err error
	w.ref, err = serialReference(ctx, s)
	return err
}

// reference is a serial run of a spec in this process: the oracle of
// the distributed workloads.
type reference struct {
	rows     []string       // observables in omen's text format
	flops    int64          // exact flop count
	payloads map[int][]byte // task payloads by flat index
}

func serialReference(ctx context.Context, s spec.RunSpec) (*reference, error) {
	b, err := spec.Build(s)
	if err != nil {
		return nil, err
	}
	opts := b.SweepOptions()
	jnl := &cluster.MemJournal{}
	opts.Journal = jnl
	before := perf.Flops()
	sw, err := b.Sim.TransmissionResumable(ctx, b.Grid, nil, opts)
	if err != nil {
		return nil, err
	}
	ref := &reference{rows: sweepRows(sw), flops: perf.Flops() - before, payloads: make(map[int][]byte)}
	recs, err := jnl.Load()
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		ref.payloads[r.Index] = r.Payload
	}
	return ref, nil
}

// sweepRows renders a sweep's observables in omen's text format, without
// the comment lines.
func sweepRows(sw *core.TransmissionSweep) []string {
	rows := make([]string, len(sw.Energies))
	for i, e := range sw.Energies {
		rows[i] = fmt.Sprintf("%.6f\t%.8g", e, sw.T[i])
	}
	return rows
}

func equalRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fabricTrace is the instrumentation of a traced fabric pass.
type fabricTrace struct {
	rec      *Recorder
	root     int
	coord    *wireMeter
	workers  *wireMeter
	journal  *timedJournal
	tasks    *taskTimer
	rep      *distrib.Report
	d        perf.Snapshot
	rt0, rt1 runtimeSample
}

// fabricRig is the set-up of one fabric pass: the coordinator's plan,
// fsync'd journal, options and listener, and the workers' builds, plans
// and dialed connections.
type fabricRig struct {
	dir           string
	plan          *core.TransmissionPlan
	nBias, nK, nE int
	jnl           *cluster.FileJournal
	opts          distrib.Options
	lis           net.Listener
	ws            spec.RunSpec
	wk            []fabricWorker
}

type fabricWorker struct {
	b    *spec.Built
	plan *core.TransmissionPlan
	conn net.Conn
}

// close releases the rig's connections, listener, journal and files.
func (r *fabricRig) close() {
	for _, x := range r.wk {
		x.conn.Close()
	}
	if r.lis != nil {
		r.lis.Close()
	}
	if r.jnl != nil {
		r.jnl.Close()
	}
	os.RemoveAll(r.dir)
}

// newDir makes a fresh directory for one pass. It is made before the
// set-up is timed: a directory creation on a shared file system varies
// by more than the rest of the set-up takes.
func newDir(e *env, prefix string, n *int) (string, error) {
	*n++
	dir := filepath.Join(e.dir, fmt.Sprintf("%s-%d", prefix, *n))
	return dir, os.MkdirAll(dir, 0o755)
}

// start makes the set-up of one pass in dir, which it removes on close.
func (w *fabricWL) start(ctx context.Context, dir string) (r *fabricRig, err error) {
	r = &fabricRig{dir: dir}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	s := w.spec
	s.Resilience.Checkpoint = filepath.Join(r.dir, "coordinator.journal")
	if err := s.ValidateFor(spec.RoleCoordinator); err != nil {
		return nil, err
	}
	b, err := spec.Build(s)
	if err != nil {
		return nil, err
	}
	if r.plan, err = b.Sim.PlanTransmission(b.Grid, nil); err != nil {
		return nil, err
	}
	r.nBias, r.nK, r.nE = r.plan.Dims()
	if r.jnl, err = spec.OpenJournal(s, func(string, ...any) {}, cluster.WithFsync()); err != nil {
		return nil, err
	}
	r.opts = distrib.Options{
		LeaseTimeout: s.Exec.LeaseTimeout.Std(),
		DrainTimeout: s.Exec.DrainTimeout.Std(),
		Restore:      r.plan.Restore,
		SpecHash:     s.SpecHash(),
		Shards:       s.Exec.Shards,
		WireFormat:   s.Exec.WireFormat,
		Journal:      r.jnl,
	}
	if h, herr := r.jnl.ReadHeader(); herr == nil && h != nil {
		r.opts.RunID = h.RunID
	}
	if r.opts.Epoch, err = r.jnl.LatestEpoch(); err != nil {
		return nil, err
	}
	if r.lis, err = (comms.TCP{}).Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	addr := comms.DialableAddr(r.lis.Addr())
	r.ws = s.WorkerVariant()
	for i := 0; i < fabricWorkers; i++ {
		wb, err := spec.Build(r.ws)
		if err != nil {
			return nil, err
		}
		wp, err := wb.Sim.PlanTransmission(wb.Grid, nil)
		if err != nil {
			return nil, err
		}
		conn, err := comms.DialRetry(ctx, comms.TCP{}, addr, 30*time.Second)
		if err != nil {
			return nil, err
		}
		r.wk = append(r.wk, fabricWorker{b: wb, plan: wp, conn: conn})
	}
	return r, nil
}

func (w *fabricWL) setup(ctx context.Context, e *env) (time.Duration, error) {
	dir, err := newDir(e, "fabric", &w.dirs)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	r, err := w.start(ctx, dir)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	r.close()
	return d, nil
}

// run performs one pass; tr, when non-nil, instruments it.
func (w *fabricWL) run(ctx context.Context, e *env, tr *fabricTrace) (passResult, error) {
	var fp passResult
	dir, err := newDir(e, "fabric", &w.dirs)
	if err != nil {
		return fp, err
	}
	t0 := time.Now()
	r, err := w.start(ctx, dir)
	if err != nil {
		return fp, err
	}
	defer r.close()
	fp.setup = time.Since(t0)
	plan, jnl, opts, lis, ws, wk := r.plan, r.jnl, r.opts, r.lis, r.ws, r.wk
	nBias, nK, nE := r.nBias, r.nK, r.nE

	if tr != nil {
		tr.root = tr.rec.Begin("pass", 0)
		tr.coord.rec, tr.coord.parent = tr.rec, tr.root
		tr.workers.rec, tr.workers.parent = tr.rec, tr.root
		tr.journal = &timedJournal{Checkpointer: jnl, rec: tr.rec, parent: tr.root}
		tr.tasks = newTaskTimer(tr.rec, tr.root, nK, nE)
		lis = meteredListener{Listener: lis, m: tr.coord}
		opts.Journal = tr.journal
		opts.OnResult = tr.tasks.onResult(nil)
		tr.rt0 = sampleRuntime()
	}
	before := perf.TakeSnapshot()
	c1, t1 := processCPU(), time.Now()
	var wg sync.WaitGroup
	werrs := make([]error, len(wk))
	for i, x := range wk {
		conn, fn := x.conn, cluster.SweepFunc(x.plan.Run)
		if tr != nil {
			conn, fn = tr.workers.wrap(conn), tr.tasks.sweep(i, fn)
		}
		wopts := distrib.WorkerOptions{
			ID:         fmt.Sprintf("bench-%d", i),
			Pool:       x.plan.Pool(),
			Capacity:   distrib.DefaultLeaseBatch,
			WireFormat: ws.Exec.WireFormat,
			Retry:      x.b.RetryPolicy(),
			Injector:   x.b.Injector(),
			SpecHash:   ws.SpecHash(),
		}
		wg.Add(1)
		go func(i int, conn net.Conn) {
			defer wg.Done()
			werrs[i] = distrib.RunWorker(ctx, conn, nBias, nK, nE, wopts, fn)
		}(i, conn)
	}
	rep, serr := distrib.Serve(ctx, lis, nBias, nK, nE, opts)
	if serr != nil {
		// Serve has stopped; hang up on the workers so they return.
		for _, x := range wk {
			x.conn.Close()
		}
	}
	wg.Wait()
	fp.wall, fp.cpu = time.Since(t1), processCPU()-c1
	d := perf.TakeSnapshot().Diff(before)
	if tr != nil {
		tr.rec.End(tr.root)
		tr.rt1 = sampleRuntime()
		tr.rep, tr.d = rep, d
	}
	if serr != nil {
		return fp, fmt.Errorf("serve: %w", serr)
	}
	for i, err := range werrs {
		if err != nil {
			return fp, fmt.Errorf("worker %d: %w", i, err)
		}
	}
	fp.flops = d.Flops
	fp.attempted = int64(nBias * nK * nE)
	fp.failed = int64(len(rep.Sweep.Quarantined))

	// Oracle: observables byte-identical to the serial run, the global
	// flop count (the in-process workers share the counters) exactly
	// equal to it, and exactly one journal record per task whose payload
	// is byte-identical to the serial run's.
	if rows := sweepRows(plan.Assemble(rep.Sweep)); !equalRows(rows, w.ref.rows) {
		e.failf("fabric: distributed observables differ from the serial run")
	}
	if d.Flops != w.ref.flops {
		e.failf("fabric: distributed flops %d, serial %d", d.Flops, w.ref.flops)
	}
	recs, err := jnl.Load()
	if err != nil {
		return fp, err
	}
	seen := make(map[int]bool, len(recs))
	for _, r := range recs {
		seen[r.Index] = true
		if !bytes.Equal(r.Payload, w.ref.payloads[r.Index]) {
			e.failf("fabric: journal record of task %d differs from the serial payload", r.Index)
		}
	}
	if total := nBias * nK * nE; len(recs) != total || len(seen) != total {
		e.failf("fabric: journal holds %d records for %d distinct tasks, want %d", len(recs), len(seen), total)
	}
	return fp, nil
}

func (w *fabricWL) pass(ctx context.Context, e *env) (passResult, error) {
	return w.run(ctx, e, nil)
}

// fabricTracedPairs is how many untraced/traced pass pairs the traced run
// makes, in alternating order; the overhead is the ratio of their medians.
const fabricTracedPairs = 3

func (w *fabricWL) traced(ctx context.Context, e *env) (layerMetrics, passResult, error) {
	var plain, traced []float64
	var tr *fabricTrace
	var pr passResult
	n := int64(w.spec.Grid.NE * w.spec.Grid.NK)
	for i := 0; i < 2*fabricTracedPairs; i++ {
		// Alternate which pass of a pair runs first, so that a drift in
		// the machine's speed does not read as tracing overhead.
		var t *fabricTrace
		if (i%2 == 1) != (i/2%2 == 1) {
			t = &fabricTrace{rec: NewRecorder(fmt.Sprintf("fabric-seed%d-%d", e.seed, i/2)), coord: &wireMeter{}, workers: &wireMeter{}}
		}
		fp, err := w.run(ctx, e, t)
		if err != nil {
			return nil, pr, err
		}
		pr.attempted += fp.attempted
		pr.failed += fp.failed
		if t == nil {
			plain = append(plain, fp.wall.Seconds())
		} else {
			tr = t
			traced = append(traced, fp.wall.Seconds())
		}
	}
	// The per-layer figures come from the last traced pass.
	prof := Analyze(tr.rec.Spans())
	writeTrace(e, "fabric", tr.rec, prof)
	lm := layerMetrics{}
	lm.counterLayers(tr.d, tr.rt0, tr.rt1, n)
	lat := tr.journal.latencies()
	lm["cluster.journal_appends"] = float64(len(lat))
	lm["cluster.journal_append_s"] = prof.Seconds("cluster.journal_append")
	lm["cluster.journal_append_p50_us"] = quantile(toSeconds(lat), 0.5) * 1e6
	lm["cluster.journal_append_p99_us"] = quantile(toSeconds(lat), 0.99) * 1e6
	frames := tr.coord.writes.Load() + tr.workers.writes.Load()
	bytes := tr.coord.bytesOut.Load() + tr.workers.bytesOut.Load()
	lm["comms.frames_per_task"] = float64(frames) / float64(n)
	lm["comms.bytes_per_task"] = float64(bytes) / float64(n)
	// Grants are counted inside the coordinator: program-recorded.
	lm["distrib.grants_per_task"] = float64(tr.rep.Perf.Counters["lease-grants"]) / float64(n)
	wall := tr.rec.Spans()[tr.root-1].Dur()
	var busy, wait time.Duration
	for _, ls := range tr.tasks.lanes {
		busy += ls.busy
		wait += ls.last.Sub(ls.first) - ls.busy
	}
	lm["distrib.worker_busy_frac"] = busy.Seconds() / (float64(fabricWorkers) * wall.Seconds())
	lm["distrib.lease_wait_s"] = wait.Seconds()
	lm["distrib.commit_lag_p50_ms"] = msQuantile(tr.tasks.lag, 0.5)
	lm["distrib.commit_lag_p90_ms"] = msQuantile(tr.tasks.lag, 0.9)
	lm["distrib.redispatched"] = float64(tr.rep.Redispatched)
	lm["transport.energy_s"] = prof.Seconds("transport.energy")
	lm["perf.unattributed_frac"] = prof.Unattributed(tr.root)
	lm["trace.overhead_frac"] = median(traced)/median(plain) - 1
	lm["cluster.model_rate_ratio"] = modelRatio(tr.d.Flops, wall, fabricWorkers)
	return lm, pr, nil
}

func (w *fabricWL) finish(context.Context, *env) error { return nil }
