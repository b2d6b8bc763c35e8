package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/perf"
	"repro/internal/server"
	"repro/internal/spec"
)

// The service workload sizes: fresh jobs per pass (≥ 100, so the p90
// job latency has ≥ 10 samples beyond it in every pass), re-submissions
// of completed specs after a service restart, closed-loop clients, and
// the energy count of each small chain job.
const (
	serviceJobs    = 100
	serviceReplays = 20
	serviceClients = 2
	serviceNE      = 64
)

// serviceWL drives server.Manager (in-process workers, default
// executors) behind API.Handler on a loopback HTTP listener with two
// closed-loop clients. Each pass submits the fresh jobs, restarts the
// service over the same data directory, and re-submits completed specs,
// which the restarted service serves by journal replay. The seed draws
// the jobs' energy windows, the submission order, and which specs are
// re-submitted.
type serviceWL struct {
	bodies   [][]byte // canonical spec JSON per job
	ids      []string
	refs     []*reference
	refFlops int64 // Σ over the fresh jobs
	order    []int
	replays  []int
	dirs     int // data directories made so far
}

func (w *serviceWL) prepare(ctx context.Context, e *env) error {
	seen := make(map[string]bool)
	for len(w.ids) < serviceJobs {
		s := spec.Default()
		s.Device.Name = "chain"
		s.Grid.NE = serviceNE
		s.Grid.EMin = -2.5 + e.rng.float()
		s.Grid.EMax = s.Grid.EMin + 4 + e.rng.float()
		if err := s.ValidateFor(spec.RoleServer); err != nil {
			return err
		}
		id := s.SpecHash()
		if seen[id] {
			continue
		}
		seen[id] = true
		body, err := s.Canonical()
		if err != nil {
			return err
		}
		ref, err := serialReference(ctx, s)
		if err != nil {
			return err
		}
		w.bodies = append(w.bodies, body)
		w.ids = append(w.ids, id)
		w.refs = append(w.refs, ref)
		w.refFlops += ref.flops
	}
	w.order = e.rng.perm(serviceJobs)
	w.replays = e.rng.perm(serviceJobs)[:serviceReplays]
	return nil
}

// service is one running manager + HTTP listener.
type service struct {
	m    *server.Manager
	srv  *http.Server
	base string
	done chan struct{}
}

func startService(dataDir string) (*service, error) {
	m, err := server.NewManager(server.Config{
		DataDir:        dataDir,
		DefaultWorkers: 1, // with the default two executors: ≤ 2 workers
		SpawnWorker:    server.InProcessSpawner(),
	})
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	sv := &service{
		m:    m,
		srv:  &http.Server{Handler: (&server.API{M: m, Version: "omenbench"}).Handler()},
		base: "http://" + lis.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(sv.done)
		sv.srv.Serve(lis) // returns http.ErrServerClosed on stop
	}()
	return sv, nil
}

func (sv *service) stop() {
	sv.srv.Close()
	<-sv.done
	sv.m.Close()
}

// jobTiming is what one client measured for one job.
type jobTiming struct {
	start, submitEnd, waitEnd, end time.Time
	submit, result                 time.Duration
	firstPoint                     time.Duration // submit → first streamed point
	queueWait, run                 time.Duration // server-recorded timestamps
	refused                        bool
}

// errRefused marks a 429 admission refusal.
var errRefused = errors.New("refused (429)")

// job submits one spec, follows its stream to the terminal event, and
// fetches the result; it checks the result against the serial oracle.
func (w *serviceWL) job(ctx context.Context, e *env, hc *http.Client, base string, idx int, replay bool) (jobTiming, error) {
	jt := jobTiming{start: time.Now()}
	resp, err := hc.Post(base+"/v1/jobs", "application/json", bytes.NewReader(w.bodies[idx]))
	if err != nil {
		return jt, err
	}
	var v server.JobView
	derr := json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	jt.submitEnd = time.Now()
	jt.submit = jt.submitEnd.Sub(jt.start)
	if resp.StatusCode == http.StatusTooManyRequests {
		jt.refused = true
		return jt, errRefused
	}
	if resp.StatusCode != http.StatusAccepted {
		return jt, fmt.Errorf("submit job %d: status %d", idx, resp.StatusCode)
	}
	if derr != nil {
		return jt, fmt.Errorf("submit job %d: %w", idx, derr)
	}
	if v.ID != w.ids[idx] {
		return jt, fmt.Errorf("submit job %d: id %s, want %s", idx, v.ID, w.ids[idx])
	}

	final, err := w.follow(hc, base, v.ID, &jt)
	if err != nil {
		return jt, err
	}
	jt.waitEnd = time.Now()
	if final.State != server.StateDone {
		return jt, fmt.Errorf("job %d ended %s: %s", idx, final.State, final.Error)
	}
	if final.Replayed != replay {
		e.failf("service: job %d replayed=%v, want %v", idx, final.Replayed, replay)
	}
	if final.Started != nil {
		jt.queueWait = final.Started.Sub(final.Submitted)
		if final.Finished != nil {
			jt.run = final.Finished.Sub(*final.Started)
		}
	}

	resp, err = hc.Get(base + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		return jt, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	jt.end = time.Now()
	jt.result = jt.end.Sub(jt.waitEnd)
	if err != nil {
		return jt, err
	}
	if resp.StatusCode != http.StatusOK {
		return jt, fmt.Errorf("result of job %d: status %d", idx, resp.StatusCode)
	}
	var rows []string
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			rows = append(rows, line)
		}
	}
	if !equalRows(rows, w.refs[idx].rows) {
		e.failf("service: job %d result differs from the serial run", idx)
	}
	return jt, nil
}

// follow reads a job's SSE stream until its done event and returns the
// terminal view; it notes when the first point arrived.
func (w *serviceWL) follow(hc *http.Client, base, id string, jt *jobTiming) (server.JobView, error) {
	var v server.JobView
	resp, err := hc.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("stream %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			if event == "point" && jt.firstPoint == 0 {
				jt.firstPoint = time.Since(jt.start)
			}
		case strings.HasPrefix(line, "data: ") && event == "done":
			err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &v)
			return v, err
		case strings.HasPrefix(line, "data: ") && event == "error":
			return v, fmt.Errorf("stream %s: %s", id, line)
		}
	}
	if err := sc.Err(); err != nil {
		return v, err
	}
	return v, fmt.Errorf("stream %s ended without a done event", id)
}

// clients runs the closed loop: serviceClients goroutines each take the
// next job of the list once their previous one has completed.
func (w *serviceWL) clients(ctx context.Context, e *env, base string, list []int, replay bool) ([]jobTiming, error) {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients}}
	defer hc.CloseIdleConnections()
	var next atomic.Int64
	var mu sync.Mutex
	var out []jobTiming
	var firstErr error
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(list) {
					return
				}
				jt, err := w.job(ctx, e, hc, base, list[i], replay)
				mu.Lock()
				out = append(out, jt)
				if err != nil && !errors.Is(err, errRefused) && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}

// servicePass is what one pass measured.
type servicePass struct {
	setup, wall     time.Duration
	cpu             time.Duration
	fresh, replayed []jobTiming
	flops           int64
	appends         int
	root            int // the traced pass's root span
}

// setup times a pass's set-up: the service's start and its restart
// over the same data directory.
func (w *serviceWL) setup(_ context.Context, e *env) (time.Duration, error) {
	dataDir, err := newDir(e, "service", &w.dirs)
	defer os.RemoveAll(dataDir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		sv, err := startService(dataDir)
		if err != nil {
			return 0, err
		}
		total += time.Since(t0)
		sv.stop()
	}
	return total, nil
}

// run performs one pass; rec, when non-nil, records its spans.
func (w *serviceWL) run(ctx context.Context, e *env, rec *Recorder) (servicePass, error) {
	var sp servicePass
	dataDir, err := newDir(e, "service", &w.dirs)
	defer os.RemoveAll(dataDir)
	if err != nil {
		return sp, err
	}

	t0 := time.Now()
	sv, err := startService(dataDir)
	if err != nil {
		return sp, err
	}
	sp.setup = time.Since(t0)
	if rec != nil {
		sp.root = rec.Begin("pass", 0)
	}
	before := perf.Flops()
	c1, t1 := processCPU(), time.Now()
	sp.fresh, err = w.clients(ctx, e, sv.base, w.order, false)
	c2, t2 := processCPU(), time.Now()
	sp.flops = perf.Flops() - before
	sv.stop()
	if err != nil {
		return sp, err
	}
	// Restart over the same data directory: the new manager has never
	// seen the jobs, so a re-submission replays the journal.
	t3 := time.Now()
	if sv, err = startService(dataDir); err != nil {
		return sp, err
	}
	sp.setup += time.Since(t3)
	before = perf.Flops()
	c4, t4 := processCPU(), time.Now()
	sp.replayed, err = w.clients(ctx, e, sv.base, w.replays, true)
	c5, t5 := processCPU(), time.Now()
	replayFlops := perf.Flops() - before
	sv.stop()
	if rec != nil {
		rec.End(sp.root)
		rec.Add("server.restart", sp.root, t2, t4)
		for _, jt := range append(append([]jobTiming(nil), sp.fresh...), sp.replayed...) {
			id := rec.Add("server.job", sp.root, jt.start, jt.end)
			rec.Add("server.submit", id, jt.start, jt.submitEnd)
			rec.Add("server.wait", id, jt.submitEnd, jt.waitEnd)
			rec.Add("server.result", id, jt.waitEnd, jt.end)
		}
	}
	if err != nil {
		return sp, err
	}
	if replayFlops != 0 {
		e.failf("service: replays computed %d flops, want 0", replayFlops)
	}
	if sp.flops != w.refFlops {
		e.failf("service: fresh jobs took %d flops, serial runs %d", sp.flops, w.refFlops)
	}
	// Each job's journal holds exactly one record per task, byte-identical
	// to the serial run's payload (replays only read the journals).
	for i, id := range w.ids {
		recs, err := cluster.NewTail(filepath.Join(dataDir, id+".journal")).Poll()
		if err != nil {
			return sp, err
		}
		sp.appends += len(recs)
		seen := make(map[int]bool, len(recs))
		for _, r := range recs {
			seen[r.Index] = true
			if !bytes.Equal(r.Payload, w.refs[i].payloads[r.Index]) {
				e.failf("service: job %d journal record of task %d differs from the serial payload", i, r.Index)
			}
		}
		if len(recs) != serviceNE || len(seen) != serviceNE {
			e.failf("service: job %d journal holds %d records for %d distinct tasks, want %d", i, len(recs), len(seen), serviceNE)
		}
	}
	sp.wall = t2.Sub(t1) + t5.Sub(t4)
	sp.cpu = (c2 - c1) + (c5 - c4)
	return sp, nil
}

// refused counts the 429s among the timings.
func refused(jts []jobTiming) int64 {
	var n int64
	for _, jt := range jts {
		if jt.refused {
			n++
		}
	}
	return n
}

func (w *serviceWL) pass(ctx context.Context, e *env) (passResult, error) {
	sp, err := w.run(ctx, e, nil)
	if err != nil {
		return passResult{}, err
	}
	pr := passResult{setup: sp.setup, wall: sp.wall, cpu: sp.cpu, flops: sp.flops,
		attempted: int64(len(sp.fresh) + len(sp.replayed)),
		failed:    refused(sp.fresh) + refused(sp.replayed)}
	for _, jt := range sp.fresh {
		if !jt.refused {
			pr.jobs = append(pr.jobs, jt.end.Sub(jt.start))
		}
	}
	return pr, nil
}

func (w *serviceWL) traced(ctx context.Context, e *env) (layerMetrics, passResult, error) {
	plain, err := w.run(ctx, e, nil)
	if err != nil {
		return nil, passResult{}, err
	}
	rec := NewRecorder(fmt.Sprintf("service-seed%d", e.seed))
	rt0 := sampleRuntime()
	snap := perf.TakeSnapshot()
	sp, err := w.run(ctx, e, rec)
	if err != nil {
		return nil, passResult{}, err
	}
	d := perf.TakeSnapshot().Diff(snap)
	rt1 := sampleRuntime()
	prof := Analyze(rec.Spans())
	writeTrace(e, "service", rec, prof)

	lm := layerMetrics{}
	lm.counterLayers(d, rt0, rt1, int64(serviceJobs*serviceNE))
	var job, submit, queue, first, run, result, replay []time.Duration
	for _, jt := range sp.fresh {
		job = append(job, jt.end.Sub(jt.start))
		submit = append(submit, jt.submit)
		queue = append(queue, jt.queueWait)
		first = append(first, jt.firstPoint)
		run = append(run, jt.run)
		result = append(result, jt.result)
	}
	for _, jt := range sp.replayed {
		replay = append(replay, jt.end.Sub(jt.start))
	}
	lm["server.job_p50_ms"] = msQuantile(job, 0.5)
	lm["server.job_p90_ms"] = msQuantile(job, 0.9)
	lm["server.submit_p50_ms"] = msQuantile(submit, 0.5)
	lm["server.queue_wait_p50_ms"] = msQuantile(queue, 0.5)
	lm["server.first_point_p50_ms"] = msQuantile(first, 0.5)
	lm["server.run_p50_ms"] = msQuantile(run, 0.5)
	lm["server.result_p50_ms"] = msQuantile(result, 0.5)
	lm["server.replay_p50_ms"] = msQuantile(replay, 0.5)
	lm["server.refused"] = float64(refused(sp.fresh) + refused(sp.replayed))
	lm["cluster.journal_appends"] = float64(sp.appends)
	lm["perf.unattributed_frac"] = prof.Unattributed(sp.root)
	lm["trace.overhead_frac"] = sp.wall.Seconds()/plain.wall.Seconds() - 1
	lm["cluster.model_rate_ratio"] = modelRatio(sp.flops, sp.wall, serviceClients)
	attempted := int64(len(plain.fresh) + len(plain.replayed) + len(sp.fresh) + len(sp.replayed))
	failed := refused(plain.fresh) + refused(plain.replayed) + refused(sp.fresh) + refused(sp.replayed)
	return lm, passResult{attempted: attempted, failed: failed}, nil
}

func (w *serviceWL) finish(context.Context, *env) error { return nil }
