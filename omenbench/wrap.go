package main

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/perf"
	"repro/internal/sched"
)

// The wrappers below sit on public boundaries of the program: the
// cluster.Checkpointer a coordinator journals through, the net.Conn and
// net.Listener the wire runs over, the cluster.SweepFunc a worker
// executes, the distrib.Options.OnResult commit callback, and the
// sched.Pool.Hook task observer. Each forwards every call unchanged and
// only records when and how much; wrap_test.go pins that they leave
// observables, flop totals and journal records identical.

// timedJournal times every Append of the wrapped journal.
type timedJournal struct {
	cluster.Checkpointer
	rec    *Recorder
	parent int

	mu  sync.Mutex
	lat []time.Duration
}

func (j *timedJournal) Append(r cluster.TaskRecord) error {
	t0 := time.Now()
	err := j.Checkpointer.Append(r)
	t1 := time.Now()
	j.rec.Add("cluster.journal_append", j.parent, t0, t1)
	j.mu.Lock()
	j.lat = append(j.lat, t1.Sub(t0))
	j.mu.Unlock()
	return err
}

// latencies returns a copy of the recorded append latencies.
func (j *timedJournal) latencies() []time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]time.Duration(nil), j.lat...)
}

// wireMeter counts what crosses a set of connections — Write calls (one
// per frame: the codec flushes each frame with a single write) and bytes
// each way — and records a span per Write.
type wireMeter struct {
	writes, bytesOut, bytesIn atomic.Int64

	rec    *Recorder
	parent int
}

type meteredConn struct {
	net.Conn
	m *wireMeter
}

func (c meteredConn) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(b)
	c.m.rec.Add("comms.write", c.m.parent, t0, time.Now())
	c.m.writes.Add(1)
	c.m.bytesOut.Add(int64(n))
	return n, err
}

func (c meteredConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.m.bytesIn.Add(int64(n))
	return n, err
}

// wrap meters one connection.
func (m *wireMeter) wrap(c net.Conn) net.Conn { return meteredConn{Conn: c, m: m} }

// meteredListener meters every connection it accepts.
type meteredListener struct {
	net.Listener
	m *wireMeter
}

func (l meteredListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.m.wrap(c), nil
}

// taskTimer times the tasks workers execute and the coordinator's commit
// of each result, so commit lag (worker return → OnResult) and worker
// occupancy are measured from outside both.
type taskTimer struct {
	rec    *Recorder
	parent int
	nK, nE int

	mu       sync.Mutex
	returned map[int]time.Time // flat task index → first worker return
	lag      []time.Duration
	lanes    map[int]*laneStats
}

// laneStats is one worker's task occupancy.
type laneStats struct {
	first, last time.Time
	busy        time.Duration
}

func newTaskTimer(rec *Recorder, parent, nK, nE int) *taskTimer {
	return &taskTimer{rec: rec, parent: parent, nK: nK, nE: nE,
		returned: make(map[int]time.Time), lanes: make(map[int]*laneStats)}
}

// sweep wraps worker lane's SweepFunc.
func (t *taskTimer) sweep(lane int, fn cluster.SweepFunc) cluster.SweepFunc {
	return func(ctx context.Context, task cluster.Task) ([]byte, error) {
		t0 := time.Now()
		payload, err := fn(ctx, task)
		t1 := time.Now()
		t.rec.Add("transport.energy", t.parent, t0, t1)
		idx := (task.Bias*t.nK+task.K)*t.nE + task.E
		t.mu.Lock()
		if _, seen := t.returned[idx]; !seen {
			t.returned[idx] = t1
		}
		ls := t.lanes[lane]
		if ls == nil {
			ls = &laneStats{first: t0}
			t.lanes[lane] = ls
		}
		ls.last = t1
		ls.busy += t1.Sub(t0)
		t.mu.Unlock()
		return payload, err
	}
}

// onResult wraps the coordinator's commit callback (nil next is allowed).
func (t *taskTimer) onResult(next func(cluster.Task, []byte)) func(cluster.Task, []byte) {
	return func(task cluster.Task, payload []byte) {
		now := time.Now()
		idx := (task.Bias*t.nK+task.K)*t.nE + task.E
		t.mu.Lock()
		if ret, ok := t.returned[idx]; ok {
			t.lag = append(t.lag, now.Sub(ret))
		}
		t.mu.Unlock()
		if next != nil {
			next(task, payload)
		}
	}
}

// busyHook returns a sched.Pool.Hook that sums the wall time of the
// tasks of one phase: pool occupancy without any per-task recording.
func busyHook(phase string, busy *atomic.Int64) func(sched.TaskEvent) {
	return func(ev sched.TaskEvent) {
		if ev.Phase == phase {
			busy.Add(int64(ev.Wall))
		}
	}
}

// serialTracer is the sched.Pool.Hook of a width-1 traced pass. On a
// serial pool the hook events arrive in execution order, so the flop
// counter and the program's phase timers read at each event partition
// exactly into the task that just ended: each energy task gets its flop
// delta and its program-recorded σ and solve time as child spans, and
// each bias task adopts the energy tasks that ended inside it plus its
// Poisson time. Poisson runs between a bias task's energy tasks, so its
// timer is read against the previous bias event, not the previous event.
type serialTracer struct {
	rec  *Recorder
	root int

	lastFlops   int64
	lastPhases  map[string]perf.PhaseStats
	lastPoisson time.Duration // the poisson timer at the previous bias event
	pending     []int         // energy spans not yet adopted by a bias span

	energyTasks int64
	energyFlops int64
	energyWall  time.Duration
}

func newSerialTracer(rec *Recorder, root int) *serialTracer {
	phases := perf.PhaseSnapshot()
	return &serialTracer{rec: rec, root: root, lastFlops: perf.Flops(), lastPhases: phases, lastPoisson: phases["poisson"].Wall}
}

// phaseDelta returns the growth of a program phase timer since the
// previous event.
func phaseDelta(now, prev map[string]perf.PhaseStats, name string) time.Duration {
	return now[name].Wall - prev[name].Wall
}

func (s *serialTracer) hook(ev sched.TaskEvent) {
	end := time.Now()
	start := end.Add(-ev.Wall)
	flops := perf.Flops()
	phases := perf.PhaseSnapshot()
	switch ev.Phase {
	case "sweep", "energy", "energy-batch":
		id := s.rec.Add("transport.energy", s.root, start, end)
		s.rec.AddProgram(id,
			[]string{"negf.sigma", "wavefunction.solve", "negf.rgf"},
			[]time.Duration{
				phaseDelta(phases, s.lastPhases, "self-energy"),
				phaseDelta(phases, s.lastPhases, "wf-solve"),
				phaseDelta(phases, s.lastPhases, "rgf"),
			})
		s.pending = append(s.pending, id)
		s.energyTasks++
		s.energyFlops += flops - s.lastFlops
		s.energyWall += ev.Wall
	case "bias":
		id := s.rec.Add("core.bias", s.root, start, end)
		s.rec.SetParent(s.pending, id)
		s.pending = s.pending[:0]
		poisson := phases["poisson"].Wall
		s.rec.AddProgram(id, []string{"poisson.solve"}, []time.Duration{poisson - s.lastPoisson})
		s.lastPoisson = poisson
	}
	s.lastFlops, s.lastPhases = flops, phases
}
