package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"mlimp/internal/cluster"
	"mlimp/internal/event"
	"mlimp/internal/runtime"
	"mlimp/internal/sched"
	"mlimp/internal/serve"
)

// Span names recorded at the layer boundaries reachable from outside the
// program: the serving front end's job builder, the dispatcher's routing
// policy and each node's batch scheduler.
const (
	spanRepeat   = "repeat"
	spanBuildJob = "serve.build_job"
	spanPick     = "cluster.pick"
	spanSchedule = "sched.node_schedule"
)

// span is one timed call in host time. Spans are kept in memory and
// written when the run ends.
type span struct {
	name       string
	lane       string // "main" or the node whose shard made the call
	start, end time.Duration
	parent     int // index of the enclosing span, -1 for a root
	id         int // request, batch or first-job ID; -1 when none
}

// tracer records spans from the wrappers below. Node shards run
// concurrently at sim workers 2, so recording takes a lock. A nil
// tracer wraps nothing, which is how untraced runs stay untouched.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	root  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), root: -1} }

// beginRepeat drops the previous repeat's spans and opens a root span.
func (t *tracer) beginRepeat() {
	t.spans = t.spans[:0]
	t.root = -1
	t.root = t.add(spanRepeat, "main", -1, time.Now())
}

func (t *tracer) endRepeat() { t.spans[t.root].end = time.Since(t.epoch) }

// add records a span that started at start and ends now.
func (t *tracer) add(name, lane string, id int, start time.Time) int {
	end := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, lane: lane, start: start.Sub(t.epoch), end: end, parent: t.root, id: id})
	return len(t.spans) - 1
}

// wrapPolicy times every routing pick, including the EstimateCost
// planning the pick triggers.
func (t *tracer) wrapPolicy(p cluster.Policy) cluster.Policy {
	if t == nil {
		return p
	}
	return &tracedPolicy{inner: p, t: t}
}

type tracedPolicy struct {
	inner cluster.Policy
	t     *tracer
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Pick(eligible []*cluster.Node, b *runtime.Batch, now event.Time) *cluster.Node {
	start := time.Now()
	n := p.inner.Pick(eligible, b, now)
	p.t.add(spanPick, "main", b.ID, start)
	return n
}

// UsesEstimates forwards the inner policy's marker: without it the
// dispatcher would stop booking estimates and route differently.
func (p *tracedPolicy) UsesEstimates() bool {
	u, ok := p.inner.(interface{ UsesEstimates() bool })
	return ok && u.UsesEstimates()
}

// Clone gives each region of a hub tree a wrapped clone, cloned the way
// the fabric clones an unwrapped policy; without it the tree would
// rebuild the unwrapped policy by name in every region.
func (p *tracedPolicy) Clone() cluster.Policy {
	inner := p.inner
	if c, ok := inner.(interface{ Clone() cluster.Policy }); ok {
		inner = c.Clone()
	} else if q, ok := cluster.PolicyByName(inner.Name()); ok {
		inner = q
	}
	return &tracedPolicy{inner: inner, t: p.t}
}

// wrapSchedulers gives each node its own timed global scheduler, the
// scheduler a node gets when its config names none.
func (t *tracer) wrapSchedulers(cfgs []cluster.NodeConfig) {
	if t == nil {
		return
	}
	for i := range cfgs {
		inner := cfgs[i].Scheduler
		if inner == nil {
			inner = sched.NewGlobal()
		}
		cfgs[i].Scheduler = t.wrapScheduler(cfgs[i].Name, inner)
	}
}

func (t *tracer) wrapScheduler(lane string, s sched.Scheduler) sched.Scheduler {
	if t == nil {
		return s
	}
	return &tracedScheduler{inner: s, lane: lane, t: t}
}

type tracedScheduler struct {
	inner sched.Scheduler
	lane  string
	t     *tracer
}

func (s *tracedScheduler) Name() string { return s.inner.Name() }

func (s *tracedScheduler) Schedule(sys *sched.System, jobs []*sched.Job) *sched.Result {
	start := time.Now()
	res := s.inner.Schedule(sys, jobs)
	id := -1
	if len(jobs) > 0 {
		id = jobs[0].ID
	}
	s.t.add(spanSchedule, s.lane, id, start)
	return res
}

// wrapBuildJob times the front end's per-request job builder.
func (t *tracer) wrapBuildJob(f func(*serve.Request) *sched.Job) func(*serve.Request) *sched.Job {
	if t == nil {
		return f
	}
	return func(r *serve.Request) *sched.Job {
		start := time.Now()
		j := f(r)
		t.add(spanBuildJob, "main", r.ID, start)
		return j
	}
}

// spanStats digests the spans of one name.
type spanStats struct {
	calls int
	total time.Duration
	durs  []float64 // microseconds
}

func (t *tracer) stats() map[string]*spanStats {
	out := map[string]*spanStats{}
	for _, s := range t.spans {
		st := out[s.name]
		if st == nil {
			st = &spanStats{}
			out[s.name] = st
		}
		d := s.end - s.start
		st.calls++
		st.total += d
		st.durs = append(st.durs, float64(d)/float64(time.Microsecond))
	}
	return out
}

// layerMetrics turns one traced repeat's spans into per-layer metrics.
func (t *tracer) layerMetrics(m map[string]float64) {
	st := t.stats()
	get := func(name string) *spanStats {
		if s := st[name]; s != nil {
			return s
		}
		return &spanStats{}
	}
	b, p, s := get(spanBuildJob), get(spanPick), get(spanSchedule)
	m["serve.build_job_calls"] = float64(b.calls)
	m["serve.build_job_s"] = b.total.Seconds()
	m["cluster.pick_calls"] = float64(p.calls)
	m["cluster.pick_s"] = p.total.Seconds()
	m["sched.node_schedule_calls"] = float64(s.calls)
	m["sched.node_schedule_s"] = s.total.Seconds()
	m["sched.node_schedule_us_p50"] = percentile(s.durs, 50)
	m["sched.node_schedule_us_p99"] = percentile(s.durs, tailPercentile(len(s.durs)))
}

// writeChrome writes the setup spans and the last traced repeat's spans
// in Chrome trace-event format, which Perfetto and chrome://tracing open:
// one complete event per span, one named thread lane per node. Each
// event's args carry its span index, its parent's index (-1 for a root)
// and its request, batch or first-job ID.
func (t *tracer) writeChrome(path string, setup []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	all := append(append([]span(nil), setup...), t.spans...)
	lanes := map[string]int{}
	var evs []event
	for i, s := range all {
		tid, ok := lanes[s.lane]
		if !ok {
			tid = len(lanes)
			lanes[s.lane] = tid
			evs = append(evs, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": s.lane}})
		}
		parent := s.parent
		if parent >= 0 && i >= len(setup) {
			parent += len(setup)
		}
		evs = append(evs, event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: tid,
			Args: map[string]any{"span": i, "parent": parent, "id": s.id}})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
