package dist

import (
	"dod/internal/obs"
)

// coordMetrics holds the coordinator's instruments, registered as
// dod_dist_* in the coordinator's obs.Registry so a /metrics scrape of the
// coordinator covers the whole cluster's task flow.
type coordMetrics struct {
	heartbeats *obs.Counter // polls received (a poll is a heartbeat)
	joins      *obs.Counter

	dispatches   map[string]*obs.Counter // by phase: task payloads handed to workers
	tasksOK      map[string]*obs.Counter
	tasksErr     map[string]*obs.Counter
	tasksLate    map[string]*obs.Counter // duplicate/late results discarded
	taskSeconds  map[string]*obs.Histogram
	bytesShipped *obs.Counter // task payload bytes coordinator -> workers
	bytesBack    *obs.Counter // result payload bytes workers -> coordinator

	workersLost *obs.Counter
	redispatch  *obs.Counter // re-queues after a lost lease, a nack or a passed deadline
	deadlines   *obs.Counter // dispatches withdrawn past their deadline

	nacks          *obs.Counter // corrupted-payload nacks from workers
	journalReplays *obs.Counter // tasks answered from the journal instead of a worker
	journalRecords *obs.Counter // results appended to the journal
}

func newCoordMetrics(reg *obs.Registry, workers func() float64) *coordMetrics {
	const (
		hbHelp    = "Worker polls received; each poll renews the worker's lease."
		joinHelp  = "Worker join handshakes."
		dispHelp  = "Task dispatches handed to workers, by phase."
		taskHelp  = "Task results by phase and outcome (ok, error, late-discarded)."
		secHelp   = "Accepted task wall time in seconds, by phase."
		shipHelp  = "Bytes of task payload shipped to workers."
		backHelp  = "Bytes of result payload streamed back from workers."
		lostHelp  = "Workers declared lost after missing their lease."
		redisHelp = "Task re-dispatches after a lost lease, a nack or a passed deadline."
	)
	perPhase := func(build func(phase string) *obs.Counter) map[string]*obs.Counter {
		return map[string]*obs.Counter{"map": build("map"), "reduce": build("reduce")}
	}
	m := &coordMetrics{
		heartbeats: reg.Counter("dod_dist_heartbeats_total", hbHelp),
		joins:      reg.Counter("dod_dist_joins_total", joinHelp),
		dispatches: perPhase(func(p string) *obs.Counter {
			return reg.Counter("dod_dist_dispatches_total", dispHelp, obs.L("phase", p))
		}),
		tasksOK: perPhase(func(p string) *obs.Counter {
			return reg.Counter("dod_dist_tasks_total", taskHelp, obs.L("phase", p), obs.L("outcome", "ok"))
		}),
		tasksErr: perPhase(func(p string) *obs.Counter {
			return reg.Counter("dod_dist_tasks_total", taskHelp, obs.L("phase", p), obs.L("outcome", "error"))
		}),
		tasksLate: perPhase(func(p string) *obs.Counter {
			return reg.Counter("dod_dist_tasks_total", taskHelp, obs.L("phase", p), obs.L("outcome", "late"))
		}),
		taskSeconds: map[string]*obs.Histogram{
			"map":    reg.Histogram("dod_dist_task_seconds", secHelp, nil, obs.L("phase", "map")),
			"reduce": reg.Histogram("dod_dist_task_seconds", secHelp, nil, obs.L("phase", "reduce")),
		},
		bytesShipped: reg.Counter("dod_dist_bytes_total", shipHelp, obs.L("direction", "ship")),
		bytesBack:    reg.Counter("dod_dist_bytes_total", shipHelp, obs.L("direction", "collect")),
		workersLost:  reg.Counter("dod_dist_workers_lost_total", lostHelp),
		redispatch:   reg.Counter("dod_dist_redispatches_total", redisHelp),
		deadlines: reg.Counter("dod_dist_deadlines_total",
			"Dispatches withdrawn after running past their deadline."),
		nacks: reg.Counter("dod_dist_nacks_total",
			"Dispatches nacked by workers after the payload arrived corrupted."),
		journalReplays: reg.Counter("dod_dist_journal_replays_total",
			"Tasks settled from the checkpoint journal instead of a worker."),
		journalRecords: reg.Counter("dod_dist_journal_records_total",
			"Task results durably appended to the checkpoint journal."),
	}
	reg.GaugeFunc("dod_dist_workers", "Workers currently holding a live lease.", workers)
	return m
}

// phaseCounter indexes a per-phase counter map defensively.
func phaseCounter(m map[string]*obs.Counter, phase string) *obs.Counter {
	if c, ok := m[phase]; ok {
		return c
	}
	return m["map"]
}

// Stats is a point-in-time snapshot of the coordinator's counters, exposed
// for tests and for the bench/ module's cluster-loopback workload.
type Stats struct {
	Workers        int
	Heartbeats     int64
	Dispatches     int64
	TasksOK        int64
	TasksErr       int64
	TasksLate      int64
	BytesShipped   int64 // task payloads, coordinator -> workers
	BytesCollected int64 // result payloads, workers -> coordinator
	WorkersLost    int64
	Redispatches   int64
	Deadlines      int64
	Nacks          int64
	JournalReplays int64
}
