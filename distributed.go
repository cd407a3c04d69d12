package dod

import (
	"context"
	"time"

	"dod/internal/dist"
)

// Engine selects where a detection run's map and reduce tasks execute.
type Engine string

const (
	// EngineLocal executes tasks on in-process goroutines (the default).
	EngineLocal Engine = "local"
	// EngineCluster ships tasks to the workers registered with the run's
	// Coordinator — real distributed execution over the network, with
	// results byte-identical to EngineLocal on the same seed.
	EngineCluster Engine = "cluster"
)

// CoordinatorConfig tunes a cluster Coordinator. The zero value listens on
// a loopback ephemeral port with production defaults.
type CoordinatorConfig struct {
	// Listen is the address to bind ("host:port"); default "127.0.0.1:0".
	// Bind a routable address to accept workers from other machines.
	Listen string
	// LeaseTTL is how long a worker may go silent before it is declared
	// lost and its tasks are re-executed elsewhere; default 10s.
	LeaseTTL time.Duration
	// MaxTaskDispatches bounds how many times one task is handed out
	// before the job fails with ErrWorkerLost; default 8.
	MaxTaskDispatches int
	// JournalPath, when set, enables checkpoint/resume: accepted task
	// results are fsynced to this append-only log before delivery, and a
	// restarted coordinator pointed at the same path answers already-
	// settled tasks from disk instead of re-running them. The journal is
	// keyed by job spec content, so it survives process restarts.
	JournalPath string
	// Logf, when set, receives scheduling events (worker joins and losses,
	// re-dispatches, passed deadlines).
	Logf func(format string, args ...any)
}

// Coordinator is the control plane of a worker cluster: workers (started
// with cmd/dodworker, or dist.Worker in-process) join it over HTTP, and
// detection runs with Engine: EngineCluster ship their tasks to it. It
// serves GET /metrics (Prometheus text, dod_dist_* series) and
// GET /healthz on the same listener.
type Coordinator struct {
	c *dist.Coordinator
}

// NewCoordinator starts a coordinator; Close releases its listener and
// aborts in-flight jobs.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	c, err := dist.NewCoordinator(dist.Config{
		Listen:            cfg.Listen,
		LeaseTTL:          cfg.LeaseTTL,
		MaxTaskDispatches: cfg.MaxTaskDispatches,
		JournalPath:       cfg.JournalPath,
		Logf:              cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	return &Coordinator{c: c}, nil
}

// URL returns the coordinator's base URL — the address workers join, e.g.
// "http://127.0.0.1:41327".
func (c *Coordinator) URL() string { return c.c.URL() }

// Workers returns the number of workers currently holding live leases.
func (c *Coordinator) Workers() int { return c.c.Workers() }

// WaitForWorkers blocks until at least n workers have joined or ctx
// expires.
func (c *Coordinator) WaitForWorkers(ctx context.Context, n int) error {
	return c.c.WaitForWorkers(ctx, n)
}

// Close shuts the coordinator down. In-flight cluster runs fail with
// ErrJobAborted; workers observe the shutdown and exit their run loops.
func (c *Coordinator) Close() error { return c.c.Close() }

// ClusterStats is a point-in-time snapshot of a coordinator's scheduling
// counters.
type ClusterStats struct {
	// Workers holds live leases right now.
	Workers int
	// Dispatches counts task payloads handed to workers, including
	// re-executions.
	Dispatches int64
	// TasksOK / TasksErr / TasksLate count accepted results, worker-side
	// task failures, and discarded duplicate results.
	TasksOK, TasksErr, TasksLate int64
	// BytesShipped / BytesCollected measure task and result payload bytes
	// over the wire.
	BytesShipped, BytesCollected int64
	// WorkersLost counts lease expiries; Deadlines counts dispatches
	// withdrawn for running past their deadline while their worker kept
	// polling; Redispatches counts the task re-queues after either, or
	// after a nack.
	WorkersLost, Deadlines, Redispatches int64
	// Nacks counts dispatches whose payload arrived at a worker corrupted
	// and was reported back; JournalReplays counts tasks settled from the
	// checkpoint journal instead of a worker.
	Nacks, JournalReplays int64
}

// Stats snapshots the coordinator's scheduling counters — the same values
// exported on /metrics as dod_dist_* series.
func (c *Coordinator) Stats() ClusterStats {
	s := c.c.Stats()
	return ClusterStats{
		Workers:        s.Workers,
		Dispatches:     s.Dispatches,
		TasksOK:        s.TasksOK,
		TasksErr:       s.TasksErr,
		TasksLate:      s.TasksLate,
		BytesShipped:   s.BytesShipped,
		BytesCollected: s.BytesCollected,
		WorkersLost:    s.WorkersLost,
		Redispatches:   s.Redispatches,
		Deadlines:      s.Deadlines,
		Nacks:          s.Nacks,
		JournalReplays: s.JournalReplays,
	}
}
