// Package fault is test infrastructure: the deterministic fault injector
// behind the seeded chaos matrix. No production package imports it; the
// dist and router chaos tests reach it through an http.RoundTripper.
//
// An Injector is built from a seed and a set of Rules. Transport wraps an
// http.RoundTripper so every request asks the injector for a named Site and
// rolls a Decision: do nothing, add latency, fail, drop the response,
// corrupt the payload, or open a partition window that fails the next N
// operations too.
//
// Determinism is the whole point: each site owns a private PRNG seeded
// from (seed, site name), so site S's k-th decision is a pure function of
// the seed — independent of goroutine interleaving, wall clock, and every
// other site. A failing chaos run is replayed byte-for-byte by re-running
// with the same seed (`go test -run Chaos -fault.seed=N`); the recorded
// Schedule says exactly which fault fired at which call of which site.
//
// The injector never touches production code paths: tests install it
// through transport seams that already exist (a dist worker's http.Client,
// the router's and shard servers' Transport), and a nil *Injector rolls
// only None decisions, so call sites need no guards. A seeded in-process
// network that delays, drops, duplicates and partitions every hop of the
// cluster and serving tiers is meant to be built on this package.
package fault

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"dod/internal/obs"
)

// Kind enumerates the injectable faults.
type Kind int

const (
	// None means the operation proceeds untouched.
	None Kind = iota
	// Latency delays the operation by Decision.Delay.
	Latency
	// Error fails the operation before it takes effect.
	Error
	// Drop lets the operation take effect but loses its response.
	Drop
	// Corrupt flips one byte of the operation's payload.
	Corrupt
	// Partition fails this operation and the next PartitionLen-1 at the
	// same site — a connectivity outage window.
	Partition
)

// String names the kind for schedules and metrics.
func (k Kind) String() string {
	switch k {
	case Latency:
		return "latency"
	case Error:
		return "error"
	case Drop:
		return "drop"
	case Corrupt:
		return "corrupt"
	case Partition:
		return "partition"
	default:
		return "none"
	}
}

// Rule attaches fault probabilities to sites. Probabilities are rolled in
// order (latency first, then error, drop, corrupt, partition); at most one
// fault fires per decision, but latency may combine with a clean pass.
type Rule struct {
	// Site selects which sites the rule covers: an exact name, or a
	// prefix ending in '*' ("worker.*"). The first matching rule wins;
	// sites with no matching rule never fault.
	Site string

	// PLatency is the probability of injected latency, drawn uniformly
	// from (0, MaxLatency].
	PLatency   float64
	MaxLatency time.Duration

	// PError fails the operation outright.
	PError float64
	// PDrop performs the operation but loses the response.
	PDrop float64
	// PCorrupt flips one payload byte.
	PCorrupt float64
	// PPartition opens an outage window of PartitionLen operations.
	PPartition   float64
	PartitionLen int
}

func (r Rule) matches(site string) bool {
	if p, ok := strings.CutSuffix(r.Site, "*"); ok {
		return strings.HasPrefix(site, p)
	}
	return r.Site == site
}

// Decision is one roll's outcome.
type Decision struct {
	Site  string        `json:"site"`
	Call  int           `json:"call"` // 1-based per-site operation counter
	Kind  Kind          `json:"-"`
	Fault string        `json:"fault"` // Kind.String(), for JSON schedules
	Delay time.Duration `json:"delayNs,omitempty"`
	// Aux seeds payload corruption (byte offset and bit are derived from
	// it modulo the payload length) so corruption is reproducible without
	// the injector seeing the payload in advance.
	Aux uint64 `json:"aux,omitempty"`
}

// Err returns the typed injected error for failing kinds, nil otherwise.
func (d Decision) Err() error {
	switch d.Kind {
	case Error, Partition:
		return &InjectedError{D: d}
	case Drop:
		return &InjectedError{D: d, AfterEffect: true}
	default:
		return nil
	}
}

// InjectedError is the error surfaced by failing decisions, so tests can
// distinguish injected faults from real ones.
type InjectedError struct {
	D Decision
	// AfterEffect means the operation took effect before the failure
	// (a dropped response rather than a refused request).
	AfterEffect bool
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("fault: injected %s at %s call %d", e.D.Kind, e.D.Site, e.D.Call)
}

// Config builds an Injector.
type Config struct {
	// Seed drives every site's decision stream.
	Seed int64
	// Rules attach probabilities to sites; first match wins.
	Rules []Rule
	// Obs, when set, receives dod_fault_injected_total{kind,site} counters
	// so injected faults are observable next to the system's own metrics.
	Obs *obs.Registry
}

// Injector is the named-site registry. A nil *Injector is valid and inert.
type Injector struct {
	cfg Config

	mu       sync.Mutex
	sites    map[string]*Site
	schedule []Decision
	counters map[Kind]*obs.Counter
}

// New builds an Injector.
func New(cfg Config) *Injector {
	in := &Injector{cfg: cfg, sites: make(map[string]*Site)}
	if cfg.Obs != nil {
		const help = "Faults injected by the chaos harness, by kind."
		in.counters = make(map[Kind]*obs.Counter)
		for _, k := range []Kind{Latency, Error, Drop, Corrupt, Partition} {
			in.counters[k] = cfg.Obs.Counter("dod_fault_injected_total", help, obs.L("kind", k.String()))
		}
	}
	return in
}

// Site returns the named site, creating it on first use. Sites are cheap;
// name them after the operation they guard ("worker.w1/dist/v1/poll",
// "serve.ingest").
func (in *Injector) Site(name string) *Site {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.sites[name]
	if s == nil {
		s = &Site{in: in, name: name, rng: rand.New(rand.NewSource(siteSeed(in.cfg.Seed, name)))}
		for _, r := range in.cfg.Rules {
			if r.matches(name) {
				rule := r
				s.rule = &rule
				break
			}
		}
		in.sites[name] = s
	}
	return s
}

// siteSeed mixes the injector seed with the site name, giving every site
// an independent deterministic stream.
func siteSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s", seed, name)
	return int64(h.Sum64())
}

// record appends d to the schedule and bumps the fault counter.
func (in *Injector) record(d Decision) {
	in.mu.Lock()
	in.schedule = append(in.schedule, d)
	in.mu.Unlock()
	if c := in.counters[d.Kind]; c != nil {
		c.Inc()
	}
}

// Schedule snapshots every non-None decision so far, in arrival order.
// Per-site ordering is deterministic under a fixed seed; interleaving
// across sites reflects the actual run.
func (in *Injector) Schedule() []Decision {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Decision(nil), in.schedule...)
}

// SiteNames lists the sites that have been rolled at least once, sorted.
func (in *Injector) SiteNames() []string {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	names := make([]string, 0, len(in.sites))
	for n := range in.sites {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Site is one named injection point. A nil *Site rolls None forever.
type Site struct {
	in   *Injector
	name string
	rule *Rule

	mu            sync.Mutex
	rng           *rand.Rand
	calls         int
	partitionLeft int
}

// Roll draws the next decision for this site. The caller applies it:
// sleep Decision.Delay, return Decision.Err(), corrupt via CorruptBytes.
func (s *Site) Roll() Decision {
	if s == nil {
		return Decision{Kind: None, Fault: None.String()}
	}
	s.mu.Lock()
	s.calls++
	d := Decision{Site: s.name, Call: s.calls, Kind: None}
	if s.partitionLeft > 0 {
		s.partitionLeft--
		d.Kind = Partition
	} else if r := s.rule; r != nil {
		// One rand draw per probability keeps the stream's consumption
		// fixed per call, so decision k never depends on decision k-1's
		// outcome beyond the partition window.
		pl, pe, pd, pc, pp := s.rng.Float64(), s.rng.Float64(), s.rng.Float64(), s.rng.Float64(), s.rng.Float64()
		frac := s.rng.Float64()
		aux := s.rng.Uint64()
		switch {
		case pe < r.PError:
			d.Kind = Error
		case pd < r.PDrop:
			d.Kind = Drop
		case pc < r.PCorrupt:
			d.Kind = Corrupt
			d.Aux = aux
		case pp < r.PPartition:
			d.Kind = Partition
			n := r.PartitionLen
			if n < 1 {
				n = 3
			}
			s.partitionLeft = n - 1
		case pl < r.PLatency && r.MaxLatency > 0:
			d.Kind = Latency
			d.Delay = time.Duration(frac * float64(r.MaxLatency))
			if d.Delay <= 0 {
				d.Delay = time.Millisecond
			}
		}
	}
	s.mu.Unlock()
	d.Fault = d.Kind.String()
	if d.Kind != None {
		s.in.record(d)
	}
	return d
}

// CorruptBytes flips one byte of data in place per the decision's Aux,
// returning whether anything changed (empty payloads cannot corrupt).
func CorruptBytes(d Decision, data []byte) bool {
	if d.Kind != Corrupt || len(data) == 0 {
		return false
	}
	off := int(d.Aux % uint64(len(data)))
	data[off] ^= byte(1) << ((d.Aux >> 32) % 8)
	return true
}
