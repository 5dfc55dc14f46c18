// Package consistency defines the paper's three consistency levels (§3,
// Eq 3.2.1–3.2.3) and an online auditor that checks every answered query
// against the simulation's ground truth.
//
// The auditor gives the reproduction teeth: a strategy cannot "win" the
// latency comparison by serving garbage, because every answer is checked
// for (a) being a committed value — weak consistency, Eq 3.2.3 — and (b)
// its staleness τ, which strong consistency requires to be zero at answer
// time (Eq 3.2.1) and Δ-consistency bounds by Δ (Eq 3.2.2).
package consistency

import (
	"fmt"
	"time"

	"github.com/manetlab/rpcc/internal/data"
)

// Level is a query's consistency requirement.
type Level int

// Consistency levels. Values start at 1 so the zero value is invalid.
const (
	LevelInvalid Level = iota
	// LevelStrong (SC): the answer must be the source's current version
	// at the time the query is served.
	LevelStrong
	// LevelDelta (DC): the answer may lag the source by at most Δ.
	LevelDelta
	// LevelWeak (WC): the answer must be some previously committed value.
	LevelWeak
)

// String renders the level in the paper's abbreviations.
func (l Level) String() string {
	switch l {
	case LevelStrong:
		return "SC"
	case LevelDelta:
		return "DC"
	case LevelWeak:
		return "WC"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Valid reports whether l is a defined level.
func (l Level) Valid() bool {
	return l == LevelStrong || l == LevelDelta || l == LevelWeak
}

// Answer is one served query, as reported by a strategy to the auditor.
type Answer struct {
	Host       int
	Item       data.ItemID
	Level      Level
	IssuedAt   time.Duration
	AnsweredAt time.Duration
	Served     data.Copy
}

// Violation classifies an audit failure.
type Violation int

// Violation kinds.
const (
	ViolationNone Violation = iota
	// ViolationTorn: the served copy is not any committed value.
	ViolationTorn
	// ViolationFuture: the served version exceeds the master's (impossible
	// for a correct simulation; indicates a protocol bug).
	ViolationFuture
	// ViolationStrong: an SC answer was stale.
	ViolationStrong
	// ViolationDelta: a DC answer was staler than Δ.
	ViolationDelta
)

// String names the violation for reports.
func (v Violation) String() string {
	switch v {
	case ViolationNone:
		return "none"
	case ViolationTorn:
		return "torn-value"
	case ViolationFuture:
		return "future-version"
	case ViolationStrong:
		return "strong-stale"
	case ViolationDelta:
		return "delta-exceeded"
	default:
		return fmt.Sprintf("Violation(%d)", int(v))
	}
}

// Auditor cross-checks answers against the master registry.
//
// An Auditor holds no lock: it is confined to the kernel goroutine whose
// handlers serve the answers it checks (the simulation's kernel, or a
// live daemon's clock goroutine). Read its tallies from another
// goroutine only after that kernel has stopped.
type Auditor struct {
	registry *data.Registry
	delta    time.Duration
	// slack forgives staleness up to the message in-flight time: a copy
	// that was current when the relay answered may be superseded while
	// the reply is in the air. The paper's definitions are instantaneous;
	// a distributed implementation can only promise them up to delivery
	// latency.
	slack time.Duration

	answers    uint64
	violations map[Violation]uint64
	staleness  []time.Duration
	worst      []Answer // first few violating answers, for diagnostics
}

// NewAuditor builds an auditor. delta is the Δ bound for DC queries; slack
// is the in-flight forgiveness applied to SC/DC checks.
func NewAuditor(registry *data.Registry, delta, slack time.Duration) (*Auditor, error) {
	if registry == nil {
		return nil, fmt.Errorf("consistency: nil registry")
	}
	if delta < 0 || slack < 0 {
		return nil, fmt.Errorf("consistency: negative delta %v or slack %v", delta, slack)
	}
	return &Auditor{
		registry:   registry,
		delta:      delta,
		slack:      slack,
		violations: make(map[Violation]uint64),
	}, nil
}

// Staleness computes how long the served version had been superseded at
// answer time: zero when it was still current.
func (a *Auditor) Staleness(ans Answer) (time.Duration, error) {
	m, err := a.registry.Master(ans.Item)
	if err != nil {
		return 0, err
	}
	cur := m.VersionAt(ans.AnsweredAt)
	if ans.Served.Version >= cur {
		return 0, nil
	}
	// The served version stopped being current when its successor
	// committed.
	succ, ok := m.CommitTime(ans.Served.Version + 1)
	if !ok {
		return 0, fmt.Errorf("consistency: missing commit time for v%d of %v", ans.Served.Version+1, ans.Item)
	}
	return ans.AnsweredAt - succ, nil
}

// Check audits one answer and records the outcome. It returns the
// violation class (ViolationNone when the answer satisfied its level).
func (a *Auditor) Check(ans Answer) (Violation, error) {
	v, _, err := a.CheckStale(ans)
	return v, err
}

// CheckStale audits one answer like Check and also returns the served
// copy's staleness at delivery — the quantity the telemetry layer exports
// per consistency level. Staleness is zero for torn/future answers (the
// notion does not apply to values that were never committed).
func (a *Auditor) CheckStale(ans Answer) (Violation, time.Duration, error) {
	if !ans.Level.Valid() {
		return ViolationNone, 0, fmt.Errorf("consistency: invalid level %v", ans.Level)
	}
	m, err := a.registry.Master(ans.Item)
	if err != nil {
		return ViolationNone, 0, err
	}

	v := ViolationNone
	var stale time.Duration
	switch {
	case !ans.Served.Consistent() || ans.Served.ID != ans.Item:
		v = ViolationTorn
	case ans.Served.Version > m.VersionAt(ans.AnsweredAt):
		v = ViolationFuture
	default:
		var serr error
		stale, serr = a.Staleness(ans)
		if serr != nil {
			return ViolationNone, 0, serr
		}
		a.staleness = append(a.staleness, stale)
		switch ans.Level {
		case LevelStrong:
			if stale > a.slack {
				v = ViolationStrong
			}
		case LevelDelta:
			if stale > a.delta+a.slack {
				v = ViolationDelta
			}
		}
	}

	a.answers++
	if v != ViolationNone {
		a.violations[v]++
		if len(a.worst) < 16 {
			a.worst = append(a.worst, ans)
		}
	}
	return v, stale, nil
}

// Answers returns the number of audited answers.
func (a *Auditor) Answers() uint64 {
	return a.answers
}

// Violations returns the count for one violation class.
func (a *Auditor) Violations(v Violation) uint64 {
	return a.violations[v]
}

// TotalViolations sums all violation classes.
func (a *Auditor) TotalViolations() uint64 {
	var sum uint64
	for _, n := range a.violations {
		sum += n
	}
	return sum
}

// MeanStaleness returns the mean staleness across audited answers.
func (a *Auditor) MeanStaleness() time.Duration {
	if len(a.staleness) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range a.staleness {
		sum += s
	}
	return sum / time.Duration(len(a.staleness))
}

// MaxStaleness returns the worst staleness across audited answers.
func (a *Auditor) MaxStaleness() time.Duration {
	var m time.Duration
	for _, s := range a.staleness {
		if s > m {
			m = s
		}
	}
	return m
}

// Worst returns up to the first 16 violating answers for diagnostics.
func (a *Auditor) Worst() []Answer {
	out := make([]Answer, len(a.worst))
	copy(out, a.worst)
	return out
}

// String summarises the audit.
func (a *Auditor) String() string {
	return fmt.Sprintf("answers=%d violations=%d meanStale=%v", a.answers, a.TotalViolations(), a.MeanStaleness())
}
