package data

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestNewMasterStartsAtVersionZero(t *testing.T) {
	m := NewMaster(7)
	c := m.Current()
	if c.Version != 0 {
		t.Errorf("Version = %d, want 0", c.Version)
	}
	if c.ID != 7 {
		t.Errorf("ID = %v, want D7", c.ID)
	}
	if !c.Consistent() {
		t.Error("fresh master copy not self-consistent")
	}
}

func TestUpdateIncrementsVersion(t *testing.T) {
	m := NewMaster(1)
	for i := 1; i <= 5; i++ {
		c, err := m.Update(time.Duration(i) * time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if c.Version != Version(i) {
			t.Fatalf("Version = %d, want %d", c.Version, i)
		}
		if !c.Consistent() {
			t.Fatalf("updated copy v%d not self-consistent", i)
		}
	}
}

func TestUpdateRejectsTimeRegression(t *testing.T) {
	m := NewMaster(1)
	if _, err := m.Update(time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Update(time.Second); err == nil {
		t.Fatal("backward-time update accepted")
	}
}

func TestConsistentDetectsTorn(t *testing.T) {
	c := Copy{ID: 3, Version: 2, Value: ValueFor(3, 1)}
	if c.Consistent() {
		t.Fatal("torn copy (v2 claiming v1 payload) reported consistent")
	}
}

func TestVersionAt(t *testing.T) {
	m := NewMaster(0)
	m.Update(time.Minute)     // v1 @ 1m
	m.Update(3 * time.Minute) // v2 @ 3m
	m.Update(3 * time.Minute) // v3 @ 3m (same instant)
	tests := []struct {
		t    time.Duration
		want Version
	}{
		{0, 0},
		{30 * time.Second, 0},
		{time.Minute, 1},
		{2 * time.Minute, 1},
		{3 * time.Minute, 3},
		{time.Hour, 3},
	}
	for _, tt := range tests {
		if got := m.VersionAt(tt.t); got != tt.want {
			t.Errorf("VersionAt(%v) = %d, want %d", tt.t, got, tt.want)
		}
	}
}

func TestCommitTime(t *testing.T) {
	m := NewMaster(0)
	m.Update(90 * time.Second)
	if ct, ok := m.CommitTime(1); !ok || ct != 90*time.Second {
		t.Errorf("CommitTime(1) = %v,%v", ct, ok)
	}
	if _, ok := m.CommitTime(9); ok {
		t.Error("CommitTime of uncommitted version reported ok")
	}
}

func TestVersionAtInverseOfCommitTimeProperty(t *testing.T) {
	f := func(gaps []uint16) bool {
		m := NewMaster(0)
		now := time.Duration(0)
		for _, g := range gaps {
			now += time.Duration(g+1) * time.Second
			if _, err := m.Update(now); err != nil {
				return false
			}
		}
		for v := Version(0); v <= m.Current().Version; v++ {
			ct, ok := m.CommitTime(v)
			if !ok {
				return false
			}
			// At its own commit instant, a version (or a later one that
			// committed at the same instant) is current.
			if m.VersionAt(ct) < v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistry(t *testing.T) {
	if _, err := NewRegistry(0); err == nil {
		t.Error("zero items accepted")
	}
	r, err := NewRegistry(50)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 50 {
		t.Errorf("Len = %d", r.Len())
	}
	if _, err := r.Master(50); err == nil {
		t.Error("out-of-range item accepted")
	}
	if _, err := r.Master(-1); err == nil {
		t.Error("negative item accepted")
	}
	m, err := r.Master(10)
	if err != nil {
		t.Fatal(err)
	}
	if m.Current().ID != 10 {
		t.Errorf("Master(10).ID = %v", m.Current().ID)
	}
	if r.Owner(10) != 10 || r.OwnedBy(10) != 10 {
		t.Error("identity ownership mapping broken")
	}
}

func TestItemIDString(t *testing.T) {
	if got := ItemID(17).String(); got != "D17" {
		t.Errorf("String = %q", got)
	}
}

func TestValueForMatchesSprintf(t *testing.T) {
	ids := []ItemID{math.MinInt64, -1, 0, 1, 17, math.MaxInt64}
	versions := []Version{0, 1, 9, 10, 1 << 32, math.MaxUint64 - 1, math.MaxUint64}
	for _, id := range ids {
		for _, v := range versions {
			want := fmt.Sprintf("item-%d-v%d", int(id), uint64(v))
			if got := ValueFor(id, v); got != want {
				t.Errorf("ValueFor(%d, %d) = %q, want %q", id, v, got, want)
			}
			if c := (Copy{ID: id, Version: v, Value: want}); !c.Consistent() {
				t.Errorf("Consistent() = false for %q", want)
			}
		}
	}
}

func TestConsistentDoesNotAllocate(t *testing.T) {
	good := Copy{ID: math.MinInt64, Version: math.MaxUint64, Value: ValueFor(math.MinInt64, math.MaxUint64)}
	torn := Copy{ID: 3, Version: 2, Value: ValueFor(3, 1)}
	var ok bool
	if n := testing.AllocsPerRun(100, func() { ok = good.Consistent() && !torn.Consistent() }); n != 0 {
		t.Fatalf("Consistent allocates %v times per call pair, want 0", n)
	}
	if !ok {
		t.Fatal("Consistent misjudged a good or a torn copy")
	}
}
