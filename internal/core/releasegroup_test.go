package core

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"rtpb/internal/netsim"
)

// Release groups (startUpdateTask): a new normal-scheduling update task
// joins the open group for its period, first releasing at the group's
// next instant, so same-period updates are queued together and leave in
// one frame. These tests pin the rule on the simulated clock, where every
// instant is exact.

// groupSlack bounds how far behind its release instant a first send may
// land: the drain chain pays a microsecond per slot.
const groupSlack = 200 * time.Microsecond

// groupCluster is a pair whose primary charges ~1µs per operation, so a
// first send marks its task's first release.
func groupCluster(t *testing.T, mutate func(*Config)) *testCluster {
	t.Helper()
	return newTestCluster(t, clusterOpts{
		seed: 3,
		link: netsim.LinkParams{Delay: ms(1)},
		mutateP: func(cfg *Config) {
			cfg.Costs = CostModel{ClientOp: time.Microsecond, UpdateSend: time.Microsecond}
			if mutate != nil {
				mutate(cfg)
			}
		},
	})
}

// groupRun registers objects on c's primary and records each one's
// registration instant, admitted period, and first update send.
type groupRun struct {
	c      *testCluster
	reg    map[string]time.Time
	period map[string]time.Duration
	first  map[string]time.Time
}

func newGroupRun(c *testCluster) *groupRun {
	g := &groupRun{c: c, reg: map[string]time.Time{}, period: map[string]time.Duration{}, first: map[string]time.Time{}}
	c.primary.OnSend = func(_ uint32, name string, _ uint64, _ time.Time) {
		if _, ok := g.first[name]; !ok {
			g.first[name] = c.clk.Now()
		}
	}
	return g
}

// register admits one object now and writes it, so its first release
// has data to send.
func (g *groupRun) register(t *testing.T, name string) {
	t.Helper()
	d := g.c.primary.Register(spec(name, ms(40), ms(50), ms(200)))
	if !d.Accepted {
		t.Fatalf("%s rejected: %s", name, d.Reason)
	}
	g.reg[name], g.period[name] = g.c.clk.Now(), d.UpdatePeriod
	g.c.primary.ClientWrite(name, []byte(name), nil)
}

// firstRelease returns name's first send, failing unless it lies within
// one period of the registration.
func (g *groupRun) firstRelease(t *testing.T, name string) time.Time {
	t.Helper()
	at, ok := g.first[name]
	if !ok {
		t.Fatalf("%s was never sent", name)
	}
	if d := at.Sub(g.reg[name]); d <= 0 || d > g.period[name]+groupSlack {
		t.Fatalf("%s first sent %v after registration, want within one period %v", name, d, g.period[name])
	}
	return at
}

// within reports whether at lies in [want, want+groupSlack].
func within(at, want time.Time) bool {
	return !at.Before(want) && at.Sub(want) <= groupSlack
}

func TestReleaseGroupsSameInstantStartOnePeriodOut(t *testing.T) {
	c := groupCluster(t, nil)
	g := newGroupRun(c)
	// More objects than one group holds: the overflow opens a second
	// group at the same instant, as the one-period-out rule would.
	const objects = 20
	t0 := c.clk.Now()
	for i := range objects {
		g.register(t, fmt.Sprintf("o%02d", i))
	}
	c.clk.RunFor(200 * time.Millisecond)
	for name, r := range g.period {
		if at := g.firstRelease(t, name); !within(at, t0.Add(r)) {
			t.Errorf("%s first sent at +%v, want t₀+r = +%v", name, at.Sub(t0), r)
		}
	}
}

func TestReleaseGroupLateRegistrationJoinsOpenGroup(t *testing.T) {
	c := groupCluster(t, nil)
	g := newGroupRun(c)
	t0 := c.clk.Now()
	g.register(t, "a")
	r := g.period["a"]
	c.clk.RunFor(r / 3)
	g.register(t, "b") // before the group's first release
	c.clk.RunFor(r + r/6)
	g.register(t, "c") // between the group's first and second release
	c.clk.RunFor(3 * r)

	for name, want := range map[string]time.Time{
		"a": t0.Add(r),
		"b": t0.Add(r),
		"c": t0.Add(2 * r),
	} {
		if at := g.firstRelease(t, name); !within(at, want) {
			t.Errorf("%s first sent at +%v, want the group's release at +%v", name, at.Sub(t0), want.Sub(t0))
		}
	}
}

func TestReleaseGroupSizeCapped(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		limit  int
	}{
		{"FrameBatch=4", func(c *Config) { c.FrameBatch = 4 }, 4},
		{"SendQueueLimit=3", func(c *Config) { c.SendQueueLimit = 3 }, 3},
		{"defaults", nil, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := groupCluster(t, tc.mutate)
			g := newGroupRun(c)
			const objects = 40
			g.register(t, "o00")
			step := g.period["o00"] / 64
			for i := 1; i < objects; i++ {
				c.clk.RunFor(step)
				g.register(t, fmt.Sprintf("o%02d", i))
			}
			c.clk.RunFor(3 * g.period["o00"])

			// Group the objects by first release: releases of different
			// groups lie at least one registration step apart.
			var firsts []time.Time
			for name := range g.reg {
				firsts = append(firsts, g.firstRelease(t, name))
			}
			sort.Slice(firsts, func(i, j int) bool { return firsts[i].Before(firsts[j]) })
			var sizes []int
			for i, at := range firsts {
				if i == 0 || at.Sub(firsts[i-1]) > groupSlack {
					sizes = append(sizes, 0)
				}
				sizes[len(sizes)-1]++
			}
			if want := (objects + tc.limit - 1) / tc.limit; len(sizes) != want {
				t.Fatalf("%d release groups %v, want %d of at most %d", len(sizes), sizes, want, tc.limit)
			}
			for _, n := range sizes {
				if n > tc.limit {
					t.Fatalf("release group sizes %v exceed min(FrameBatch, SendQueueLimit) = %d", sizes, tc.limit)
				}
			}
		})
	}
}

func TestReleaseGroupsOffStartOnePeriodOut(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"FrameBatch=1", func(c *Config) { c.FrameBatch = 1 }},
		{"UnboundedSendQueue", func(c *Config) { c.SendQueueLimit = UnboundedSendQueue }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := groupCluster(t, tc.mutate)
			g := newGroupRun(c)
			for i := range 8 {
				g.register(t, fmt.Sprintf("o%d", i))
				c.clk.RunFor(3 * time.Millisecond)
			}
			c.clk.RunFor(200 * time.Millisecond)
			for name, reg := range g.reg {
				if at := g.firstRelease(t, name); !within(at, reg.Add(g.period[name])) {
					t.Errorf("%s first sent %v after registration, want one period %v", name, at.Sub(reg), g.period[name])
				}
			}
		})
	}
}

// TestReleaseGroupsSpreadAcrossPeriod registers objects one by one in a
// burst lasting a sixteenth of their period, so every full group is
// replaced at a later instant than it opened. The groups must still
// spread over the period: k groups' phases at least period/(2k) apart,
// with every first release within one period of its registration.
func TestReleaseGroupsSpreadAcrossPeriod(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(*Config)
		objects int
	}{
		{"defaults", nil, 64},
		{"FrameBatch=4", func(c *Config) { c.FrameBatch = 4 }, 40},
		{"SendQueueLimit=3", func(c *Config) { c.SendQueueLimit = 3 }, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := groupCluster(t, tc.mutate)
			g := newGroupRun(c)
			g.register(t, "o00")
			r := g.period["o00"]
			for i := 1; i < tc.objects; i++ {
				c.clk.RunFor(r / time.Duration(16*tc.objects))
				g.register(t, fmt.Sprintf("o%02d", i))
			}
			groups := c.primary.groups[r]
			c.clk.RunFor(2 * r)
			for name := range g.reg {
				g.firstRelease(t, name)
			}

			phases := make([]time.Duration, len(groups))
			for i, grp := range groups {
				phases[i] = (grp.anchor.Sub(groups[0].anchor)%r + r) % r
			}
			sort.Slice(phases, func(i, j int) bool { return phases[i] < phases[j] })
			minGap := r - phases[len(phases)-1] + phases[0]
			for i := 1; i < len(phases); i++ {
				minGap = min(minGap, phases[i]-phases[i-1])
			}
			if want := r / time.Duration(2*len(groups)); minGap < want {
				t.Fatalf("%d groups with phases %v: closest two %v apart, want ≥ period/(2·groups) = %v",
					len(groups), phases, minGap, want)
			}
		})
	}
}
