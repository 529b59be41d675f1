package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"
	"time"

	"rtpb/internal/netsim"
	"rtpb/internal/temporal"
	"rtpb/internal/xkernel"
)

// The admission ledger keeps Σ utilization and the task count as objects
// enter, change and leave the table, so the RM-bound and EDF tests never
// rebuild the task set. These tests hold it to the task set it stands
// for.

// checkLedger fails unless a's ledger and id index agree with its table:
// the ledger sums what taskSet would build, and the utilization tests give
// the task-set tests' verdicts with and without the probe candidate.
func checkLedger(t *testing.T, where string, a *admission, probe *object) {
	t.Helper()
	ts := a.taskSet()
	want, got := ts.Utilization(), a.utilization()
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("%s: ledger utilization %.17g, task set %.17g", where, got, want)
	}
	if a.ledger.tasks != len(ts) {
		t.Fatalf("%s: ledger counts %d tasks, task set has %d", where, a.ledger.tasks, len(ts))
	}
	if f, ref := a.fits(nil), a.cfg.SchedTest.feasible(ts); f != ref {
		t.Fatalf("%s: resident set fits=%v, task-set test %v", where, f, ref)
	}
	if f, ref := a.fits(probe), a.cfg.SchedTest.feasible(a.taskSet(probe)); f != ref {
		t.Fatalf("%s: probe fits=%v, task-set test %v", where, f, ref)
	}
	ids := slices.Sorted(maps.Keys(a.objects))
	if len(ids) != len(a.order) {
		t.Fatalf("%s: index holds %d objects, table %d", where, len(a.order), len(ids))
	}
	for i, o := range a.order {
		if o.id != ids[i] || a.objects[o.id] != o {
			t.Fatalf("%s: index position %d holds id %d, want %d", where, i, o.id, ids[i])
		}
	}
}

// candidate derives the object admit would test for s.
func candidate(a *admission, s ObjectSpec) *object {
	o := &object{spec: s}
	o.updatePeriod = a.effectivePeriod(a.externalPeriod(s.Constraint), nil)
	return o
}

// TestAdmissionLedgerMatchesTaskSet drives random sequences of Register,
// RemoveObject, RegisterInterObject and Promote (with the old primary
// demoted to back up the new one) and, after every step, holds both
// replicas' ledgers to their task sets and every registration decision
// to the task-set test's.
func TestAdmissionLedgerMatchesTaskSet(t *testing.T) {
	for _, tc := range []struct {
		name string
		test SchedTest
	}{{"RMBound", SchedTestRMBound}, {"EDF", SchedTestEDF}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := propRand(1400 + int64(tc.test))
			set := func(cfg *Config) { cfg.SchedTest = tc.test }
			c := newTestCluster(t, clusterOpts{seed: 14, link: netsim.LinkParams{Delay: ms(1)}, mutateP: set, mutateB: set})
			p, b := c.primary, c.backup
			pAddr, bAddr := c.pEP.LocalAddr(), c.bEP.LocalAddr()
			epoch := uint32(1)
			next, accepted, rejected, promotions := 0, 0, 0, 0
			randSpec := func() ObjectSpec {
				period := ms(10 + rng.Intn(90))
				deltaP := period + ms(rng.Intn(20))
				s := spec(fmt.Sprintf("o%03d", next), period, deltaP, deltaP+ms(20+rng.Intn(300)))
				s.Size = rng.Intn(2048)
				s.Critical = rng.Intn(8) == 0
				next++
				return s
			}
			for step := range 600 {
				names := slices.Sorted(maps.Keys(p.adm.byName))
				switch op := rng.Intn(20); {
				case op < 10 || len(names) < 2:
					s := randSpec()
					want := p.adm.cfg.SchedTest.feasible(p.adm.taskSet(candidate(p.adm, s)))
					if d := p.Register(s); d.Accepted != want {
						t.Fatalf("step %d: Register(%s) accepted=%v (%s), task-set test %v", step, s.Name, d.Accepted, d.Reason, want)
					} else if d.Accepted {
						accepted++
					} else {
						rejected++
					}
				case op < 15:
					_ = p.RemoveObject(names[rng.Intn(len(names))]) // ErrConstrained is fine
				case op < 19:
					i, j := rng.Intn(len(names)), rng.Intn(len(names))
					if i == j {
						continue
					}
					d, _ := p.RegisterInterObject(temporal.InterObjectConstraint{
						I: names[i], J: names[j], Delta: ms(40 + rng.Intn(200)),
					})
					if d.Accepted && !p.adm.cfg.SchedTest.feasible(p.adm.taskSet()) {
						t.Fatalf("step %d: inter-object constraint accepted into an unschedulable set", step)
					}
				default:
					// Fail over: the backup promotes in place and the old
					// primary rejoins as its backup.
					c.clk.RunFor(50 * time.Millisecond)
					epoch++
					if err := b.Promote(epoch); err != nil {
						t.Fatalf("step %d: promote: %v", step, err)
					}
					if err := p.Demote(epoch, xkernel.Addr(bAddr+":7000")); err != nil {
						t.Fatalf("step %d: demote: %v", step, err)
					}
					if err := b.AddPeer(xkernel.Addr(pAddr + ":7000")); err != nil {
						t.Fatalf("step %d: add peer: %v", step, err)
					}
					p, b = b, p
					pAddr, bAddr = bAddr, pAddr
					promotions++
				}
				c.clk.RunFor(2 * time.Millisecond)
				probe := candidate(p.adm, randSpec())
				checkLedger(t, fmt.Sprintf("step %d primary", step), p.adm, probe)
				checkLedger(t, fmt.Sprintf("step %d backup", step), b.adm, probe)
			}
			if accepted < 20 || rejected < 20 || promotions < 5 {
				t.Fatalf("%d accepted, %d rejected, %d promotions: the sequence missed the admission edge", accepted, rejected, promotions)
			}
		})
	}
}

// TestAdmissionDCSLedgerFollowsRespecialization checks the ledger under
// the DCS test, whose admissions and removals re-specialize every
// object's update period.
func TestAdmissionDCSLedgerFollowsRespecialization(t *testing.T) {
	cfg := testConfig()
	cfg.SchedTest = SchedTestDCS
	a := newAdmission(cfg)
	rng := propRand(1401)
	for i := range 60 {
		period := ms(10 + rng.Intn(90))
		s := spec(fmt.Sprintf("o%02d", i), period, period+ms(5), period+ms(40+rng.Intn(200)))
		a.admit(s)
		if i%3 == 2 {
			_, _ = a.remove(fmt.Sprintf("o%02d", i-1))
		}
		checkLedger(t, fmt.Sprintf("step %d", i), a, candidate(a, s))
	}
}

// TestAdmitAllocsConstant is the allocation wall for registration:
// admitting into a 512-object table, and the utilization read, must not
// scale with the table.
func TestAdmitAllocsConstant(t *testing.T) {
	cfg := testConfig()
	cfg.Costs = CostModel{ClientOp: time.Nanosecond, UpdateSend: time.Nanosecond}
	a := newAdmission(cfg)
	for i := range 512 {
		if _, d := a.admit(spec(fmt.Sprintf("o%03d", i), ms(40), ms(50), ms(200))); !d.Accepted {
			t.Fatalf("o%03d rejected: %s", i, d.Reason)
		}
	}
	s := spec("extra", ms(40), ms(50), ms(200))
	allocs := testing.AllocsPerRun(100, func() {
		if _, d := a.admit(s); !d.Accepted {
			t.Fatalf("rejected: %s", d.Reason)
		}
		if _, err := a.remove(s.Name); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("admit+remove in a 512-object table allocates %.0f times, want ≤ 4", allocs)
	}
	if n := testing.AllocsPerRun(100, func() { _ = a.utilization() }); n != 0 {
		t.Fatalf("utilization allocates %.0f times, want 0", n)
	}
}
