package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"hydrac/internal/task"
)

// resumeTestSet draws a small partitioned-RT set; same shape as the
// quick-check sets used elsewhere in the package.
func resumeTestSet(rng *rand.Rand) *task.Set {
	ts := &task.Set{Cores: 1 + rng.Intn(2)}
	nrt := 2 + rng.Intn(4)
	for i := 0; i < nrt; i++ {
		period := task.Time(16 + rng.Intn(60))
		ts.RT = append(ts.RT, task.RTTask{
			Name: "rt" + string(rune('a'+i)), WCET: 1 + task.Time(rng.Intn(4)),
			Period: period, Deadline: period, Core: rng.Intn(ts.Cores), Priority: i,
		})
	}
	nsec := 1 + rng.Intn(4)
	for i := 0; i < nsec; i++ {
		ts.Security = append(ts.Security, task.SecurityTask{
			Name: "sec" + string(rune('a'+i)), WCET: 1 + task.Time(rng.Intn(3)),
			MaxPeriod: task.Time(80 + rng.Intn(300)), Core: -1, Priority: i,
		})
	}
	return ts
}

// The resumable selector without hints must agree with SelectPeriodsCtx
// exactly, and with correct hints it must agree while verifying (not
// searching) every task.
func TestSelectPeriodsResumableMatchesCold(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	verified := 0
	for trial := 0; trial < 400; trial++ {
		ts := resumeTestSet(rng)
		if err := ts.Validate(); err != nil {
			continue
		}
		cold, err := SelectPeriodsCtx(ctx, ts, Options{})
		if err != nil {
			continue // RT band infeasible for this draw
		}
		warm, stats, err := SelectPeriodsResumable(ctx, ts, Options{}, nil)
		if err != nil {
			t.Fatalf("trial %d: resumable errored where cold succeeded: %v", trial, err)
		}
		if !reflect.DeepEqual(cold, warm) {
			t.Fatalf("trial %d: hintless resumable diverged from cold:\ncold %+v\nwarm %+v", trial, cold, warm)
		}
		if !cold.Schedulable {
			continue
		}
		if stats.Verified != 0 {
			t.Fatalf("trial %d: verified %d tasks without hints", trial, stats.Verified)
		}
		// Perfect hints: every task must verify in place.
		hints := &Hints{Periods: map[string]task.Time{}, RTVerified: true}
		for i, s := range ts.Security {
			hints.Periods[s.Name] = cold.Periods[i]
		}
		again, stats2, err := SelectPeriodsResumable(ctx, ts, Options{}, hints)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold, again) {
			t.Fatalf("trial %d: hinted resumable diverged from cold", trial)
		}
		if stats2.Searched != 0 {
			t.Fatalf("trial %d: %d searches despite perfect hints", trial, stats2.Searched)
		}
		verified += stats2.Verified
		// Wrong hints must be rejected by verification, not trusted.
		bad := &Hints{Periods: map[string]task.Time{}}
		for i, s := range ts.Security {
			bad.Periods[s.Name] = cold.Periods[i] + 1 + task.Time(rng.Intn(5))
		}
		fixed, _, err := SelectPeriodsResumable(ctx, ts, Options{}, bad)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold, fixed) {
			t.Fatalf("trial %d: wrong hints leaked into the result", trial)
		}
	}
	if verified == 0 {
		t.Fatal("no trial exercised the verification fast path")
	}
}

// Hints must be result-neutral for the linear-search ablation too.
func TestSelectPeriodsResumableLinearSearch(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		ts := resumeTestSet(rng)
		opt := Options{LinearSearch: true}
		cold, err := SelectPeriodsCtx(ctx, ts, opt)
		if err != nil {
			continue
		}
		warm, _, err := SelectPeriodsResumable(ctx, ts, opt, nil)
		if err != nil || !reflect.DeepEqual(cold, warm) {
			t.Fatalf("trial %d: linear resumable diverged (err %v)", trial, err)
		}
	}
}

// SkipOptimization pins periods at Tmax; the resumable path must take
// the identical shortcut.
func TestSelectPeriodsResumableSkipOptimization(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		ts := resumeTestSet(rng)
		opt := Options{SkipOptimization: true}
		cold, err := SelectPeriodsCtx(ctx, ts, opt)
		if err != nil {
			continue
		}
		warm, stats, err := SelectPeriodsResumable(ctx, ts, opt, &Hints{Periods: map[string]task.Time{"seca": 1}})
		if err != nil || !reflect.DeepEqual(cold, warm) {
			t.Fatalf("trial %d: SkipOptimization resumable diverged (err %v)", trial, err)
		}
		if stats.Verified+stats.Searched != 0 {
			t.Fatalf("trial %d: selection ran under SkipOptimization", trial)
		}
	}
}

// Regression for the MaxFixpointIterations backstop: when every
// core's interference clamp binds, the Eq. 7 recurrence creeps one
// tick per iteration for a span proportional to the WCETs in the
// window — with ~1e7-tick WCETs that is beyond the iteration budget,
// and before the cap it was an effective hang at 2^40 scale. The
// analysis must terminate promptly with a conservative unschedulable
// verdict instead.
func TestFixpointIterationCapTerminates(t *testing.T) {
	ts := &task.Set{
		Cores: 1,
		RT: []task.RTTask{
			{Name: "big", WCET: 10_000_000, Period: 1_000_000_000, Deadline: 1_000_000_000, Core: 0, Priority: 0},
		},
		Security: []task.SecurityTask{
			{Name: "huge", WCET: 100_000_000, MaxPeriod: 900_000_000, Core: -1, Priority: 0},
		},
	}
	res, err := SelectPeriods(ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedulable {
		t.Fatal("creep set accepted; the iteration cap should have fired conservatively")
	}
}

// A cold start seeded only with the periods of an earlier run — what
// restart recovery and handoff hand the engine — must verify every
// task without a search and return the cold Result bit for bit. Any
// perturbation of those hints (off by one, names swapped, names
// missing, periods outside [R, Tmax]) may cost searches but must
// return the same Result.
func TestHintOnlyColdStart(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2020))
	checked := 0
	for trial := 0; trial < 300; trial++ {
		ts := resumeTestSet(rng)
		// Grow the band past resumeTestSet's four monitors so most
		// verifications run with tasks below them.
		for i, want := len(ts.Security), 2+rng.Intn(7); i < want; i++ {
			ts.Security = append(ts.Security, task.SecurityTask{
				Name: "sec" + string(rune('a'+i)), WCET: 1 + task.Time(rng.Intn(3)),
				MaxPeriod: task.Time(150 + rng.Intn(600)), Core: -1, Priority: i,
			})
		}
		if err := ts.Validate(); err != nil {
			continue
		}
		cold, err := SelectPeriodsCtx(ctx, ts, Options{})
		if err != nil || !cold.Schedulable {
			continue
		}
		n := len(ts.Security)
		exact := map[string]task.Time{}
		for i, s := range ts.Security {
			exact[s.Name] = cold.Periods[i]
		}
		got, stats, err := SelectPeriodsResumable(ctx, ts, Options{}, &Hints{Periods: exact})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(cold, got) {
			t.Fatalf("trial %d: exact hints diverged from cold:\ncold %+v\ngot  %+v", trial, cold, got)
		}
		if stats.Verified != n || stats.Searched != 0 || stats.Adopted != 0 {
			t.Fatalf("trial %d: exact hints gave %+v, want Verified=%d Searched=0", trial, *stats, n)
		}
		checked++

		perturbed := map[string]map[string]task.Time{
			"plus-one":  {},
			"minus-one": {},
			"swapped":   {},
			"missing":   {},
			"outside":   {},
		}
		for i, s := range ts.Security {
			p := cold.Periods[i]
			perturbed["plus-one"][s.Name] = p + 1
			perturbed["minus-one"][s.Name] = p - 1
			perturbed["swapped"][ts.Security[(i+1)%n].Name] = p
			if i%2 == 1 {
				perturbed["missing"][s.Name] = p
			}
			if i%2 == 0 {
				perturbed["outside"][s.Name] = cold.Resp[i] - 1
			} else {
				perturbed["outside"][s.Name] = s.MaxPeriod + 1
			}
		}
		for name, hints := range perturbed {
			got, _, err := SelectPeriodsResumable(ctx, ts, Options{}, &Hints{Periods: hints})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if !reflect.DeepEqual(cold, got) {
				t.Fatalf("trial %d: %s hints changed the result:\ncold %+v\ngot  %+v", trial, name, cold, got)
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d schedulable trials; the generator no longer exercises hint-only starts", checked)
	}
}
