package admit

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"hydrac/internal/core"
	"hydrac/internal/partition"
	"hydrac/internal/task"
)

func baseSet() *task.Set {
	return &task.Set{
		Cores: 2,
		RT: []task.RTTask{
			{Name: "rt0", WCET: 2, Period: 20, Deadline: 20, Core: 0, Priority: 0},
			{Name: "rt1", WCET: 3, Period: 30, Deadline: 30, Core: 1, Priority: 1},
			{Name: "rt2", WCET: 4, Period: 40, Deadline: 40, Core: 0, Priority: 2},
		},
		Security: []task.SecurityTask{
			{Name: "sec0", WCET: 2, MaxPeriod: 200, Core: -1, Priority: 0},
			{Name: "sec1", WCET: 3, MaxPeriod: 400, Core: -1, Priority: 1},
		},
	}
}

// coldResult is the reference: a from-scratch Algorithm 1 run over the
// engine's committed (placed) state.
func coldResult(t *testing.T, ts *task.Set) *core.Result {
	t.Helper()
	res, err := core.SelectPeriods(ts, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEngineBaseMatchesCold(t *testing.T) {
	eng, out, err := New(context.Background(), baseSet(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Admitted || !out.Result.Schedulable {
		t.Fatalf("base not admitted: %+v", out)
	}
	if !reflect.DeepEqual(out.Result, coldResult(t, eng.Snapshot())) {
		t.Fatal("base analysis diverged from cold")
	}
	if !out.Stats.FullSelection {
		t.Error("base analysis should have no hints")
	}
}

// Config.Hints seed the base analysis: exact ones are all verified,
// wrong ones searched, and the outcome is the cold one either way.
// The hook then hands the committed periods over aligned with the
// committed set.
func TestEngineSeedHints(t *testing.T) {
	ctx := context.Background()
	cold := coldResult(t, baseSet())
	exact, wrong := map[string]task.Time{}, map[string]task.Time{}
	for i, s := range baseSet().Security {
		exact[s.Name], wrong[s.Name] = cold.Periods[i], cold.Periods[i]+1
	}
	for name, hints := range map[string]map[string]task.Time{"exact": exact, "wrong": wrong} {
		eng, out, err := New(ctx, baseSet(), Config{Hints: hints})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out.Result, cold) {
			t.Fatalf("%s hints: base analysis diverged from cold", name)
		}
		sel := out.Stats.Selection
		if name == "exact" && (sel.Verified != len(exact) || sel.Searched != 0) {
			t.Fatalf("exact hints: %+v, want every task verified", sel)
		}
		if name == "wrong" && sel.Verified != 0 {
			t.Fatalf("wrong hints: %+v, want no task verified", sel)
		}
		var hooked []task.Time
		eng.SetOnCommit(func(_ task.Delta, state *task.Set, _ int, periods []task.Time) error {
			if len(periods) != len(state.Security) {
				t.Fatalf("hook periods %v not aligned with %d security tasks", periods, len(state.Security))
			}
			hooked = append([]task.Time(nil), periods...)
			return nil
		})
		out, err = eng.Apply(ctx, task.Delta{Remove: []string{"sec1"}})
		if err != nil || !out.Admitted {
			t.Fatalf("remove: %+v %v", out, err)
		}
		if !reflect.DeepEqual(hooked, out.Result.Periods) {
			t.Fatalf("hook saw periods %v, committed %v", hooked, out.Result.Periods)
		}
	}
}

func TestEngineAdmitSecurityMatchesCold(t *testing.T) {
	eng, _, err := New(context.Background(), baseSet(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.Apply(context.Background(), task.Delta{
		AddSecurity: []task.SecurityTask{{Name: "sec2", WCET: 1, MaxPeriod: 300, Core: -1, Priority: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Admitted {
		t.Fatal("schedulable admission denied")
	}
	if !reflect.DeepEqual(out.Result, coldResult(t, out.Set)) {
		t.Fatal("incremental admission diverged from cold analysis of the final set")
	}
	if out.Stats.FullSelection {
		t.Error("second analysis should warm-start from hints")
	}
	if out.Stats.CoresFromCache != 2 {
		t.Errorf("RT cores unchanged by a security delta: %d from cache, want 2", out.Stats.CoresFromCache)
	}
	if out.Stats.Selection.Verified == 0 && out.Stats.Selection.Adopted == 0 {
		t.Error("no task verified or adopted in place despite unchanged prefix")
	}
}

func TestEngineAdmitRTPlacesAndMatchesCold(t *testing.T) {
	eng, _, err := New(context.Background(), baseSet(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.Apply(context.Background(), task.Delta{
		AddRT: []task.RTTask{{Name: "rt3", WCET: 2, Period: 25, Deadline: 25, Core: -1, Priority: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Admitted {
		t.Fatal("RT admission denied")
	}
	placed := out.Set.RT[len(out.Set.RT)-1]
	if placed.Name != "rt3" || placed.Core < 0 {
		t.Fatalf("rt3 not placed: %+v", placed)
	}
	if !reflect.DeepEqual(out.Result, coldResult(t, out.Set)) {
		t.Fatal("incremental RT admission diverged from cold")
	}
	// Best-fit: core 0 carries 2/20+4/40 = 0.2, core 1 carries 0.1;
	// rt3 fits both, so best-fit picks the fuller core 0.
	if placed.Core != 0 {
		t.Errorf("best-fit placed rt3 on core %d, want 0", placed.Core)
	}
	// Exactly one core changed; the other is served from the memo.
	if out.Stats.CoresChecked != 1 || out.Stats.CoresFromCache != 1 {
		t.Errorf("stats = %+v, want 1 checked / 1 cached", out.Stats)
	}
}

func TestEngineDeniesUnschedulableAdmission(t *testing.T) {
	eng, _, err := New(context.Background(), baseSet(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Snapshot()
	hooked := false
	eng.SetOnCommit(func(task.Delta, *task.Set, int, []task.Time) error {
		hooked = true
		return nil
	})
	// A security task whose WCET swamps both cores cannot be admitted.
	out, err := eng.Apply(context.Background(), task.Delta{
		AddSecurity: []task.SecurityTask{{Name: "hog", WCET: 190, MaxPeriod: 200, Core: -1, Priority: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Admitted || out.Result.Schedulable {
		t.Fatal("unschedulable admission committed")
	}
	if before.Hash() != eng.Snapshot().Hash() {
		t.Fatal("denied delta mutated the engine state")
	}
	if hooked {
		t.Fatal("commit hook called for a denied delta")
	}
	// The engine must still admit afterwards (hints survived).
	out2, err := eng.Apply(context.Background(), task.Delta{
		AddSecurity: []task.SecurityTask{{Name: "light", WCET: 1, MaxPeriod: 300, Core: -1, Priority: 2}},
	})
	if err != nil || !out2.Admitted {
		t.Fatalf("engine wedged after a denial: %+v, %v", out2, err)
	}
}

func TestEngineRemoveUnknownName(t *testing.T) {
	eng, _, err := New(context.Background(), baseSet(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(context.Background(), task.Delta{Remove: []string{"ghost"}}); err == nil {
		t.Fatal("removing an unknown task succeeded")
	} else if !strings.Contains(err.Error(), "ghost") {
		t.Errorf("error %q does not name the missing task", err)
	}
}

func TestEngineRemoveThenReAddRoundTrips(t *testing.T) {
	eng, first, err := New(context.Background(), baseSet(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(context.Background(), task.Delta{Remove: []string{"sec1"}}); err != nil {
		t.Fatal(err)
	}
	out, err := eng.Apply(context.Background(), task.Delta{
		AddSecurity: []task.SecurityTask{{Name: "sec1", WCET: 3, MaxPeriod: 400, Core: -1, Priority: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Same membership, but sec1 now sits at the end of the Security
	// slice: periods must match the original per task name.
	resByName := map[string]task.Time{}
	for i, s := range out.Set.Security {
		resByName[s.Name] = out.Result.Periods[i]
	}
	for i, s := range baseSet().Security {
		if resByName[s.Name] != first.Result.Periods[i] {
			t.Errorf("%s: period %d after round trip, want %d", s.Name, resByName[s.Name], first.Result.Periods[i])
		}
	}
	if !reflect.DeepEqual(out.Result, coldResult(t, out.Set)) {
		t.Fatal("round-tripped state diverged from cold")
	}
}

func TestEngineRemovalOnlyCommitsFromUnschedulableBase(t *testing.T) {
	base := baseSet()
	// Swamp the security band: unschedulable at Tmax, but the base is
	// the running system and must be representable.
	base.Security = append(base.Security, task.SecurityTask{Name: "hog", WCET: 190, MaxPeriod: 200, Core: -1, Priority: 2})
	eng, out, err := New(context.Background(), base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Schedulable {
		t.Fatal("swamped base should be unschedulable")
	}
	// Removing the hog must commit and restore schedulability.
	out2, err := eng.Apply(context.Background(), task.Delta{Remove: []string{"hog"}})
	if err != nil {
		t.Fatal(err)
	}
	if !out2.Admitted || !out2.Result.Schedulable {
		t.Fatalf("removal-only delta denied from unschedulable base: %+v", out2)
	}
	if !out2.Stats.FullSelection {
		t.Error("no hints should exist after an unschedulable commit")
	}
	if !reflect.DeepEqual(out2.Result, coldResult(t, out2.Set)) {
		t.Fatal("recovery diverged from cold")
	}
}

func TestEngineRTInfeasibleDeltaErrors(t *testing.T) {
	eng, _, err := New(context.Background(), baseSet(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Snapshot()
	// WCET 30 of period 30 on every core: no placement keeps Eq. 1.
	_, err = eng.Apply(context.Background(), task.Delta{
		AddRT: []task.RTTask{{Name: "brick", WCET: 30, Period: 30, Deadline: 30, Core: -1, Priority: 9}},
	})
	if err == nil {
		t.Fatal("infeasible RT admission succeeded")
	}
	if before.Hash() != eng.Snapshot().Hash() {
		t.Fatal("failed delta mutated the engine state")
	}
}

func TestEngineUnassignedBaseIsPartitioned(t *testing.T) {
	base := baseSet()
	for i := range base.RT {
		base.RT[i].Core = -1
	}
	eng, out, err := New(context.Background(), base, Config{Heuristic: partition.BestFit})
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range eng.Snapshot().RT {
		if rt.Core < 0 {
			t.Fatalf("task %s left unplaced", rt.Name)
		}
	}
	if !reflect.DeepEqual(out.Result, coldResult(t, eng.Snapshot())) {
		t.Fatal("partitioned base diverged from cold")
	}
}

func TestEngineMixedBaseRejected(t *testing.T) {
	base := baseSet()
	base.RT[0].Core = -1
	if _, _, err := New(context.Background(), base, Config{}); err == nil {
		t.Fatal("mixed pinned/unassigned base accepted")
	}
}

func TestEngineReplayDeterminism(t *testing.T) {
	ctx := context.Background()
	eng, _, err := New(ctx, baseSet(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var committed []task.Delta
	eng.SetOnCommit(func(d task.Delta, _ *task.Set, _ int, _ []task.Time) error {
		committed = append(committed, d)
		return nil
	})
	deltas := []task.Delta{
		{AddSecurity: []task.SecurityTask{{Name: "s2", WCET: 1, MaxPeriod: 250, Core: -1, Priority: 2}}},
		{AddRT: []task.RTTask{{Name: "rt3", WCET: 1, Period: 15, Deadline: 15, Core: -1, Priority: 3}}},
		{Remove: []string{"sec0"}},
		{Remove: []string{"rt3"}, AddSecurity: []task.SecurityTask{{Name: "s3", WCET: 2, MaxPeriod: 500, Core: -1, Priority: 5}}},
	}
	for _, d := range deltas {
		if _, err := eng.Apply(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	replay, _, err := New(ctx, baseSet(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range committed {
		if _, err := replay.Apply(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Snapshot().Hash() != replay.Snapshot().Hash() {
		t.Fatal("serial replay of the committed log diverged")
	}
}
