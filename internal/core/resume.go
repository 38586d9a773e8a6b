package core

import (
	"context"
	"fmt"

	"hydrac/internal/task"
)

// Hints carries state from a previous period-selection run so a
// near-identical set — the common case for a live admission session,
// where successive requests differ by one or two tasks — can be
// re-analysed in O(verification) instead of O(search).
//
// Hints never change the result. The previous period of a task is
// used only as a candidate: it is kept iff the analysis proves, in the
// NEW set's context, that it is exactly the value Algorithm 2's search
// would return (feasible, and either at the lower bound or with an
// infeasible predecessor — the definition of the least feasible
// period under the monotone-feasibility assumption the binary search
// itself rests on). A candidate that fails verification falls back to
// the full search for that task; a missing candidate always searches.
//
// Verification probes minimality first: cand−1 must be infeasible
// (skipped when cand is the lower bound), then cand must be feasible.
// Either order computes the same conjunction of the same two verdicts,
// but with the feasible probe last, its captured response vector is
// the state after the fix (probeFrom == i, probeCand == cand). The
// line-8 refresh folds that capture in, so the tasks below start from
// near-final responses instead of re-climbing from all-Tmax ones. A
// set verified end to end from exact Periods — restart recovery from
// a snapshot's stored periods — therefore costs about two warm probes
// per task.
type Hints struct {
	// Periods maps security-task name → previously selected period.
	Periods map[string]task.Time
	// RTVerified tells the selector the caller has already established
	// RT-band feasibility (Eq. 1 on every core) for this exact set, so
	// the per-core RTA screen can be skipped. The incremental engine
	// sets it after its memoized per-core check.
	RTVerified bool
	// Prior, when set, is the exact output of a previous SCHEDULABLE
	// selection the caller certifies (see Prior). Unlike Periods, which
	// is advisory (verified per task, never trusted), Prior is a trust
	// declaration in the RTVerified mold: the selector adopts the
	// longest provably-unaffected priority prefix of the previous
	// result without re-verifying it, which is what makes a small delta
	// cost o(n) instead of O(n²) probe work. A caller that cannot meet
	// Prior's contract must leave it nil.
	Prior *Prior
}

// Prior is the previous selection's result in priority order, plus the
// implicit certification that lets the resumable path adopt its
// unchanged prefix outright. Supplying it asserts all of:
//
//   - Sec/Periods/Resp are the bit-exact output of a SelectPeriods*
//     run that returned Schedulable == true, with Sec in the
//     SecurityByPriority order of that run's set and Periods/Resp
//     aligned to it;
//   - that run analysed a set whose RT band — members, parameters and
//     core placement — is identical to the current set's;
//   - that run used the same Options (CarryIn mode in particular).
//
// Under that contract the adopted result is bit-identical to a cold
// run; see adoptablePrefix for the argument. The admission engine is
// the intended caller: it certifies its own committed output.
type Prior struct {
	// Sec is the previous set's security band in priority order.
	Sec []task.SecurityTask
	// Periods and Resp are the previous result per level of Sec.
	Periods, Resp []task.Time
}

// ResumeStats reports how much prior state a resumable selection
// reused; tests and the admission engine's metrics read it.
type ResumeStats struct {
	// Verified counts tasks whose hinted period was proven minimal
	// with at most two feasibility probes.
	Verified int
	// Searched counts tasks that ran the full Algorithm 2 search.
	Searched int
	// Adopted counts the leading priority levels taken verbatim from
	// Hints.Prior without any probing (the trusted-prefix fast path).
	Adopted int
}

// SelectPeriodsResumable is SelectPeriodsCtx with warm-start hints:
// identical results, bit for bit, with most of the per-task period
// searches replaced by two-probe verifications when the hints match
// (minimality probe first, so the feasible probe's capture becomes
// the line-8 state; see Hints).
//
// It also reuses the response-time state Algorithm 1 threads through
// its loop instead of recomputing every lower task after each fix
// (line 8): a task's final WCRT depends only on the finalized periods
// and response times ABOVE it, so resp[i] is computed once, right
// before task i's own search, from the already-final prefix. This is
// the same least fixed point recomputeBelow arrives at — recomputeBelow
// just recomputes it (n−i) times more often — and the differential
// oracle corpus (internal/oracle) pins the equivalence.
func SelectPeriodsResumable(ctx context.Context, ts *task.Set, opt Options, hints *Hints) (*Result, *ResumeStats, error) {
	sc := DefaultScratchPool.Get(nil, SizeHint(ts))
	defer DefaultScratchPool.Put(sc)
	return SelectPeriodsResumableWith(ctx, ts, opt, hints, sc)
}

// SelectPeriodsResumableWith is SelectPeriodsResumable with a
// caller-owned Scratch: a long-lived owner (the admission engine)
// re-primes one workspace per analysis instead of reallocating the
// kernel buffers on every delta. The scratch must not be shared
// across goroutines; results are identical to the scratch-free form.
func SelectPeriodsResumableWith(ctx context.Context, ts *task.Set, opt Options, hints *Hints, sc *Scratch) (*Result, *ResumeStats, error) {
	stats := &ResumeStats{}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if err := ts.Validate(); err != nil {
		return nil, nil, err
	}
	for _, t := range ts.RT {
		if t.Core < 0 {
			return nil, nil, fmt.Errorf("RT task %s is not partitioned; run partition.Assign first", t.Name)
		}
	}
	if hints == nil {
		hints = &Hints{}
	}
	if !hints.RTVerified && !setSchedulable(ts, opt.AnalysisWorkers) {
		return nil, nil, fmt.Errorf("RT band is not schedulable under Eq. 1; HYDRA-C requires a feasible legacy system")
	}

	sys := NewSystem(ts)
	sec := ts.SecurityByPriority()
	n := len(sec)
	if n == 0 {
		return &Result{Schedulable: true, Periods: []task.Time{}, Resp: []task.Time{}}, stats, nil
	}

	sc.Reset(sys)
	sc.ensure(n)

	// Line 1: every period at Tmax.
	periods := sc.periods[:0]
	for _, s := range sec {
		periods = append(periods, s.MaxPeriod)
	}
	sc.periods = periods

	// Trusted-prefix fast path: when the caller certifies the previous
	// run's output (Hints.Prior) and the leading priority levels are
	// provably unaffected by the delta, adopt their periods and
	// response times outright and start the real work at the first
	// changed level. This is what makes a tail-local delta on a
	// thousand-task band cost o(n) instead of O(n²) probe work.
	adopt := 0
	if pr := hints.Prior; pr != nil && !opt.SkipOptimization && opt.CarryIn == Dominance {
		adopt = adoptablePrefix(sc, sec, pr)
	}
	stats.Adopted = adopt

	var resp []task.Time
	if adopt > 0 {
		pr := hints.Prior
		resp = sc.resp[:0]
		for i := 0; i < adopt; i++ {
			periods[i] = pr.Periods[i]
			resp = append(resp, pr.Resp[i])
		}
		resp = resp[:n]
		sc.resp = resp
		// Lines 2–4, prefix-adopted form: the all-Tmax screen reduces
		// to the suffix under the chain (prefix final, suffix Tmax).
		// Equivalence: a prefix task's Tmax-feasibility depends only on
		// the (identical) levels above it, so it cannot have changed;
		// a suffix task infeasible at all-Tmax is infeasible under the
		// tighter adopted chain too (periods only shrank); and a suffix
		// task feasible at all-Tmax is feasible under the adopted chain,
		// because the cold run would fix the same prefix (adoption's own
		// guarantee) while its searches maintain exactly that
		// feasibility invariant. The computed values are also the resp
		// state the cold loop would hold when reaching level `adopt`.
		suffixRespAtTmax(sc, sec, periods, resp, adopt, opt.CarryIn)
		for i := adopt; i < n; i++ {
			if resp[i] > sec[i].MaxPeriod {
				return &Result{Schedulable: false}, stats, nil
			}
		}
	} else {
		// Lines 2–4: if any task misses even at Tmax, the set is
		// unschedulable within the designer bounds.
		resp = sc.responseTimes(sec, periods, opt.CarryIn, sc.resp)
		sc.resp = resp
		for i, s := range sec {
			if resp[i] > s.MaxPeriod {
				return &Result{Schedulable: false}, stats, nil
			}
		}
	}

	if !opt.SkipOptimization {
		// Lines 5–9, resumable form. hp accumulates the finalized
		// interferer prefix (on its own buffer — the probe helpers
		// below reuse sc.hp); resp[i] is recomputed from it once per
		// task (it cannot depend on the unfixed periods below, nor on
		// the task's own period).
		hp := sc.hpOuter[:0]
		for k := 0; k < adopt; k++ {
			hp = append(hp, Interferer{WCET: sec[k].WCET, Period: periods[k], Resp: resp[k]})
		}
		for i := adopt; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			if i > 0 {
				cs, limit := sec[i].WCET, sec[i].MaxPeriod
				var r, rt, nc, ck task.Time
				var ok bool
				if opt.CarryIn == Dominance && cs <= limit && limit-cs < MaxFixpointIterations {
					// The incremental shiftFix calls below keep the
					// component caches coherent with the stored chain
					// (empty chg: no perturbation beyond what they
					// folded in), so the common unmoved task resolves
					// by the bound layer alone and the rest by a
					// warm-started fixpoint.
					sc.chg, sc.chgWild = sc.chg[:0], false
					r, rt, nc, ck, ok = warmResp(sc, i, cs, limit, resp[i], hp)
				} else {
					r, ok = sc.MigratingWCRT(cs, hp, limit, opt.CarryIn)
					rt = -1
				}
				if !ok {
					// Cannot happen: the task was feasible at Tmax and
					// the prefix only shrank periods the feasibility
					// checks already accounted for; recompute keeps
					// the slice consistent regardless.
					r = task.Infinity
					rt = -1
				}
				if old := resp[i]; r != old {
					// The top-k bounds cached below were computed with
					// this response in the chain; lift them by the
					// Lipschitz correction (an unbounded r fails the
					// sanity check and invalidates instead).
					sc.shiftFix(sec, resp, i+1, chainDelta{c: cs, oldP: periods[i], newP: periods[i], oldR: old, newR: r})
				}
				resp[i] = r
				sc.rtAt[i], sc.ncAt[i], sc.ckAt[i] = rt, nc, ck
			}
			lo, hi := resp[i], sec[i].MaxPeriod
			star := task.Time(-1)
			if cand, ok := hints.Periods[sec[i].Name]; ok && cand >= lo && cand <= hi {
				// Minimality first: the same two-probe conjunction in
				// the other order, so the feasible probe at cand runs
				// last and its capture feeds the line-8 refresh below.
				if (cand == lo || !lowerPrioritySchedulable(sc, sec, periods, resp, i, cand-1, opt.CarryIn)) &&
					lowerPrioritySchedulable(sc, sec, periods, resp, i, cand, opt.CarryIn) {
					star = cand
					stats.Verified++
				}
			}
			if star < 0 {
				if opt.LinearSearch {
					star = linearMinPeriod(ctx, sc, sec, periods, resp, i, lo, hi, opt.CarryIn)
				} else {
					star = logMinPeriod(ctx, sc, sec, periods, resp, i, lo, hi, opt.CarryIn)
				}
				stats.Searched++
			}
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			periods[i] = star
			if sc.probeFrom == i && sc.probeCand == star {
				// Line-8 capture, as in the non-resumable path: the
				// search's (or the verification's) last feasible probe
				// was exactly the star, so its captured response vector
				// and component caches ARE the post-fix state. Folding
				// them in keeps every lower task's warm start near its
				// final value — without this the cold searches below
				// re-climb each fixpoint from the Tmax-era responses on
				// every probe, which is what made large-n session
				// bring-up superlinear.
				copy(resp[i+1:], sc.probeResp[i+1:n])
				copy(sc.rtAt[i+1:], sc.probeRT[i+1:n])
				copy(sc.ncAt[i+1:], sc.probeNC[i+1:n])
				copy(sc.ckAt[i+1:], sc.probeCK[i+1:n])
			} else if star != sec[i].MaxPeriod {
				// The caches below were computed with this task still
				// at Tmax; fold the period change in (exact for the
				// non-carry-in sums, Lipschitz bound for top-k) so
				// they describe the post-fix chain.
				sc.shiftFix(sec, resp, i+1, chainDelta{c: sec[i].WCET, oldP: sec[i].MaxPeriod, newP: star, oldR: resp[i], newR: resp[i]})
			}
			hp = append(hp, Interferer{WCET: sec[i].WCET, Period: periods[i], Resp: resp[i]})
		}
		sc.hpOuter = hp[:0]
	}

	// Report in the original ts.Security order.
	outPeriods := make([]task.Time, n)
	outResp := make([]task.Time, n)
	byName := securityIndex(ts.Security)
	for i, s := range sec {
		j := byName[s.Name]
		outPeriods[j] = periods[i]
		outResp[j] = resp[i]
	}
	return &Result{Schedulable: true, Periods: outPeriods, Resp: outResp}, stats, nil
}

// adoptablePrefix returns the number of leading priority levels of sec
// whose previous results (pr) can be adopted without re-verification,
// or 0 when no level qualifies. The argument rests on two facts the
// kernel already depends on: a task's response time is a function of
// the RT band and the strictly-higher-priority security chain only,
// and Algorithm 2's per-candidate feasibility is monotone in the
// candidate (the assumption the binary search and the two-probe hint
// verification both rest on). Under them, level i's search repeats the
// previous run's probe trajectory verbatim — hence returns the
// bit-identical star — iff every probe verdict is preserved, which
// decomposes per conjunct:
//
//   - Level i's own response and the conjuncts of every surviving task
//     above the first change are literally the same computation (their
//     chains contain no changed task).
//   - A conjunct REMOVED by the delta can only have mattered at the
//     minimality probe (star−1); it provably did not whenever
//     star == resp, where minimality is pinned by the task's own
//     period ≥ response bound. So removals shrink the adoptable prefix
//     to the levels before the first star > resp.
//   - A conjunct ADDED by the delta can only flip a feasible probe at
//     cand ≥ star to infeasible. Every such probe chain dominates
//     (period-wise ≥, response-wise ≤, task by task) the chain D =
//     (surviving tasks at their previous periods, added tasks at
//     Tmax), so feasibility of every task under D — additionsFeasible
//     below — implies all those conjuncts pass. Infeasible probes stay
//     infeasible: added interference cannot make a failing task pass.
//
// Budget verdicts cannot drift inside the prefix: every adopted
// level's tail task is required to satisfy the same
// Tmax − C < MaxFixpointIterations gate as probeWarm, under which a
// fixpoint provably resolves within the budget and the operational
// verdict equals the mathematical one.
func adoptablePrefix(sc *Scratch, sec []task.SecurityTask, pr *Prior) int {
	n := len(sec)
	if len(pr.Periods) != len(pr.Sec) || len(pr.Resp) != len(pr.Sec) {
		return 0
	}
	p := 0
	for p < n && p < len(pr.Sec) && sec[p] == pr.Sec[p] {
		p++
	}
	if p == 0 {
		return 0
	}
	// The budget gate over the new tail (see above; prefix tasks' own
	// conjuncts are identical computations and need no gate).
	for j := p; j < n; j++ {
		if sec[j].WCET > sec[j].MaxPeriod || sec[j].MaxPeriod-sec[j].WCET >= MaxFixpointIterations {
			return 0
		}
	}
	// Classify the differing tails. A task whose parameters changed
	// counts as removed AND added. Matching is by priority level — both
	// bands are in SecurityByPriority order with distinct priorities, so
	// a survivor (full struct equality) is found at its level by binary
	// search exactly as a name map would find it, and a task that kept
	// its name but moved levels fails the equality check either way.
	// This path runs on every warm admission; keeping it map-free is
	// what the allocs-admit-delta gate holds at zero growth.
	firstChanged := n
	for j := p; j < n; j++ {
		if oj := priorityLevel(pr.Sec, sec[j].Priority); oj < 0 || pr.Sec[oj] != sec[j] {
			firstChanged = j
			break
		}
	}
	removed := false
	for j := p; j < len(pr.Sec); j++ {
		if nj := priorityLevel(sec, pr.Sec[j].Priority); nj < 0 || sec[nj] != pr.Sec[j] {
			removed = true
			break
		}
	}
	if removed {
		for i := 0; i < p; i++ {
			if pr.Periods[i] != pr.Resp[i] {
				p = i
				break
			}
		}
		if p == 0 {
			return 0
		}
	}
	if firstChanged < n && !additionsFeasible(sc, sec, pr, firstChanged, removed) {
		return 0
	}
	return p
}

// additionsFeasible checks every task of sec from the first changed
// level down for feasibility under the dominating chain D: surviving
// tasks at their previous periods and responses, added tasks at Tmax.
// Surviving tasks warm-start from their previous response — a sound
// lower bound when nothing was removed (D only adds interference over
// the previous chain); with removals in play the bound direction is
// lost and the fixpoint restarts from C instead. Either way a failed
// or budget-limited fixpoint fails the check, which only costs the
// caller the fast path, never correctness.
func additionsFeasible(sc *Scratch, sec []task.SecurityTask, pr *Prior, firstChanged int, removed bool) bool {
	hp := sc.hp[:0]
	for j := 0; j < firstChanged; j++ {
		oj := priorityLevel(pr.Sec, sec[j].Priority)
		if oj < 0 || pr.Sec[oj] != sec[j] {
			sc.hp = hp[:0]
			return false // unreachable: firstChanged is the first such level
		}
		hp = append(hp, Interferer{WCET: sec[j].WCET, Period: pr.Periods[oj], Resp: pr.Resp[oj]})
	}
	ok := true
	for j := firstChanged; j < len(sec); j++ {
		cs, limit := sec[j].WCET, sec[j].MaxPeriod
		period, start := limit, cs
		if oj := priorityLevel(pr.Sec, sec[j].Priority); oj >= 0 && pr.Sec[oj] == sec[j] {
			period = pr.Periods[oj]
			if r := pr.Resp[oj]; !removed && r > start && r <= limit {
				start = r
			}
		}
		sc.primeHP(hp)
		r, fine := sc.fixpointPrimed(cs, start, limit)
		if !fine || r > limit {
			ok = false
			break
		}
		hp = append(hp, Interferer{WCET: cs, Period: period, Resp: r})
	}
	sc.hp = hp[:0]
	return ok
}

// priorityLevel returns the index in band — which must be in
// SecurityByPriority order, priorities distinct — of the task with the
// given priority, or -1 when no level has it. Hand-rolled so the warm
// admission path stays allocation-free.
func priorityLevel(band []task.SecurityTask, prio int) int {
	lo, hi := 0, len(band)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if band[mid].Priority < prio {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(band) && band[lo].Priority == prio {
		return lo
	}
	return -1
}

// suffixRespAtTmax is the responseTimes pass restricted to sec[from:],
// under a chain whose first `from` levels are already final (periods
// and resp filled in) and whose suffix sits at Tmax — the exact resp
// state the cold loop holds when it reaches level `from`. Component
// captures mirror responseTimes so the warm layers below start
// coherent.
func suffixRespAtTmax(sc *Scratch, sec []task.SecurityTask, periods, resp []task.Time, from int, mode CarryInMode) {
	hp := sc.hp[:0]
	for k := 0; k < from; k++ {
		hp = append(hp, Interferer{WCET: sec[k].WCET, Period: periods[k], Resp: resp[k]})
	}
	for i := from; i < len(sec); i++ {
		s := sec[i]
		r, ok := sc.MigratingWCRT(s.WCET, hp, s.MaxPeriod, mode)
		sc.rtAt[i] = -1
		if ok && mode != Exhaustive && sc.lastY == r {
			sc.rtAt[i], sc.ncAt[i], sc.ckAt[i] = sc.lastRT, sc.lastNC, sc.lastCK
		}
		if !ok {
			// Same pessimistic stand-in as responseTimes: a diverged
			// task still interferes with lower-priority ones.
			resp[i] = task.Infinity
			hp = append(hp, Interferer{WCET: s.WCET, Period: periods[i], Resp: periods[i]})
			continue
		}
		resp[i] = r
		hp = append(hp, Interferer{WCET: s.WCET, Period: periods[i], Resp: r})
	}
	sc.hp = hp[:0]
}
