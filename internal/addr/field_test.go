package addr_test

import (
	"fmt"
	"math/rand"
	"testing"

	"parbitonic/internal/addr"
	"parbitonic/internal/schedule"
)

// fieldPlans returns every remap plan of the usual-regime Head smart
// schedules for lgP 1..5 and several lg n, plus the blocked<->cyclic
// plans, labelled for failure messages.
func fieldPlans() (names []string, plans []*addr.RemapPlan) {
	for lgP := 1; lgP <= 5; lgP++ {
		usual := lgP * (lgP + 1) / 2
		for _, lgn := range []int{usual, usual + 1, usual + 3, 16} {
			if lgn < usual || lgn > 16 {
				continue
			}
			lgN := lgn + lgP
			for i, r := range schedule.New(lgN, lgP, schedule.Head) {
				names = append(names, fmt.Sprintf("smart lgP=%d lgn=%d remap %d (%s)", lgP, lgn, i, r.Layout.Name))
				plans = append(plans, r.Plan)
			}
			names = append(names, fmt.Sprintf("blocked->cyclic lgP=%d lgn=%d", lgP, lgn),
				fmt.Sprintf("cyclic->blocked lgP=%d lgn=%d", lgP, lgn))
			plans = append(plans,
				addr.NewRemapPlan(addr.Blocked(lgN, lgP), addr.Cyclic(lgN, lgP)),
				addr.NewRemapPlan(addr.Cyclic(lgN, lgP), addr.Blocked(lgN, lgP)))
		}
	}
	return names, plans
}

// TestDestFieldRoutesLikePlan checks that every usual-regime smart plan
// and both blocked<->cyclic plans have a destination field, and that
// the field route sends every local address of every processor exactly
// where the bit-routing definition (Dest, PackOffset) does — directly
// and through Route.
func TestDestFieldRoutesLikePlan(t *testing.T) {
	names, plans := fieldPlans()
	for i, plan := range plans {
		lo, ok := plan.DestField()
		if !ok {
			t.Fatalf("%s: no destination field", names[i])
		}
		n, c := plan.Old.LocalN(), plan.Changed
		if lo+c > plan.Old.LgLocal() {
			t.Fatalf("%s: field [%d,%d) overruns %d local bits", names[i], lo, lo+c, plan.Old.LgLocal())
		}
		dest, off := make([]int32, n), make([]int32, n)
		procs := plan.Old.P()
		for p := 0; p < procs; p += max(1, procs/4) {
			groups := plan.Dests(p)
			plan.Route(p, dest, off)
			for l := 0; l < n; l++ {
				d, o := plan.Dest(p, l), plan.PackOffset(l)
				if g := groups[l>>uint(lo)&(len(groups)-1)]; g != d {
					t.Fatalf("%s: proc %d l=%d field group %d, Dest %d", names[i], p, l, g, d)
				}
				if fo := addr.FieldOffset(l, lo, c); fo != o {
					t.Fatalf("%s: l=%d field offset %d, PackOffset %d", names[i], l, fo, o)
				}
				if int(dest[l]) != d || int(off[l]) != o {
					t.Fatalf("%s: proc %d l=%d Route (%d,%d), want (%d,%d)", names[i], p, l, dest[l], off[l], d, o)
				}
			}
		}
	}
}

// TestScatterFieldPacksLikePlan checks the block-copy pack against the
// per-key definition, feeding it the local array in uneven pieces as a
// tiled merge does.
func TestScatterFieldPacksLikePlan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	names, plans := fieldPlans()
	for i, plan := range plans {
		n := plan.Old.LocalN()
		if n > 1<<12 {
			continue
		}
		lo, _ := plan.DestField()
		src := make([]int, n)
		for l := range src {
			src[l] = rng.Int()
		}
		p := rng.Intn(plan.Old.P())
		dests := plan.Dests(p)
		want := map[int][]int{}
		groups := make([][]int, len(dests))
		for g, q := range dests {
			want[q] = make([]int, plan.MsgLen)
			groups[g] = make([]int, plan.MsgLen)
		}
		for l, v := range src {
			want[plan.Dest(p, l)][plan.PackOffset(l)] = v
		}
		for t0 := 0; t0 < n; {
			m := min(n-t0, 1+rng.Intn(3*max(1, n>>4)))
			addr.ScatterField(groups, lo, t0, src[t0:t0+m])
			t0 += m
		}
		for g, q := range dests {
			for o, v := range groups[g] {
				if v != want[q][o] {
					t.Fatalf("%s: proc %d message to %d differs at %d", names[i], p, q, o)
				}
			}
		}
	}
}
