package txn_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/txn"
	"repro/internal/workload"
)

// TestBuildWorkflowsMatchesClosureReference checks BuildWorkflows against
// the plain reference it replaced — Set.Roots for the workflow order and
// Set.Closure for each workflow's members — on random DAG workloads across
// workflow length and shared membership, with every member pending.
func TestBuildWorkflowsMatchesClosureReference(t *testing.T) {
	for maxLen := 1; maxLen <= 6; maxLen++ {
		for membership := 1; membership <= 3; membership++ {
			for seed := uint64(1); seed <= 4; seed++ {
				name := fmt.Sprintf("len%d/mem%d/seed%d", maxLen, membership, seed)
				cfg := workload.Default(0.9, seed).WithWorkflows(maxLen, membership)
				cfg.N = 300
				if seed%2 == 0 {
					cfg.Order = workload.OrderRandom
				}
				set := workload.MustGenerate(cfg)
				roots := set.Roots()
				wfs := txn.BuildWorkflows(set)
				if len(wfs) != len(roots) {
					t.Fatalf("%s: %d workflows for %d roots", name, len(wfs), len(roots))
				}
				for i, wf := range wfs {
					want := set.Closure(roots[i])
					if wf.ID != i || wf.Root != roots[i] {
						t.Fatalf("%s: workflow %d = (ID %d, root T%d), want (ID %d, root T%d)",
							name, i, wf.ID, wf.Root, i, roots[i])
					}
					if !slices.Equal(wf.Members, want) {
						t.Fatalf("%s: workflow %d members %v, want closure %v", name, i, wf.Members, want)
					}
					if got := wf.PendingIDs(); !slices.Equal(got, want) {
						t.Fatalf("%s: workflow %d pending %v, want every member %v", name, i, got, want)
					}
				}
			}
		}
	}
}
