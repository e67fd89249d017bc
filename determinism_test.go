// Determinism stress tests: every engine — repair search, grounder,
// stable-model solver, answer intersection — must produce byte-identical
// output at every parallelism level. CI runs these under -race with a
// GOMAXPROCS matrix (see .github/workflows/ci.yml) so scheduler-order
// bugs surface as diffs or race reports.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// TestDeterminismFixtures sweeps the paper's fixture systems.
func TestDeterminismFixtures(t *testing.T) {
	cases := []struct {
		name  string
		build func() *core.System
		peer  core.PeerID
		query string
		vars  []string
	}{
		{"Example1/P1", core.Example1System, "P1", "r1(X,Y)", []string{"X", "Y"}},
		{"Section31/P", core.Section31System, "P", "r1(X,Y)", []string{"X", "Y"}},
		{"Example4/P", core.Example4System, "P", "r1(X,Y)", []string{"X", "Y"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			testutil.RequireParallelismInvariant(t, tc.name, tc.build, tc.peer, tc.query, tc.vars, testutil.DefaultLevels)
		})
	}
}

// TestDeterminismSeededWorkloads sweeps generated systems over 20
// seeds. The seed drives both the generator's value choices and the
// system shape (clean facts, imports, conflicts, witnesses), so the
// sweep covers import chains, independent binary conflicts, referential
// witness choices and scattered conflicts that the conflict-localized
// engine splits into several components, at several sizes.
func TestDeterminismSeededWorkloads(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("example1shaped/seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			build := func() *core.System {
				return workload.Example1Shaped(2+int(seed%5), 1+int(seed%3), 1+int(seed%2), seed)
			}
			testutil.RequireParallelismInvariant(t, t.Name(), build, "P1", "r1(X,Y)", []string{"X", "Y"}, testutil.DefaultLevels)
		})
		t.Run(fmt.Sprintf("referential/seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			build := func() *core.System {
				return workload.ReferentialShaped(1+int(seed%2), 1+int(seed%2), int(seed%3), seed)
			}
			testutil.RequireParallelismInvariant(t, t.Name(), build, "P", "r1(X,Y)", []string{"X", "Y"}, testutil.DefaultLevels)
		})
		t.Run(fmt.Sprintf("scattered/seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			build := func() *core.System {
				return workload.ScatteredConflicts(2+int(seed%3), 1+int(seed%4), seed)
			}
			testutil.RequireParallelismInvariant(t, t.Name(), build, "A", "ra0(X,Y)", []string{"X", "Y"}, testutil.DefaultLevels)
		})
	}
}
