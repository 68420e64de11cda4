package parallel

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/discovery"
)

// TestSingleLiteralTables checks that Evaluate's tables answer every
// validation query over an X of at most one literal. It mines the
// TestLiteralPlaneDifferential graphs at n = 1..4 in both engine modes
// with load balancing, and right after each Evaluate asks Violated for
// every such X and every l ∉ X, and SupportXl for every pair reported
// not violated. Each answer must match the row-by-row reference, and
// the sweep must send no message. A query over two literals must still
// reach the workers.
func TestSingleLiteralTables(t *testing.T) {
	for _, gc := range literalPlaneGraphs(t) {
		prof := discovery.NewProfile(gc.g, gc.opts.ActiveAttrs)
		for mode, modeName := range []string{cluster.Makespan: "makespan", cluster.Concurrent: "concurrent"} {
			for n := 1; n <= 4; n++ {
				eng := cluster.New(cluster.Config{Workers: n, Mode: cluster.Mode(mode)})
				name := fmt.Sprintf("%s/n=%d", modeName, n)
				sb := &sweepBackend{
					checkedBackend: newCheckedBackend(t, gc, name, NewBackend(gc.g, eng, Options{LoadBalance: true}, nil)),
					eng:            eng,
				}
				discovery.MineWithBackend(sb, prof, gc.opts)
				if sb.supports == 0 || sb.wide == 0 {
					t.Fatalf("%s: degenerate sweep: %d Violated, %d SupportXl, %d two-literal queries",
						sb.name, sb.violated, sb.supports, sb.wide)
				}
				t.Logf("%s: swept %d Violated and %d SupportXl answers", sb.name, sb.violated, sb.supports)
			}
		}
	}
}

// sweepBackend sweeps each evaluator's single-literal queries before the
// driver asks its own.
type sweepBackend struct {
	*checkedBackend
	eng                      *cluster.Engine
	violated, supports, wide int
}

func (s *sweepBackend) Evaluate(h discovery.Handle, pool []core.Literal) discovery.Evaluator {
	ce := s.checkedBackend.Evaluate(h, pool).(*checkedEval)
	before := s.eng.Stats().Messages
	for r := 0; r <= len(pool); r++ {
		var x []int
		if r > 0 {
			x = []int{r - 1}
		}
		for l := range pool {
			if l == r-1 {
				continue
			}
			got := ce.ev.Violated(x, l)
			if want := ce.ref.violated(x, l); got != want {
				ce.fail(x, "Violated(l=%d) = %v, reference %v", l, got, want)
			}
			s.violated++
			if got {
				continue
			}
			if got, want := ce.ev.SupportXl(x, l), ce.ref.support(x, l); got != want {
				ce.fail(x, "SupportXl(l=%d) = %d, reference %d", l, got, want)
			}
			s.supports++
		}
	}
	if after := s.eng.Stats().Messages; after != before {
		s.t.Fatalf("%s: pattern %s: the single-literal sweep sent %d messages", s.name, ce.ref.p, after-before)
	}
	if len(pool) >= 3 {
		x := []int{0, 1}
		if got, want := ce.ev.Violated(x, 2), ce.ref.violated(x, 2); got != want {
			ce.fail(x, "Violated(l=2) = %v, reference %v", got, want)
		}
		if s.eng.Stats().Messages == before {
			s.t.Fatalf("%s: pattern %s: a two-literal Violated reached no worker", s.name, ce.ref.p)
		}
		s.wide++
	}
	return ce
}
