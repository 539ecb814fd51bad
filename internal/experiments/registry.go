package experiments

import (
	"fmt"

	"chimera/internal/tablefmt"
)

// Runner is one registered experiment: it regenerates one (or more) of
// the paper's exhibits at the given scale.
type Runner func(Scale) ([]*tablefmt.Table, error)

// registry lists every exhibit with its harness in the paper's
// presentation order: the order of Names, `chimerasim list` and `all`.
var registry = []struct {
	name string
	run  Runner
}{
	{"table1", func(Scale) ([]*tablefmt.Table, error) {
		return []*tablefmt.Table{Table1()}, nil
	}},
	{"table2", func(Scale) ([]*tablefmt.Table, error) {
		t, err := Table2()
		if err != nil {
			return nil, err
		}
		return []*tablefmt.Table{t}, nil
	}},
	{"fig2", func(Scale) ([]*tablefmt.Table, error) {
		return []*tablefmt.Table{Fig2()}, nil
	}},
	{"fig3", func(Scale) ([]*tablefmt.Table, error) {
		return []*tablefmt.Table{Fig3()}, nil
	}},
	{"fig6", one(Fig6)},
	{"fig7", one(Fig7)},
	{"fig8", one(Fig8)},
	{"fig9", one(Fig9)},
	{"fig10", one(Fig10)},
	{"fig11", one(Fig11)},
	{"latency", PreemptionLatency},
	{"allpairs", one(AllPairs)},
	{"ablation", Ablations},
	{"contention", Contention},
	{"scaling", Scaling},
	{"estacc", EstimationAccuracy},
	{"calibrated", Calibrated},
	{"gpusize", GPUSize},
	{"seeds", Seeds},
	{"shootout", PolicyShootout},
}

func one(f func(Scale) (*tablefmt.Table, error)) Runner {
	return func(s Scale) ([]*tablefmt.Table, error) {
		t, err := f(s)
		if err != nil {
			return nil, err
		}
		return []*tablefmt.Table{t}, nil
	}
}

// Names lists the registered experiments in the paper's presentation
// order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// Run executes one experiment by name.
func Run(name string, s Scale) ([]*tablefmt.Table, error) {
	for _, e := range registry {
		if e.name == name {
			return e.run(s)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
}

// RunAll executes every experiment in presentation order.
func RunAll(s Scale) ([]*tablefmt.Table, error) {
	var out []*tablefmt.Table
	for _, e := range registry {
		tables, err := e.run(s)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.name, err)
		}
		out = append(out, tables...)
	}
	return out, nil
}
