package traffic

// Registry entries for the closed-loop patterns: the paper's three
// sweeps (uniform, permutation, hotspot), the bursty adversary, and the
// fabric collectives. Each wraps the corresponding Source type from
// traffic.go/collective.go.

import "fmt"

func init() {
	Register(Pattern{
		Name:     "uniform",
		Doc:      "i.i.d. uniform destinations (§7.3 average rate)",
		Defaults: map[string]float64{},
		Source: func(s *Spec, port int, rng *RNG) (Source, error) {
			return &Uniform{Ports: s.Ports, Size: s.Size, Src: port, rng: rng}, nil
		},
	})

	Register(Pattern{
		Name:     "permutation",
		Doc:      "conflict-free rotation i -> (i+offset) mod n (§7.2 peak rate)",
		Defaults: map[string]float64{"offset": 2},
		Source: func(s *Spec, port int, rng *RNG) (Source, error) {
			off := int(s.param("offset"))
			return &Permutation{Perm: RotatedPerm(s.Ports, off), Size: s.Size, Src: port}, nil
		},
		Check: func(s *Spec) error {
			off := s.param("offset")
			if off != float64(int(off)) || off < 0 {
				return fmt.Errorf("traffic: permutation offset %v must be a non-negative integer", off)
			}
			return nil
		},
	})

	Register(Pattern{
		Name:     "hotspot",
		Doc:      "fraction frac of traffic to one hot port, rest uniform",
		Defaults: map[string]float64{"frac": 0.7, "hot": 0},
		Source: func(s *Spec, port int, rng *RNG) (Source, error) {
			return &Hotspot{Ports: s.Ports, Size: s.Size, Src: port,
				Hot: int(s.param("hot")), Frac: s.param("frac"), rng: rng}, nil
		},
		Check: func(s *Spec) error {
			if f := s.param("frac"); !(f >= 0) || f > 1 {
				return fmt.Errorf("traffic: hotspot frac %v out of range [0, 1]", f)
			}
			ports := s.Ports
			if ports == 0 {
				ports = 4
			}
			if h := s.param("hot"); h != float64(int(h)) || int(h) < 0 || int(h) >= ports {
				return fmt.Errorf("traffic: hotspot port %v out of range [0, %d)", h, ports)
			}
			return nil
		},
	})

	Register(Pattern{
		Name:     "bursty",
		Doc:      "geometric ON-trains to one destination, mean length burst",
		Defaults: map[string]float64{"burst": 8},
		Source: func(s *Spec, port int, rng *RNG) (Source, error) {
			return &Bursty{Ports: s.Ports, Size: s.Size, Src: port,
				Burst: int(s.param("burst")), rng: rng}, nil
		},
		Check: func(s *Spec) error {
			if b := s.param("burst"); b != float64(int(b)) || b < 1 || b > 1e6 {
				return fmt.Errorf("traffic: burst length %v out of range [1, 1e6]", b)
			}
			return nil
		},
	})

	Register(Pattern{
		Name:     "allreduce",
		Doc:      "ring all-reduce schedule: every port streams to its successor",
		Defaults: map[string]float64{},
		Source: func(s *Spec, port int, rng *RNG) (Source, error) {
			return &RingAllReduce{Ports: s.Ports, Size: s.Size, Src: port}, nil
		},
	})

	Register(Pattern{
		Name:     "broadcast",
		Doc:      "root-to-leaves fanout; only port root transmits",
		Defaults: map[string]float64{"root": 0},
		Source: func(s *Spec, port int, rng *RNG) (Source, error) {
			root := int(s.param("root"))
			if port != root {
				// Leaves are silent; a silent closed-loop source would
				// deadlock a Next() caller, so synthesize an idle stream of
				// acks back to the root instead.
				return &Permutation{Perm: constPerm(s.Ports, root), Size: s.Size, Src: port}, nil
			}
			return &Broadcast{Ports: s.Ports, Size: s.Size, Root: root}, nil
		},
		Check: func(s *Spec) error {
			ports := s.Ports
			if ports == 0 {
				ports = 4
			}
			if r := s.param("root"); r != float64(int(r)) || int(r) < 0 || int(r) >= ports {
				return fmt.Errorf("traffic: broadcast root %v out of range [0, %d)", r, ports)
			}
			return nil
		},
	})
}

// constPerm maps every input to the same destination (leaf→root acks).
func constPerm(n, dst int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = dst
	}
	return p
}
