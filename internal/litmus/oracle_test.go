package litmus

// treeExplore is the test oracle for the memoized engine: plain tree
// enumeration of p, walking every interleaving/read-choice path
// individually on the engine's own moves, apply and undo. Its Result has
// the engine's Outcomes, Stuck and outcome list; States counts tree
// nodes. It gives up with ErrBudget past limit nodes.
func treeExplore(p Program, limit int) (*Result, error) {
	x := NewExplorer(p)
	s, err := x.prepare()
	if err != nil {
		return nil, err
	}
	r := &Result{Outcomes: make(map[string]int)}
	var walk func() error
	walk = func() error {
		if r.States++; r.States > limit {
			return ErrBudget
		}
		var ms []move
		done := true
		for t, th := range x.prog.Threads {
			done = done && s.pcs[t] == len(th)
			if ms, err = x.moves(ms, s, t); err != nil {
				return err
			}
		}
		switch {
		case done:
			r.Outcomes[string(x.appendCanonical(nil, s.regs))]++
		case len(ms) == 0:
			r.Stuck++
		}
		for _, m := range ms {
			tr := x.apply(s, m)
			err := walk()
			x.undo(s, m, tr)
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(); err != nil {
		return nil, err
	}
	return r, nil
}
