package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/cec"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/gen"
)

// This file turns a workload seed into instance text. The program under
// test only ever sees DIMACS or .bench strings; the generators below
// run in the benchmark. Fixed families (pigeonhole, multiplier
// self-miters, adders) have their variables or signals renamed and
// their clauses or gate lines shuffled per seed, so a held-out seed
// gives different instances with the same known answer.

// expect is the answer an instance must get, known by construction.
type expect int

const (
	expectAny   expect = iota // SAT or UNSAT; checked by model or DRAT
	expectSat                 // satisfiable by construction (planted)
	expectUnsat               // unsatisfiable by construction
)

// cnfInstance is one DIMACS instance with its family label.
type cnfInstance struct {
	family string
	text   string
	want   expect
}

// shuffleCNF renumbers the variables of f by a seeded permutation,
// flips no polarities, and shuffles the clause order and the literal
// order inside each clause. Satisfiability is unchanged.
func shuffleCNF(f *cnf.Formula, rng *rand.Rand) *cnf.Formula {
	n := f.NumVars()
	perm := rng.Perm(n)
	g := cnf.New(n)
	for _, i := range rng.Perm(len(f.Clauses)) {
		c := f.Clauses[i]
		d := make(cnf.Clause, len(c))
		for j, l := range c {
			d[j] = cnf.NewLit(cnf.Var(perm[l.Var()-1]+1), l.IsNeg())
		}
		rng.Shuffle(len(d), func(a, b int) { d[a], d[b] = d[b], d[a] })
		g.AddClause(d)
	}
	return g
}

// plantedKSAT returns a random 3-SAT formula with n variables and m
// clauses that a hidden random assignment satisfies: clauses the
// assignment falsifies are redrawn. It is satisfiable by construction,
// so an UNSAT answer is wrong without any proof.
func plantedKSAT(n, m int, rng *rand.Rand) *cnf.Formula {
	hidden := make([]bool, n+1)
	for v := 1; v <= n; v++ {
		hidden[v] = rng.Intn(2) == 0
	}
	f := cnf.New(n)
	for len(f.Clauses) < m {
		c := make(cnf.Clause, 0, 3)
		sat := false
		for len(c) < 3 {
			v := rng.Intn(n) + 1
			dup := false
			for _, l := range c {
				dup = dup || int(l.Var()) == v
			}
			if dup {
				continue
			}
			neg := rng.Intn(2) == 0
			sat = sat || hidden[v] != neg
			c = append(c, cnf.NewLit(cnf.Var(v), neg))
		}
		if sat {
			f.AddClause(c)
		}
	}
	return f
}

// selfMiterCNF encodes "some output of c differs from a copy of c" as
// CNF: unsatisfiable by construction, and hard for plain CDCL on
// multipliers because nothing merges the two copies structurally.
func selfMiterCNF(c *circuit.Circuit) *cnf.Formula {
	m, out, err := cec.BuildMiter(c, c.Clone())
	if err != nil {
		panic(err) // identical interfaces: cannot fail
	}
	f, _ := circuit.EncodeProperty(m, out, true)
	return f
}

// solverDeepSet is the instance set of one solver-deep pass: shuffled
// multiplier self-miters and pigeonhole (UNSAT by construction) and
// threshold random 3-SAT (SAT and UNSAT; UNSAT answers are re-derived
// with a DRAT proof and checked after the timed passes). Every draw
// shuffles the fixed families afresh and draws new random formulas; the
// slots keep their family and order across the draws of one seed.
//
// The shapes are chosen for a small seed-to-seed spread, not only for
// depth. No family's shuffles solve in the same time: multiplier
// self-miters and php8 range over +-25% (ArrayMultiplier(7) needs 34k to
// 48k conflicts), and even wide adder miters, whose conflict counts
// stay within 5%, range 0.9-1.5 s in search. With one fixed draw the
// p99 of a pass is the slowest one or two instances, and it spread by
// 0.16-0.26 of its median over ten seeds. So the benchmark takes each
// slot's median over the passes' fresh draws, and makes the slowest
// slots many: eight ArrayMultiplier(6) self-miters and two php8 (0.25 to
// 0.5 s each, 10k-25k conflicts, search almost all propagate, analyze
// and reduce) hold the median, the p95 and the p99; two random 3-SAT
// instances at 160 variables are the fast end (their DRAT checks, at
// 5-10x the solve time, stay cheap). A pass takes about 3.5 s, so six or
// more run in 30 s.
func solverDeepSet(seed int64, draw int) []cnfInstance {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(draw)))
	var out []cnfInstance
	mult := selfMiterCNF(circuit.ArrayMultiplier(6))
	for i := 0; i < 8; i++ {
		out = append(out, cnfInstance{"mult6-miter", cnf.DIMACSString(shuffleCNF(mult, rng)), expectUnsat})
	}
	php := gen.Pigeonhole(8)
	for i := 0; i < 2; i++ {
		out = append(out, cnfInstance{"php8", cnf.DIMACSString(shuffleCNF(php, rng)), expectUnsat})
	}
	for i := 0; i < 2; i++ {
		f := gen.Random3SATHard(160, rng.Int63())
		out = append(out, cnfInstance{"rand3sat-160", cnf.DIMACSString(f), expectAny})
	}
	order := rand.New(rand.NewSource(seed)).Perm(len(out))
	slots := make([]cnfInstance, len(out))
	for i, k := range order {
		slots[k] = out[i]
	}
	return slots
}

// benchText writes c (with optional latches) as .bench text with every
// internal signal renamed by rng and the gate lines shuffled. Inputs
// and outputs keep their names and declaration order, so two netlists
// still match by position. Constant nodes, which .bench cannot express,
// become XOR/XNOR of the first input with itself.
func benchText(c *circuit.Circuit, latches []circuit.Latch, rng *rand.Rand) string {
	keep := map[circuit.NodeID]bool{}
	for _, id := range c.Inputs {
		keep[id] = true
	}
	for _, id := range c.Outputs {
		keep[id] = true
	}
	q := map[circuit.NodeID]circuit.NodeID{} // latch Q -> D
	for _, l := range latches {
		q[l.Output] = l.Input
		keep[l.Output] = true
	}
	names := make([]string, len(c.Nodes))
	for i, p := range rng.Perm(len(c.Nodes)) {
		id := circuit.NodeID(i)
		if keep[id] {
			names[i] = c.Name(id)
		} else {
			names[i] = fmt.Sprintf("n%d", p)
		}
	}
	var b strings.Builder
	for _, in := range c.Inputs {
		if _, isQ := q[in]; !isQ {
			fmt.Fprintf(&b, "INPUT(%s)\n", names[in])
		}
	}
	for _, o := range c.Outputs {
		fmt.Fprintf(&b, "OUTPUT(%s)\n", names[o])
	}
	var lines []string
	for qn, d := range q {
		lines = append(lines, fmt.Sprintf("%s = DFF(%s)", names[qn], names[d]))
	}
	for i := range c.Nodes {
		n := &c.Nodes[i]
		switch n.Type {
		case circuit.Input:
			continue
		case circuit.Const0, circuit.Const1:
			op := "XOR"
			if n.Type == circuit.Const1 {
				op = "XNOR"
			}
			x := names[c.Inputs[0]]
			lines = append(lines, fmt.Sprintf("%s = %s(%s, %s)", names[i], op, x, x))
			continue
		}
		fan := make([]string, len(n.Fanin))
		for j, f := range n.Fanin {
			fan[j] = names[f]
		}
		lines = append(lines, fmt.Sprintf("%s = %s(%s)", names[i], n.Type, strings.Join(fan, ", ")))
	}
	// Map iteration put the DFF lines in random order; sort before the
	// seeded shuffle so the order depends on rng alone.
	sort.Strings(lines)
	rng.Shuffle(len(lines), func(a, b int) { lines[a], lines[b] = lines[b], lines[a] })
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// counterBench is an n-bit binary counter from 0 whose property output
// "bad" fires when the count equals target: the shortest
// counterexample has exactly target steps.
func counterBench(n int, target uint64, rng *rand.Rand) string {
	c := circuit.New()
	qs := make([]circuit.NodeID, n)
	for i := range qs {
		qs[i] = c.AddInput(fmt.Sprintf("q%d", i))
	}
	ds := make([]circuit.NodeID, n)
	ds[0] = c.AddGate(circuit.Not, "d0", qs[0])
	carry := qs[0]
	for i := 1; i < n; i++ {
		ds[i] = c.AddGate(circuit.Xor, fmt.Sprintf("d%d", i), qs[i], carry)
		if i < n-1 {
			carry = c.AddGate(circuit.And, fmt.Sprintf("c%d", i+1), qs[i], carry)
		}
	}
	bits := make([]circuit.NodeID, n)
	for i := range bits {
		if target&(1<<uint(i)) != 0 {
			bits[i] = qs[i]
		} else {
			bits[i] = c.AddGate(circuit.Not, fmt.Sprintf("nq%d", i), qs[i])
		}
	}
	c.MarkOutput(c.AddGate(circuit.And, "bad", bits...))
	latches := make([]circuit.Latch, n)
	for i := range latches {
		latches[i] = circuit.Latch{Output: qs[i], Input: ds[i]}
	}
	return benchText(c, latches, rng)
}
