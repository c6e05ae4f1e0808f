package hmdes

import (
	"fmt"
	"math"

	"mdes/internal/restable"
)

// Machine is the analyzed, lowered form of one machine description: the
// resource namespace, the shared OR-trees, each class's AND/OR-tree, and
// the opcode table. It is the hand-off point to the low-level compiler
// (internal/lowlevel).
type Machine struct {
	Name      string
	Resources *restable.ResourceSet

	// Trees holds the named, shareable OR-trees; classes referencing the
	// same name share the identical *ORTree (the sharing of Figure 4).
	Trees     map[string]*restable.ORTree
	TreeNames []string // declaration order

	// Classes maps class name to its AND/OR-tree.
	Classes    map[string]*restable.AndOrTree
	ClassNames []string // declaration order

	Operations map[string]*Operation
	OpNames    []string // declaration order

	// Bypasses maps (producer, consumer) opcode pairs to a latency
	// adjustment applied to their flow dependences (forwarding paths;
	// paper footnote 1). Usually negative.
	Bypasses map[[2]string]int
}

// FlowDistance returns the dependence distance from a producer opcode to a
// consumer opcode: the producer's result latency, minus the cycle at which
// the consumer samples its sources, plus any bypass adjustment; never
// negative.
func (m *Machine) FlowDistance(producer, consumer string) int {
	p, ok := m.Operations[producer]
	if !ok {
		return 1
	}
	d := p.Latency
	if c, ok := m.Operations[consumer]; ok {
		d -= c.SrcTime
	}
	d += m.Bypasses[[2]string{producer, consumer}]
	if d < 0 {
		return 0
	}
	return d
}

// Operation binds an opcode to its scheduling class(es) and latency.
type Operation struct {
	Name string
	// Class is the reservation constraint used normally.
	Class string
	// Cascaded, when non-empty, is the constraint used when the scheduler
	// elects the cascaded form (e.g. the SuperSPARC's flow-dependent
	// same-cycle IALU pairing; paper §2).
	Cascaded string
	// Latency is the operand-result latency in cycles.
	Latency int
	// SrcTime is the cycle (relative to issue) at which source operands
	// are sampled; flow-dependence distances subtract it.
	SrcTime int
}

// Class returns the AND/OR-tree for a class name.
func (m *Machine) Class(name string) (*restable.AndOrTree, bool) {
	c, ok := m.Classes[name]
	return c, ok
}

// Load parses and analyzes a machine-description source.
func Load(file, src string) (*Machine, error) {
	f, err := Parse(file, src)
	if err != nil {
		return nil, err
	}
	return Analyze(file, f)
}

// Capacity limits bound how much memory a description can demand during
// analysis and use. Without them a 30-byte source can declare a billion
// resource instances or a combinatorial `choose`, and analysis becomes a
// denial of service before any semantic check runs (fuzzer-found); or it
// can use a resource 2^22 cycles after issue, and one probe grows the
// reservation window by that many rows. Real machine descriptions sit
// orders of magnitude below every limit.
const (
	// maxResourceInstances caps the total resource IDs of one machine.
	maxResourceInstances = 4096
	// maxTreeOptions caps the expanded option count of one OR-tree.
	maxTreeOptions = 1 << 14
	// maxCycles caps the magnitude of every cycle count a description
	// states: usage times, latencies (and so source times, which may not
	// exceed them) and bypass adjustments. The probe plan's reservation
	// window and the schedulers' horizon grow with them.
	maxCycles = 1024
)

// analyzer carries name-resolution state during lowering.
type analyzer struct {
	file   string
	m      *Machine
	consts map[string]int
	// resCount maps group name to instance count for range checking.
	resCount map[string]int
	// resFirst maps group name to the ID of its first instance.
	resFirst map[string]int
	// bypasses defers forwarding-path resolution until all operations are
	// known.
	bypasses []*BypassDecl
}

// Analyze lowers a parsed file into a Machine, reporting the first semantic
// error found.
func Analyze(file string, f *File) (*Machine, error) {
	a := &analyzer{
		file: file,
		m: &Machine{
			Name:       f.Machine.Name,
			Resources:  restable.NewResourceSet(),
			Trees:      map[string]*restable.ORTree{},
			Classes:    map[string]*restable.AndOrTree{},
			Operations: map[string]*Operation{},
			Bypasses:   map[[2]string]int{},
		},
		consts:   map[string]int{},
		resCount: map[string]int{},
		resFirst: map[string]int{},
	}
	for _, d := range f.Machine.Decls {
		var err error
		switch d := d.(type) {
		case *ResourceDecl:
			err = a.addResource(d)
		case *LetDecl:
			err = a.addLet(d)
		case *TreeDecl:
			err = a.addTree(d)
		case *ClassDecl:
			err = a.addClass(d)
		case *OperationDecl:
			err = a.addOperation(d)
		case *BypassDecl:
			a.bypasses = append(a.bypasses, d)
		default:
			err = a.errf(0, "internal: unknown declaration %T", d)
		}
		if err != nil {
			return nil, err
		}
	}
	if len(a.m.Operations) == 0 {
		return nil, a.errf(f.Machine.Line, "machine %q declares no operations", f.Machine.Name)
	}
	// Bypasses are resolved last so they may reference operations declared
	// after them.
	for _, d := range a.bypasses {
		if _, ok := a.m.Operations[d.From]; !ok {
			return nil, a.errf(d.Line, "bypass references undefined operation %q", d.From)
		}
		if _, ok := a.m.Operations[d.To]; !ok {
			return nil, a.errf(d.Line, "bypass references undefined operation %q", d.To)
		}
		key := [2]string{d.From, d.To}
		if _, dup := a.m.Bypasses[key]; dup {
			return nil, a.errf(d.Line, "duplicate bypass %s to %s", d.From, d.To)
		}
		v, err := a.evalCycles(d.Adjust, d.Line, "bypass adjustment")
		if err != nil {
			return nil, err
		}
		a.m.Bypasses[key] = v
	}
	return a.m, nil
}

func (a *analyzer) errf(line int, format string, args ...interface{}) error {
	return &Error{File: a.file, Line: line, Col: 1, Msg: fmt.Sprintf(format, args...)}
}

func (a *analyzer) addResource(d *ResourceDecl) error {
	count := 1
	if d.Count != nil {
		v, err := a.eval(d.Count)
		if err != nil {
			return err
		}
		count = v
	}
	if count < 1 {
		return a.errf(d.Line, "resource %q count %d must be >= 1", d.Name, count)
	}
	if count > maxResourceInstances-a.m.Resources.Len() {
		return a.errf(d.Line, "resource %q count %d exceeds the machine capacity of %d resource instances",
			d.Name, count, maxResourceInstances)
	}
	if _, dup := a.resCount[d.Name]; dup {
		return a.errf(d.Line, "duplicate resource %q", d.Name)
	}
	first, err := a.m.Resources.Add(d.Name, count)
	if err != nil {
		return a.errf(d.Line, "%v", err)
	}
	a.resCount[d.Name] = count
	a.resFirst[d.Name] = first
	return nil
}

func (a *analyzer) addLet(d *LetDecl) error {
	if _, dup := a.consts[d.Name]; dup {
		return a.errf(d.Line, "duplicate constant %q", d.Name)
	}
	v, err := a.eval(d.Val)
	if err != nil {
		return err
	}
	a.consts[d.Name] = v
	return nil
}

func (a *analyzer) addTree(d *TreeDecl) error {
	if _, dup := a.m.Trees[d.Name]; dup {
		return a.errf(d.Line, "duplicate tree %q", d.Name)
	}
	tree, err := a.buildTree(d.Name, d.Body, d.Line)
	if err != nil {
		return err
	}
	a.m.Trees[d.Name] = tree
	a.m.TreeNames = append(a.m.TreeNames, d.Name)
	return nil
}

// buildTree expands a tree body into a prioritized option list.
func (a *analyzer) buildTree(name string, body []TreeItem, line int) (*restable.ORTree, error) {
	var options []*restable.Option
	for _, item := range body {
		switch item := item.(type) {
		case *OptionItem:
			usages, err := a.evalUsages(item.Usages)
			if err != nil {
				return nil, err
			}
			options = append(options, restable.NewOption(usages))
		case *OneOfItem:
			ids, err := a.evalRange(item.Range)
			if err != nil {
				return nil, err
			}
			t, err := a.evalCycles(item.Time, item.Line, "usage time")
			if err != nil {
				return nil, err
			}
			for _, id := range ids {
				options = append(options, restable.NewOption([]restable.Usage{{Res: id, Time: t}}))
			}
		case *ChooseItem:
			k, err := a.eval(item.K)
			if err != nil {
				return nil, err
			}
			ids, err := a.evalRange(item.Range)
			if err != nil {
				return nil, err
			}
			if k < 1 || k > len(ids) {
				return nil, a.errf(item.Line, "choose %d of %d resources is invalid", k, len(ids))
			}
			if n := binomial(len(ids), k, maxTreeOptions); n > maxTreeOptions {
				return nil, a.errf(item.Line, "choose %d of %d expands to more than %d options",
					k, len(ids), maxTreeOptions)
			}
			t, err := a.evalCycles(item.Time, item.Line, "usage time")
			if err != nil {
				return nil, err
			}
			for _, combo := range combinations(ids, k) {
				usages := make([]restable.Usage, len(combo))
				for i, id := range combo {
					usages[i] = restable.Usage{Res: id, Time: t}
				}
				options = append(options, restable.NewOption(usages))
			}
		default:
			return nil, a.errf(line, "internal: unknown tree item %T", item)
		}
	}
	if len(options) == 0 {
		return nil, a.errf(line, "tree %q has no options", name)
	}
	if len(options) > maxTreeOptions {
		return nil, a.errf(line, "tree %q expands to %d options, over the capacity of %d",
			name, len(options), maxTreeOptions)
	}
	return restable.NewORTree(name, options...), nil
}

// binomial returns C(n, k), clamped to limit+1 as soon as it exceeds
// limit so huge combinations are rejected without being computed.
func binomial(n, k, limit int) int {
	if k > n-k {
		k = n - k
	}
	r := 1
	for i := 1; i <= k; i++ {
		r = r * (n - k + i) / i
		if r > limit {
			return limit + 1
		}
	}
	return r
}

func (a *analyzer) addClass(d *ClassDecl) error {
	if _, dup := a.m.Classes[d.Name]; dup {
		return a.errf(d.Line, "duplicate class %q", d.Name)
	}
	var trees []*restable.ORTree
	for i, cl := range d.Clauses {
		switch cl := cl.(type) {
		case *TreeRefClause:
			t, ok := a.m.Trees[cl.Name]
			if !ok {
				return a.errf(cl.Line, "class %q references undefined tree %q", d.Name, cl.Name)
			}
			trees = append(trees, t)
		case *InlineTreeClause:
			t, err := a.buildTree(fmt.Sprintf("%s#%d", d.Name, i+1), cl.Body, cl.Line)
			if err != nil {
				return err
			}
			trees = append(trees, t)
		case *UseClause:
			usages, err := a.evalUsages(cl.Usages)
			if err != nil {
				return err
			}
			name := a.m.Resources.Group(usages[0].Res)
			trees = append(trees, restable.NewORTree(name, restable.NewOption(usages)))
		case *OneOfClause:
			t, err := a.buildTree(cl.Item.Range.Name, []TreeItem{&cl.Item}, cl.Item.Line)
			if err != nil {
				return err
			}
			trees = append(trees, t)
		case *ChooseClause:
			t, err := a.buildTree(fmt.Sprintf("%s×", cl.Item.Range.Name), []TreeItem{&cl.Item}, cl.Item.Line)
			if err != nil {
				return err
			}
			trees = append(trees, t)
		default:
			return a.errf(d.Line, "internal: unknown clause %T", cl)
		}
	}
	if len(trees) == 0 {
		return a.errf(d.Line, "class %q has no clauses", d.Name)
	}
	tree := restable.NewAndOrTree(d.Name, trees...)
	if err := tree.ValidateDisjoint(a.m.Resources); err != nil {
		return a.errf(d.Line, "%v", err)
	}
	a.m.Classes[d.Name] = tree
	a.m.ClassNames = append(a.m.ClassNames, d.Name)
	return nil
}

func (a *analyzer) addOperation(d *OperationDecl) error {
	if _, dup := a.m.Operations[d.Name]; dup {
		return a.errf(d.Line, "duplicate operation %q", d.Name)
	}
	if _, ok := a.m.Classes[d.Class]; !ok {
		return a.errf(d.Line, "operation %q references undefined class %q", d.Name, d.Class)
	}
	if d.Cascaded != "" {
		if _, ok := a.m.Classes[d.Cascaded]; !ok {
			return a.errf(d.Line, "operation %q references undefined cascaded class %q", d.Name, d.Cascaded)
		}
	}
	lat := 1
	if d.Latency != nil {
		v, err := a.eval(d.Latency)
		if err != nil {
			return err
		}
		if v < 0 {
			return a.errf(d.Line, "operation %q latency %d must be >= 0", d.Name, v)
		}
		if v > maxCycles {
			return a.errf(d.Line, "operation %q latency %d exceeds the capacity of %d cycles", d.Name, v, maxCycles)
		}
		lat = v
	}
	srcTime := 0
	if d.SrcTime != nil {
		v, err := a.eval(d.SrcTime)
		if err != nil {
			return err
		}
		if v < 0 {
			return a.errf(d.Line, "operation %q src time %d must be >= 0", d.Name, v)
		}
		if v > lat {
			return a.errf(d.Line, "operation %q src time %d exceeds latency %d", d.Name, v, lat)
		}
		srcTime = v
	}
	a.m.Operations[d.Name] = &Operation{Name: d.Name, Class: d.Class, Cascaded: d.Cascaded, Latency: lat, SrcTime: srcTime}
	a.m.OpNames = append(a.m.OpNames, d.Name)
	return nil
}

func (a *analyzer) evalUsages(exprs []UsageExpr) ([]restable.Usage, error) {
	usages := make([]restable.Usage, 0, len(exprs))
	for _, ue := range exprs {
		id, err := a.resolveRef(ue.Res)
		if err != nil {
			return nil, err
		}
		t, err := a.evalCycles(ue.Time, ue.Line, "usage time")
		if err != nil {
			return nil, err
		}
		usages = append(usages, restable.Usage{Res: id, Time: t})
	}
	return usages, nil
}

// resolveRef resolves `M` or `Decoder[2]` to a resource ID.
func (a *analyzer) resolveRef(r ResRef) (int, error) {
	count, ok := a.resCount[r.Name]
	if !ok {
		return 0, a.errf(r.Line, "undefined resource %q", r.Name)
	}
	if r.Index == nil {
		if count != 1 {
			return 0, a.errf(r.Line, "resource %q has %d instances; an index is required", r.Name, count)
		}
		return a.resFirst[r.Name], nil
	}
	i, err := a.eval(r.Index)
	if err != nil {
		return 0, err
	}
	if i < 0 || i >= count {
		return 0, a.errf(r.Line, "resource index %s[%d] out of range [0,%d)", r.Name, i, count)
	}
	return a.resFirst[r.Name] + i, nil
}

// evalRange resolves a ResRange to an ordered ID list.
func (a *analyzer) evalRange(r ResRange) ([]int, error) {
	count, ok := a.resCount[r.Name]
	if !ok {
		return nil, a.errf(r.Line, "undefined resource %q", r.Name)
	}
	first := a.resFirst[r.Name]
	lo, hi := 0, count-1
	if r.Lo != nil {
		v, err := a.eval(r.Lo)
		if err != nil {
			return nil, err
		}
		lo = v
		hi = v
		if r.Hi != nil {
			v, err := a.eval(r.Hi)
			if err != nil {
				return nil, err
			}
			hi = v
		}
	}
	if lo < 0 || hi >= count || lo > hi {
		return nil, a.errf(r.Line, "range %s[%d..%d] out of bounds [0,%d)", r.Name, lo, hi, count)
	}
	ids := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		ids = append(ids, first+i)
	}
	return ids, nil
}

// evalCycles evaluates a cycle count, refusing one whose magnitude
// exceeds maxCycles; what names it in the diagnostic.
func (a *analyzer) evalCycles(e Expr, line int, what string) (int, error) {
	v, err := a.eval(e)
	if err != nil {
		return 0, err
	}
	if v < -maxCycles || v > maxCycles {
		return 0, a.errf(line, "%s %d outside the capacity of [-%d,%d] cycles", what, v, maxCycles, maxCycles)
	}
	return v, nil
}

func (a *analyzer) eval(e Expr) (int, error) {
	switch e := e.(type) {
	case *IntLit:
		return e.Val, nil
	case *ConstRef:
		v, ok := a.consts[e.Name]
		if !ok {
			return 0, a.errf(e.Line, "undefined constant %q", e.Name)
		}
		return v, nil
	case *NegExpr:
		v, err := a.eval(e.E)
		if err != nil {
			return 0, err
		}
		if v == math.MinInt {
			return 0, a.errf(e.Line, "constant expression -(%d) overflows", v)
		}
		return -v, nil
	case *BinExpr:
		l, err := a.eval(e.L)
		if err != nil {
			return 0, err
		}
		r, err := a.eval(e.R)
		if err != nil {
			return 0, err
		}
		var v int
		overflow := false
		switch e.Op {
		case '+':
			v = l + r
			overflow = (v > l) != (r > 0)
		case '-':
			v = l - r
			overflow = (v < l) != (r > 0)
		case '*':
			v = l * r
			overflow = l != 0 && (v/l != r || (l == -1 && r == math.MinInt))
		case '/':
			if r == 0 {
				return 0, a.errf(e.Line, "division by zero")
			}
			v = l / r
			overflow = l == math.MinInt && r == -1
		default:
			return 0, a.errf(e.Line, "internal: unknown operator %q", e.Op)
		}
		if overflow {
			return 0, a.errf(e.Line, "constant expression %d %c %d overflows", l, e.Op, r)
		}
		return v, nil
	default:
		return 0, a.errf(0, "internal: unknown expression %T", e)
	}
}

// combinations returns all k-element combinations of ids in lexicographic
// order of positions.
func combinations(ids []int, k int) [][]int {
	var out [][]int
	combo := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			out = append(out, append([]int(nil), combo...))
			return
		}
		for i := start; i <= len(ids)-(k-depth); i++ {
			combo[depth] = ids[i]
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	return out
}
