package analysis

// summary.go collects each function's direct Summary facts and call
// edges from its body. See callgraph.go for the fact vocabulary and the
// nested-function-literal convention.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// collectFacts walks one function body, recording direct facts on
// n.Summary and call edges on the graph.
func collectFacts(g *CallGraph, n *FuncNode, info *types.Info) {
	c := &factCollector{g: g, n: n, info: info, seenEdge: make(map[*FuncNode]bool)}
	// Pre-scan assignments so self-appends (x = append(x, ...)) are not
	// reported as allocations: amortized growth of a reused buffer is
	// the repo's sanctioned zero-steady-state-alloc idiom.
	c.selfAppends = make(map[*ast.CallExpr]bool)
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		if as, ok := x.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, rhs := range as.Rhs {
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltin(info, call, "append") && len(call.Args) > 0 {
					if exprPath(as.Lhs[i]) != "" && exprPath(as.Lhs[i]) == exprPath(call.Args[0]) {
						c.selfAppends[call] = true
					}
				}
			}
		}
		return true
	})
	ast.Inspect(n.Decl.Body, c.visit)
}

type factCollector struct {
	g           *CallGraph
	n           *FuncNode
	info        *types.Info
	selfAppends map[*ast.CallExpr]bool
	seenEdge    map[*FuncNode]bool
}

func (c *factCollector) visit(x ast.Node) bool {
	s := &c.n.Summary
	switch x := x.(type) {
	case *ast.FuncLit:
		// The literal's interior belongs to whoever eventually calls it;
		// creating the closure here is the allocation.
		s.Allocs = append(s.Allocs, AllocSite{x.Pos(), "func literal"})
		return false
	case *ast.GoStmt:
		// The spawned call runs on the new goroutine: no call edge, no
		// blocking fact, but spawning itself is a fact and an allocation.
		s.Spawns = append(s.Spawns, x.Pos())
		s.Allocs = append(s.Allocs, AllocSite{x.Pos(), "go statement"})
		return false
	case *ast.SendStmt:
		s.Blocks = append(s.Blocks, BlockSite{x.Arrow, "channel send"})
		c.escapeRoot(x.Value, "sent on a channel")
		return true
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			s.Blocks = append(s.Blocks, BlockSite{x.OpPos, "channel receive"})
		}
		if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok && x.Op == token.AND {
			s.Allocs = append(s.Allocs, AllocSite{x.OpPos, "address of a composite literal"})
		}
		return true
	case *ast.SelectStmt:
		hasDefault := false
		for _, cl := range x.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			s.Blocks = append(s.Blocks, BlockSite{x.Select, "select"})
		}
		return true
	case *ast.RangeStmt:
		switch c.typeOf(x.X).(type) {
		case *types.Map:
			s.MapRanges = append(s.MapRanges, x.For)
		case *types.Chan:
			s.Blocks = append(s.Blocks, BlockSite{x.For, "channel receive (range)"})
		}
		return true
	case *ast.BinaryExpr:
		if x.Op == token.ADD {
			if t, ok := c.typeOf(x).(*types.Basic); ok && t.Info()&types.IsString != 0 {
				s.Allocs = append(s.Allocs, AllocSite{x.OpPos, "string concatenation"})
			}
		}
		return true
	case *ast.CompositeLit:
		switch c.typeOf(x).(type) {
		case *types.Slice, *types.Map:
			s.Allocs = append(s.Allocs, AllocSite{x.Pos(), "composite literal"})
		}
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			c.escapeRoot(elt, "captured in a composite literal")
		}
		return true
	case *ast.AssignStmt:
		c.visitAssign(x)
		return true
	case *ast.IncDecStmt:
		c.mutateRoot(x.X)
		return true
	case *ast.ReturnStmt:
		c.visitReturn(x)
		return true
	case *ast.CallExpr:
		return c.visitCall(x)
	}
	return true
}

func (c *factCollector) typeOf(e ast.Expr) types.Type {
	t := c.info.TypeOf(e)
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// paramOf maps an expression to the receiver-inclusive parameter index
// its value chain roots at, or -1.
func (c *factCollector) paramOf(e ast.Expr) int {
	return c.n.ParamIndex(ExprRoot(c.info, e))
}

// escapeRoot records rhs's root parameter as escaping when its type can
// carry a reference.
func (c *factCollector) escapeRoot(rhs ast.Expr, how string) {
	if p := c.paramOf(rhs); p >= 0 && isRefLike(c.info.TypeOf(rhs)) {
		addIndex(&c.n.Summary.EscapeParams, p)
	}
	_ = how
}

// mutateRoot records a write through lhs against its root parameter.
func (c *factCollector) mutateRoot(lhs ast.Expr) {
	switch lhs.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		if p := c.paramOf(lhs); p >= 0 {
			addIndex(&c.n.Summary.MutatesParams, p)
		}
	}
}

func (c *factCollector) visitAssign(as *ast.AssignStmt) {
	for _, lhs := range as.Lhs {
		c.mutateRoot(lhs)
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		switch l := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr, *ast.IndexExpr:
			c.escapeRoot(as.Rhs[i], "stored in a field or element")
			_ = l
		case *ast.Ident:
			// Assignment to a package-level variable escapes.
			if v, ok := c.info.Uses[l].(*types.Var); ok && v.Parent() == v.Pkg().Scope() {
				c.escapeRoot(as.Rhs[i], "stored in a package-level variable")
			}
		}
	}
}

func (c *factCollector) visitReturn(ret *ast.ReturnStmt) {
	for _, e := range ret.Results {
		e = ast.Unparen(e)
		if call, ok := e.(*ast.CallExpr); ok {
			// Returning the scratch-backed result of RunInto or
			// MaterializeBatch aliases the scratch argument.
			if p := c.scratchArgParam(call); p >= 0 {
				addIndex(&c.n.Summary.ResultAliasParams, p)
			}
			// Returning a same-package call's result: alias facts flow in
			// the propagation fixpoint.
			if site, ok := c.siteFor(call); ok {
				c.n.retSites = append(c.n.retSites, site)
			}
			continue
		}
		if p := c.paramOf(e); p >= 0 && isRefLike(c.info.TypeOf(e)) {
			addIndex(&c.n.Summary.ResultAliasParams, p)
		}
	}
}

func (c *factCollector) visitCall(call *ast.CallExpr) bool {
	s := &c.n.Summary
	// panic(...) arguments run only on the crash path; nothing inside is
	// a steady-state fact.
	if isBuiltin(c.info, call, "panic") {
		return false
	}
	if tv, ok := c.info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: string ↔ []byte/[]rune copies.
		if conversionAllocates(c.info.TypeOf(call.Fun), c.info.TypeOf(call.Args[0])) {
			s.Allocs = append(s.Allocs, AllocSite{call.Pos(), "string conversion"})
		}
		return true
	}
	switch {
	case isBuiltin(c.info, call, "make"):
		s.Allocs = append(s.Allocs, AllocSite{call.Pos(), "make"})
	case isBuiltin(c.info, call, "new"):
		s.Allocs = append(s.Allocs, AllocSite{call.Pos(), "new"})
	case isBuiltin(c.info, call, "append"):
		if !c.selfAppends[call] {
			s.Allocs = append(s.Allocs, AllocSite{call.Pos(), "append into a new backing array"})
		}
		for _, arg := range call.Args[1:] {
			c.escapeRoot(arg, "appended to a slice")
		}
	}

	if fn := staticCallee(c.info, call); fn != nil {
		c.specialCall(call, fn)
		if callee := c.g.nodes[fn]; callee != nil {
			if site, ok := c.siteFor(call); ok {
				c.n.sites = append(c.n.sites, site)
				if !c.seenEdge[callee] {
					c.seenEdge[callee] = true
					c.n.Callees = append(c.n.Callees, callee)
					callee.Callers = append(callee.Callers, c.n)
				}
			}
		}
	}
	c.boxingArgs(call)
	return true
}

// siteFor builds the receiver-inclusive call site record for a static
// same-package call.
func (c *factCollector) siteFor(call *ast.CallExpr) (callSite, bool) {
	fn := staticCallee(c.info, call)
	if fn == nil {
		return callSite{}, false
	}
	callee := c.g.nodes[fn]
	if callee == nil {
		return callSite{}, false
	}
	site := callSite{callee: callee, pos: call.Pos()}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && fnHasRecv(fn) {
		site.argParam = append(site.argParam, c.paramOf(sel.X))
	}
	for _, arg := range call.Args {
		site.argParam = append(site.argParam, c.paramOf(arg))
	}
	return site, true
}

func fnHasRecv(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// specialCall records lock, WaitGroup, sleep and scratch facts for one
// resolved call.
func (c *factCollector) specialCall(call *ast.CallExpr, fn *types.Func) {
	s := &c.n.Summary
	if fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
		s.Blocks = append(s.Blocks, BlockSite{call.Pos(), "time.Sleep"})
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		// Not a method-style call; scratch calls are methods, locks too.
		if p := c.scratchArgParam(call); p >= 0 {
			addIndex(&s.ScratchParams, p)
		}
		return
	}
	recvT := c.info.TypeOf(sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		if isSyncType(recvT, "Mutex") || isSyncType(recvT, "RWMutex") {
			addIndex(&s.LockParams, c.paramOf(sel.X))
		}
	case "Unlock", "RUnlock":
		if isSyncType(recvT, "Mutex") || isSyncType(recvT, "RWMutex") {
			addIndex(&s.UnlockParams, c.paramOf(sel.X))
		}
	case "Wait":
		if isSyncType(recvT, "WaitGroup") {
			s.Blocks = append(s.Blocks, BlockSite{call.Pos(), "WaitGroup.Wait"})
			addIndex(&s.WaitParams, c.paramOf(sel.X))
		}
	case "Done":
		if isSyncType(recvT, "WaitGroup") {
			addIndex(&s.DoneParams, c.paramOf(sel.X))
		}
	}
	if p := c.scratchArgParam(call); p >= 0 {
		addIndex(&c.n.Summary.ScratchParams, p)
	}
}

// scratchArgParam recognises direct RunInto/MaterializeBatch calls and
// returns the parameter index rooting the Scratch argument, or -1.
func (c *factCollector) scratchArgParam(call *ast.CallExpr) int {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "RunInto" && sel.Sel.Name != "MaterializeBatch") {
		return -1
	}
	for _, arg := range call.Args {
		if isScratch(c.info.TypeOf(arg)) {
			if p := c.paramOf(arg); p >= 0 {
				return p
			}
		}
	}
	return -1
}

// boxingArgs records interface conversions at call boundaries: a
// concrete-typed argument passed to an interface-typed parameter is
// boxed, which may allocate.
func (c *factCollector) boxingArgs(call *ast.CallExpr) {
	sig, ok := c.info.TypeOf(call.Fun).(*types.Signature)
	if !ok || sig.Params() == nil {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if sl, ok := sig.Params().At(np - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := c.info.TypeOf(arg)
		if at == nil || at == types.Typ[types.UntypedNil] {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		if _, argIface := at.Underlying().(*types.Interface); argIface {
			continue
		}
		c.n.Summary.Allocs = append(c.n.Summary.Allocs, AllocSite{arg.Pos(), "interface conversion"})
	}
}

// conversionAllocates reports string↔[]byte/[]rune conversions, which
// copy their operand.
func conversionAllocates(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		sl, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := sl.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(to) && isByteOrRuneSlice(from)) || (isByteOrRuneSlice(to) && isStr(from))
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// isSyncType reports whether t is (a pointer to) sync.<name>.
func isSyncType(t types.Type, name string) bool {
	t = deref(t)
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}

// isScratch reports whether t is (a pointer to) a named type Scratch,
// the convention shared with the scratchalias analyzer.
func isScratch(t types.Type) bool {
	named, ok := deref(t).(*types.Named)
	return ok && named.Obj().Name() == "Scratch"
}

func deref(t types.Type) types.Type {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			return t
		}
		t = ptr.Elem()
	}
}

// isRefLike reports whether values of t can carry references to other
// memory; plain scalars and strings cannot.
func isRefLike(t types.Type) bool {
	return refLike(t, make(map[types.Type]bool))
}

// refLike is isRefLike's worker: structs and arrays carry a reference
// only when some field or element (transitively) does, so copying a
// plain value struct is not an escape. seen breaks recursive types.
func refLike(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map,
		*types.Interface, *types.Chan, *types.Signature:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refLike(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return refLike(u.Elem(), seen)
	}
	return false
}

// exprPath renders a selector/index chain as a stable string for
// self-append matching; expressions outside the vocabulary render "".
func exprPath(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := exprPath(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.IndexExpr:
		base := exprPath(x.X)
		idx := exprPath(x.Index)
		if base == "" {
			return ""
		}
		if idx == "" {
			if lit, ok := x.Index.(*ast.BasicLit); ok {
				idx = lit.Value
			} else {
				return ""
			}
		}
		return base + "[" + idx + "]"
	case *ast.StarExpr:
		base := exprPath(x.X)
		if base == "" {
			return ""
		}
		return "*" + base
	}
	return ""
}
