package lint

// ackflow: the paper-level durability invariant as a dataflow check. The
// crowdsourcing budget is spent in a single non-interactive round, so a vote
// batch the daemon acknowledges must already be durable — an ack that races a
// crash loses paid, irreplaceable comparisons. The rule names ingest entry
// points (sources), acknowledgement sites (sinks), and the durability barrier
// (journal append + sync); the check walks every call path from each source
// as a may-analysis — a live branch counts as "passed the barrier" if the
// barrier is reachable on it, and branches that return are excluded from the
// merge — and reports any sink reachable with the barrier still unpassed.
// Same-package callees are inlined (memoized on the incoming barrier state);
// function literals and cross-package callees other than the barrier itself
// are treated as opaque.
//
// Everything is matched by name so the check survives refactors — and so a
// refactor that renames a configured function cannot silently disarm the
// check: a source or sink name that no longer resolves is itself a finding.

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// AckflowRule configures one durability dataflow check, evaluated in the
// package named by Pkg.
type AckflowRule struct {
	// Pkg is the import path of the package holding the sources and sinks.
	Pkg string
	// Sources are entry points, named "Func" or "Recv.Method", resolved in
	// Pkg. Every source must exist, or the rule reports a staleness finding.
	Sources []string
	// Barriers are the durability functions, named fully qualified
	// ("pkgpath.Recv.Method" or "pkgpath.Func") or, for same-package
	// barriers, "Recv.Method"/"Func". Reaching any of them marks the path
	// durable.
	Barriers []string
	// Sinks are acknowledgement sites.
	Sinks []AckSink
}

// AckSink names one acknowledgement function ("Func", "Recv.Method", or
// fully qualified). When ConstArg is non-zero the call only counts as an ack
// if some argument is a constant integer equal to it — e.g.
// writeJSON(w, 200, ...) acks, writeJSON(w, 503, ...) does not.
type AckSink struct {
	Func     string
	ConstArg int64
}

// ackflowRules returns the configured rules, defaulting to the daemon's
// durable-before-ack contract: no path from serve's ingest entry points, or
// from a follower's replicated records, may reach the vote-state apply or a
// 200 response before journal.Append (which syncs before returning under
// SyncAlways).
func (c Config) ackflowRules() []AckflowRule {
	if c.Ackflow != nil {
		return c.Ackflow
	}
	return []AckflowRule{{
		Pkg:      "crowdrank/internal/serve",
		Sources:  []string{"Server.Ingest", "Server.IngestKeyed", "Server.handleVotes", "Server.ApplyReplicated"},
		Barriers: []string{"crowdrank/internal/journal.Journal.Append"},
		Sinks: []AckSink{
			{Func: "voteState.apply"},
			{Func: "Server.writeJSON", ConstArg: 200},
		},
	}}
}

func (a *analysis) checkAckflow(rule AckflowRule) {
	if len(rule.Barriers) == 0 || len(rule.Sources) == 0 {
		a.report(a.pkg.files[0].Package, "ackflow",
			"rule for %s names no %s; a barrier-less or source-less rule checks nothing", rule.Pkg,
			map[bool]string{true: "barrier", false: "source"}[len(rule.Barriers) == 0])
		return
	}
	w := &ackWalk{
		a:        a,
		rule:     rule,
		decls:    map[*types.Func]*ast.FuncDecl{},
		memo:     map[ackMemoKey]bool{},
		active:   map[*types.Func]bool{},
		reported: map[ast.Node]bool{},
		sinkSeen: map[string]bool{},
	}
	names := map[string]*ast.FuncDecl{}
	for _, f := range a.pkg.files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := a.pkg.info.Defs[fd.Name].(*types.Func); ok {
				w.decls[fn] = fd
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				name = recvTypeName(fd) + "." + name
			}
			names[name] = fd
		}
	}
	for _, src := range rule.Sources {
		fd, ok := names[src]
		if !ok || fd.Body == nil {
			// A renamed source would otherwise disarm the whole check.
			a.report(a.pkg.files[0].Package, "ackflow",
				"configured source %s does not resolve in %s; update Config.Ackflow to match the refactor", src, rule.Pkg)
			continue
		}
		w.source = src
		w.exitStack = append(w.exitStack, false)
		w.stmts(fd.Body.List, false)
		w.exitStack = w.exitStack[:len(w.exitStack)-1]
	}
	// A sink name that resolves nowhere and was never called is equally
	// stale. Fully qualified (cross-package) sinks are exempt: they cannot
	// be declared here.
	for _, sink := range rule.Sinks {
		if strings.Contains(sink.Func, "/") {
			continue
		}
		if _, ok := names[sink.Func]; !ok && !w.sinkSeen[sink.Func] {
			a.report(a.pkg.files[0].Package, "ackflow",
				"configured sink %s does not resolve in %s; update Config.Ackflow to match the refactor", sink.Func, rule.Pkg)
		}
	}
}

type ackMemoKey struct {
	fn      *types.Func
	barrier bool
}

// ackFlow is the dataflow fact after a statement: the may-barrier state and
// whether the statement ends the enclosing path with a return.
type ackFlow struct {
	b    bool
	term bool
}

type ackWalk struct {
	a        *analysis
	rule     AckflowRule
	decls    map[*types.Func]*ast.FuncDecl
	memo     map[ackMemoKey]bool
	active   map[*types.Func]bool
	reported map[ast.Node]bool
	sinkSeen map[string]bool
	source   string
	// exitStack accumulates, per inlined function, the OR of the barrier
	// state at each of its return statements.
	exitStack []bool
}

// fn walks a same-package callee with the given incoming barrier state and
// returns the may-barrier state at exit (the OR over all return sites and
// the fall-through end).
func (w *ackWalk) fn(fn *types.Func, barrier bool) bool {
	decl := w.decls[fn]
	if decl == nil || decl.Body == nil {
		return barrier
	}
	key := ackMemoKey{fn: fn, barrier: barrier}
	if out, ok := w.memo[key]; ok {
		return out
	}
	if w.active[fn] {
		return barrier
	}
	w.active[fn] = true
	w.exitStack = append(w.exitStack, false)
	f := w.stmts(decl.Body.List, barrier)
	out := w.exitStack[len(w.exitStack)-1]
	w.exitStack = w.exitStack[:len(w.exitStack)-1]
	if !f.term {
		out = out || f.b
	}
	delete(w.active, fn)
	w.memo[key] = out
	return out
}

func (w *ackWalk) stmts(list []ast.Stmt, b bool) ackFlow {
	for _, s := range list {
		f := w.stmt(s, b)
		if f.term {
			return f
		}
		b = f.b
	}
	return ackFlow{b: b}
}

func (w *ackWalk) stmt(s ast.Stmt, b bool) ackFlow {
	switch s := s.(type) {
	case nil:
		return ackFlow{b: b}
	case *ast.ExprStmt:
		return ackFlow{b: w.expr(s.X, b)}
	case *ast.SendStmt:
		b = w.expr(s.Chan, b)
		return ackFlow{b: w.expr(s.Value, b)}
	case *ast.IncDecStmt:
		return ackFlow{b: w.expr(s.X, b)}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			b = w.expr(e, b)
		}
		for _, e := range s.Lhs {
			b = w.expr(e, b)
		}
		return ackFlow{b: b}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			b = w.expr(e, b)
		}
		top := len(w.exitStack) - 1
		w.exitStack[top] = w.exitStack[top] || b
		return ackFlow{b: b, term: true}
	case *ast.DeferStmt:
		for _, e := range s.Call.Args {
			b = w.expr(e, b)
		}
		return ackFlow{b: b}
	case *ast.GoStmt:
		for _, e := range s.Call.Args {
			b = w.expr(e, b)
		}
		return ackFlow{b: b}
	case *ast.BlockStmt:
		return w.stmts(s.List, b)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, b)
	case *ast.IfStmt:
		f := w.stmt(s.Init, b)
		b = w.expr(s.Cond, f.b)
		t := w.stmts(s.Body.List, b)
		e := ackFlow{b: b}
		if s.Else != nil {
			e = w.stmt(s.Else, b)
		}
		return mergeAck(b, t, e)
	case *ast.ForStmt:
		f := w.stmt(s.Init, b)
		b = f.b
		if s.Cond != nil {
			b = w.expr(s.Cond, b)
		}
		body := w.stmts(s.Body.List, b)
		body = w.stmt(s.Post, body.b)
		// Zero iterations and break paths both reach the statement after
		// the loop, so the loop never terminates the outer path and the
		// exit state is the OR of entry and body.
		return ackFlow{b: b || body.b}
	case *ast.RangeStmt:
		b = w.expr(s.X, b)
		body := w.stmts(s.Body.List, b)
		return ackFlow{b: b || body.b}
	case *ast.SwitchStmt:
		f := w.stmt(s.Init, b)
		b = f.b
		if s.Tag != nil {
			b = w.expr(s.Tag, b)
		}
		return w.clauseMerge(s.Body.List, b)
	case *ast.TypeSwitchStmt:
		f := w.stmt(s.Init, b)
		f = w.stmt(s.Assign, f.b)
		return w.clauseMerge(s.Body.List, f.b)
	case *ast.SelectStmt:
		return w.clauseMerge(s.Body.List, b)
	default:
		return ackFlow{b: b}
	}
}

// mergeAck ORs the live (non-returning) branch exits of a two-way split; if
// every branch returns, the split terminates the path.
func mergeAck(pre bool, branches ...ackFlow) ackFlow {
	_ = pre
	out := ackFlow{term: true}
	for _, f := range branches {
		if f.term {
			continue
		}
		out.term = false
		out.b = out.b || f.b
	}
	return out
}

// clauseMerge handles switch/select bodies: each clause runs on the entry
// state; live clause exits OR together, and a missing default keeps the
// entry state as a live fall-through.
func (w *ackWalk) clauseMerge(list []ast.Stmt, b bool) ackFlow {
	branches := []ackFlow{}
	hasDefault := false
	for _, cs := range list {
		cb := b
		var body []ast.Stmt
		switch cc := cs.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			for _, e := range cc.List {
				cb = w.expr(e, cb)
			}
			body = cc.Body
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			}
			f := w.stmt(cc.Comm, cb)
			cb = f.b
			body = cc.Body
		}
		branches = append(branches, w.stmts(body, cb))
	}
	if !hasDefault {
		branches = append(branches, ackFlow{b: b})
	}
	return mergeAck(b, branches...)
}

// expr threads the barrier state through an expression, classifying calls in
// evaluation order (receiver and arguments before the call itself).
func (w *ackWalk) expr(e ast.Expr, b bool) bool {
	switch e := e.(type) {
	case nil:
		return b
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			b = w.expr(sel.X, b)
		}
		for _, arg := range e.Args {
			b = w.expr(arg, b)
		}
		return w.call(e, b)
	case *ast.FuncLit:
		return b
	case *ast.ParenExpr:
		return w.expr(e.X, b)
	case *ast.SelectorExpr:
		return w.expr(e.X, b)
	case *ast.StarExpr:
		return w.expr(e.X, b)
	case *ast.UnaryExpr:
		return w.expr(e.X, b)
	case *ast.BinaryExpr:
		b = w.expr(e.X, b)
		return w.expr(e.Y, b)
	case *ast.KeyValueExpr:
		return w.expr(e.Value, b)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			b = w.expr(el, b)
		}
		return b
	case *ast.IndexExpr:
		b = w.expr(e.X, b)
		return w.expr(e.Index, b)
	case *ast.SliceExpr:
		b = w.expr(e.X, b)
		b = w.expr(e.Low, b)
		b = w.expr(e.High, b)
		return w.expr(e.Max, b)
	case *ast.TypeAssertExpr:
		return w.expr(e.X, b)
	default:
		return b
	}
}

func (w *ackWalk) call(call *ast.CallExpr, b bool) bool {
	callee := calleeFunc(w.a.pkg.info, call)
	if callee == nil {
		return b
	}
	qualified, local := ackFuncNames(callee, w.rule.Pkg)
	for _, barrier := range w.rule.Barriers {
		if barrier == qualified || (local != "" && barrier == local) {
			return true
		}
	}
	for _, sink := range w.rule.Sinks {
		if sink.Func != qualified && (local == "" || sink.Func != local) {
			continue
		}
		if sink.ConstArg != 0 && !hasConstIntArg(w.a.pkg.info, call, sink.ConstArg) {
			continue
		}
		w.sinkSeen[sink.Func] = true
		if !b && !w.reported[call] {
			w.reported[call] = true
			w.a.report(call.Pos(), "ackflow",
				"%s is reachable from %s before the durability barrier (%s); a crash here loses paid votes — acknowledge only after journal append + sync",
				sink.Func, w.source, w.rule.Barriers[0])
		}
		return b
	}
	if local != "" { // same-package callee: inline
		return w.fn(callee, b)
	}
	return b
}

// ackFuncNames renders a callee as its fully qualified name and, when it
// belongs to rulePkg, its package-local name.
func ackFuncNames(fn *types.Func, rulePkg string) (qualified, local string) {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedRecv(sig.Recv().Type()); named != nil {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() == nil {
		return name, ""
	}
	qualified = fn.Pkg().Path() + "." + name
	if fn.Pkg().Path() == rulePkg {
		local = name
	}
	return qualified, local
}

// hasConstIntArg reports whether any argument is a constant integer equal to
// want (http.StatusOK matches 200 through constant folding).
func hasConstIntArg(info *types.Info, call *ast.CallExpr, want int64) bool {
	for _, arg := range call.Args {
		tv, ok := info.Types[arg]
		if !ok || tv.Value == nil {
			continue
		}
		if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact && v == want {
			return true
		}
	}
	return false
}
