// Package hotpath enforces the PR 4 rule that latency-critical threads
// never touch I/O or block: functions annotated //orthrus:hotpath (CC
// drain loops, SPSC ring operations, execution-thread commit paths) and
// everything they statically call may not perform file or network I/O,
// fmt/log printing, sleeps, or blocking channel operations.
//
// The analyzer walks the static call graph from each annotated root
// through every function defined in the load unit. At the leaves it
// checks calls against a forbidden list of standard-library operations
// (all of os, net, log, bufio and syscall; fmt's printing and scanning
// functions; time.Sleep/After/Tick/NewTimer/NewTicker). Within bodies
// it flags channel sends and receives, except inside a select that has
// a default clause — the non-blocking shape the WAL wake channel and
// the exec-thread submission poll use.
//
// Two escapes, both deliberate and self-documenting:
//
//   - //orthrus:coldpath <reason> on a function marks an intentional
//     traversal boundary (an idle backoff that sleeps, a rare
//     control-plane handler); the walk does not descend into it. The
//     reason is mandatory.
//   - //orthrus:allow(hotpath) <reason> suppresses a single site.
//
// Dynamic calls — function values, interface dispatch — are not
// traversed; hot loops that dispatch through an interface (the
// orthrus package's sender, behind which an SPSC ring or a tcp
// netQueue publishes) annotate the concrete implementations as roots
// instead.
package hotpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the hotpath pass.
var Analyzer = &analysis.Analyzer{
	Name:       "hotpath",
	Doc:        "//orthrus:hotpath functions and their static callees must not do I/O, print, sleep, or block on channels",
	RunProgram: run,
}

// forbiddenPkgs are wholesale-forbidden import paths.
var forbiddenPkgs = map[string]string{
	"os":      "file I/O",
	"net":     "network I/O",
	"log":     "logging",
	"bufio":   "buffered I/O",
	"syscall": "system calls",
}

// forbiddenFuncs are forbidden (package, function-prefix) pairs in
// otherwise allowed packages.
var forbiddenFuncs = map[string][]string{
	"fmt":  {"Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf", "Scan", "Sscan", "Fscan"},
	"time": {"Sleep", "After", "Tick", "NewTimer", "NewTicker"},
}

func run(pass *analysis.Pass) error {
	w := &walker{pass: pass, reported: make(map[token.Pos]bool)}
	for _, pkg := range pass.Prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if _, ok := pass.Prog.Directive(fd, "hotpath"); !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				w.visited = map[*types.Func]bool{obj: true}
				w.root = obj
				w.check(pkg, fd, nil)
			}
		}
	}
	// Coldpath boundaries must say why.
	for _, pkg := range pass.Prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if reason, ok := pass.Prog.Directive(fd, "coldpath"); ok && reason == "" {
						pass.Reportf(fd.Pos(), "//orthrus:coldpath requires a reason")
					}
				}
			}
		}
	}
	return nil
}

type walker struct {
	pass     *analysis.Pass
	root     *types.Func
	visited  map[*types.Func]bool
	reported map[token.Pos]bool
}

// via renders the call chain from the root to the current function.
func via(chain []*types.Func) string {
	if len(chain) == 0 {
		return ""
	}
	names := make([]string, len(chain))
	for i, f := range chain {
		names[i] = f.Name()
	}
	return " via " + strings.Join(names, " → ")
}

// check walks fd's body, flagging forbidden operations and descending
// into statically resolved callees defined in the load unit. chain is
// the call path from the root to fd (nil at the root itself).
func (w *walker) check(pkg *analysis.Package, fd *ast.FuncDecl, chain []*types.Func) {
	if fd.Body == nil {
		return
	}
	w.node(pkg, fd.Body, chain, false)
}

// node recursively walks n. selectDefault is true when n is inside a
// select statement that has a default clause (its channel operations
// are non-blocking).
func (w *walker) node(pkg *analysis.Package, n ast.Node, chain []*types.Func, selectDefault bool) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.SelectStmt:
		hasDefault := false
		for _, clause := range n.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		for _, clause := range n.Body.List {
			cc := clause.(*ast.CommClause)
			// The communicated operation is non-blocking iff the select
			// has a default; the clause bodies run normally.
			w.node(pkg, cc.Comm, chain, hasDefault)
			for _, s := range cc.Body {
				w.node(pkg, s, chain, false)
			}
		}
		return
	case *ast.SendStmt:
		if !selectDefault {
			w.flag(n.Pos(), "blocking channel send", chain)
		}
		w.node(pkg, n.Chan, chain, false)
		w.node(pkg, n.Value, chain, false)
		return
	case *ast.UnaryExpr:
		if n.Op == token.ARROW && !selectDefault {
			w.flag(n.Pos(), "blocking channel receive", chain)
		}
	case *ast.RangeStmt:
		if tv, ok := pkg.Info.Types[n.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.flag(n.X.Pos(), "blocking channel receive (range over channel)", chain)
			}
		}
	case *ast.GoStmt:
		// The spawned body runs on another goroutine; the spawn itself
		// is cheap and allowed.
		return
	case *ast.CallExpr:
		w.call(pkg, n, chain)
	case *ast.FuncLit:
		// A literal's body may run elsewhere, but every in-tree hot
		// path that builds one runs it inline; walking it keeps the
		// analysis conservative.
	}
	// Generic descent.
	children(n, func(c ast.Node) {
		w.node(pkg, c, chain, selectDefault && isCommPart(n))
	})
}

// isCommPart reports nodes whose direct children keep select-default
// context (assignment/expression wrappers inside a CommClause comm).
func isCommPart(n ast.Node) bool {
	switch n.(type) {
	case *ast.AssignStmt, *ast.ExprStmt:
		return true
	}
	return false
}

// call checks one call site and descends into the callee when it is
// defined in the load unit.
func (w *walker) call(pkg *analysis.Package, call *ast.CallExpr, chain []*types.Func) {
	fn := analysis.Callee(pkg.Info, call)
	if fn == nil {
		return
	}
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	if what, bad := forbiddenPkgs[path]; bad {
		w.flag(call.Pos(), fmt.Sprintf("calls %s.%s (%s)", path, fn.Name(), what), chain)
		return
	}
	for _, prefix := range forbiddenFuncs[path] {
		if strings.HasPrefix(fn.Name(), prefix) {
			w.flag(call.Pos(), fmt.Sprintf("calls %s.%s", path, fn.Name()), chain)
			return
		}
	}
	decl, ok := w.pass.Prog.Decls[fn]
	if !ok || w.visited[fn] {
		return
	}
	if _, cold := w.pass.Prog.Directive(decl, "coldpath"); cold {
		return
	}
	w.visited[fn] = true
	w.check(w.pass.Prog.DeclPkg[fn], decl, append(chain, fn))
}

// flag reports one forbidden operation, once per site per root.
func (w *walker) flag(pos token.Pos, what string, chain []*types.Func) {
	if w.reported[pos] {
		return
	}
	w.reported[pos] = true
	w.pass.Reportf(pos, "%s on the hot path of //orthrus:hotpath %s%s", what, w.root.FullName(), via(chain))
}

// children invokes fn for each direct child node of n, using
// ast.Inspect's traversal but stopping at depth one.
func children(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			fn(c)
		}
		return false
	})
}
