// Package errdrop flags discarded error results in the state-machine
// and worker layers, where a swallowed error wedges a node instead of
// crashing it: the workers' shared step loop, the cluster layer's
// health probes and handoff pushes, the fleet serving path, and the
// command-line drivers. A call statement that ignores an error-typed
// result, a `go` statement that launches one, and an assignment that
// sends the error to the blank identifier are all diagnostics; the
// fix is to handle the error, log it with the request's trace
// context, or waive the site with a reasoned //lint:allow errdrop.
//
// Deliberately exempt, to keep the signal high:
//
//   - deferred calls: `defer f.Close()` runs where no handler can do
//     better than ignore (flagging it would train people to write
//     noisy waivers, not better code);
//   - fmt.* printers (their errors are terminal-write failures);
//   - writes to bytes.Buffer and strings.Builder, and to hashers
//     (hash/*, crypto/*) — documented to never fail.
package errdrop

import (
	"go/ast"
	"go/types"
	"strings"

	"clrdse/internal/analysis"
)

// Analyzer is the errdrop check.
var Analyzer = &analysis.Analyzer{
	Name: "errdrop",
	Doc: "flag silently discarded error results (call statements, go statements, blank " +
		"assignments) in worker/cluster/fleet/cmd code; handle, log, or waive with a reason",
	Run: run,
}

// scopePackages names the layers (by final import-path element) where
// a dropped error is a wedge risk. The analysis framework itself and
// the experiment harnesses stay out: their error discipline is the
// Go default, not this contract.
var scopePackages = map[string]bool{
	"control":   true,
	"evolve":    true,
	"cluster":   true,
	"fleet":     true,
	"client":    true,
	"fleettest": true,
	"soak":      true,
	"clrdse":    true,
	"clrserved": true,
	"clrload":   true,
	"clrchaos":  true,
	"tgffgen":   true,
}

var errType = types.Universe.Lookup("error").Type()

func run(pass *analysis.Pass) error {
	if !scopePackages[analysis.PkgBase(pass.Pkg.Path())] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				checkCallStmt(pass, s.X, "")
			case *ast.GoStmt:
				checkCallStmt(pass, s.Call, " by go statement")
			case *ast.DeferStmt:
				// Deferred cleanup: exempt (see package doc). Still
				// walk the arguments, which evaluate at defer time.
				for _, arg := range s.Call.Args {
					ast.Inspect(arg, func(m ast.Node) bool {
						if es, ok := m.(*ast.ExprStmt); ok {
							checkCallStmt(pass, es.X, "")
						}
						return true
					})
				}
				return false
			case *ast.AssignStmt:
				checkBlankAssign(pass, s)
			}
			return true
		})
	}
	return nil
}

// checkCallStmt reports a statement-level call whose results include
// an unreceived error.
func checkCallStmt(pass *analysis.Pass, e ast.Expr, how string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	f := analysis.FuncOf(pass.TypesInfo, call)
	if exemptCall(pass, call, f) {
		return
	}
	if !returnsError(pass, call) {
		return
	}
	pass.Reportf(call.Pos(), "error result of %s is discarded%s; handle it, log it, or waive with //lint:allow errdrop <reason>",
		calleeName(pass, call, f), how)
}

// checkBlankAssign reports error results assigned to the blank
// identifier — an explicit discard that still deserves a reason.
func checkBlankAssign(pass *analysis.Pass, s *ast.AssignStmt) {
	// Multi-value form: x, _ := f().
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		f := analysis.FuncOf(pass.TypesInfo, call)
		if exemptCall(pass, call, f) {
			return
		}
		tuple, ok := pass.TypesInfo.TypeOf(call).(*types.Tuple)
		if !ok || tuple.Len() != len(s.Lhs) {
			return
		}
		for i, lhs := range s.Lhs {
			if isBlank(lhs) && types.Identical(tuple.At(i).Type(), errType) {
				pass.Reportf(lhs.Pos(), "error result of %s is assigned to _; handle it, log it, or waive with //lint:allow errdrop <reason>",
					calleeName(pass, call, f))
			}
		}
		return
	}
	// Paired form: _ = f() (and _, _ = f(), g()).
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, lhs := range s.Lhs {
		if !isBlank(lhs) {
			continue
		}
		call, ok := ast.Unparen(s.Rhs[i]).(*ast.CallExpr)
		if !ok {
			continue
		}
		f := analysis.FuncOf(pass.TypesInfo, call)
		if exemptCall(pass, call, f) {
			continue
		}
		if !returnsError(pass, call) {
			continue
		}
		pass.Reportf(lhs.Pos(), "error result of %s is assigned to _; handle it, log it, or waive with //lint:allow errdrop <reason>",
			calleeName(pass, call, f))
	}
}

// returnsError reports whether any of the call's results is the
// error type.
func returnsError(pass *analysis.Pass, call *ast.CallExpr) bool {
	t := pass.TypesInfo.TypeOf(call)
	switch rt := t.(type) {
	case *types.Tuple:
		for i := 0; i < rt.Len(); i++ {
			if types.Identical(rt.At(i).Type(), errType) {
				return true
			}
		}
		return false
	default:
		return t != nil && types.Identical(t, errType)
	}
}

// exemptCall implements the documented exemptions. Beyond the callee
// itself, the receiver expression's static type is classified too:
// writing to a value held as hash.Hash64 resolves the Write method to
// io.Writer (interface embedding), so the callee's own receiver says
// "io" while the value is a hasher.
func exemptCall(pass *analysis.Pass, call *ast.CallExpr, f *types.Func) bool {
	if exemptCallee(f) {
		return true
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return exemptOwner(named.Obj().Pkg().Path(), named.Obj().Name())
}

// exemptCallee classifies the callee's own receiver type. A nil
// callee (dynamic call through a function value) is not exempt.
func exemptCallee(f *types.Func) bool {
	if f == nil {
		return false
	}
	if f.Pkg() != nil && f.Pkg().Path() == "fmt" {
		return true
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return exemptOwner(named.Obj().Pkg().Path(), named.Obj().Name())
}

// exemptOwner is the receiver-type allowlist: buffer/builder writes
// and hashers are documented never to fail.
func exemptOwner(path, name string) bool {
	switch {
	case path == "bytes" && name == "Buffer":
		return true
	case path == "strings" && name == "Builder":
		return true
	case path == "hash" || strings.HasPrefix(path, "hash/"):
		return true
	case path == "crypto" || strings.HasPrefix(path, "crypto/"):
		return true
	}
	return false
}

func calleeName(pass *analysis.Pass, call *ast.CallExpr, f *types.Func) string {
	if f != nil {
		return f.Name()
	}
	return types.ExprString(call.Fun)
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
