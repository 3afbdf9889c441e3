// Package callsum computes per-package function summaries: for every
// function declared in the package, the list of statically resolved calls
// its body (including any function literals it encloses) makes. It is the
// shared substrate of the interprocedural skipit-vet analyzers — detflow,
// shardiso and the interprocedural half of hotalloc all walk the same
// summary graph and differ only in what they propagate along it.
//
// The resolution is deliberately conservative and purely static:
//
//   - direct calls (pkg.F(...), recv.M(...)) resolve to the *types.Func;
//   - method calls through a concrete receiver resolve to the concrete
//     method; calls through an interface resolve to the interface method
//     object (which carries no body, so facts attached to concrete
//     implementations are not seen through it);
//   - calls of function values (fields, parameters, closures bound to
//     variables) do not resolve at all.
//
// Analyzers that consume summaries therefore under-approximate the dynamic
// call graph; the rule docs in internal/analysis/README.md state this
// limitation wherever it matters.
package callsum

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

var Analyzer = &analysis.Analyzer{
	Name: "callsum",
	Doc: "compute per-function static call summaries for the interprocedural skipit-vet analyzers\n\n" +
		"Produces no diagnostics; detflow, shardiso and hotalloc consume its result.",
	Requires:   []*analysis.Analyzer{inspect.Analyzer},
	ResultType: reflect.TypeOf((*Summaries)(nil)),
	Run:        run,
}

// Summaries is the per-package result: every declared function with its
// resolved static calls, in source order (the order fixpoint propagation in
// the consumers iterates, which keeps their witness chains deterministic).
type Summaries struct {
	Funcs []*FuncInfo
	ByObj map[*types.Func]*FuncInfo
}

// FuncInfo is one declared function's summary.
type FuncInfo struct {
	Decl *ast.FuncDecl
	Obj  *types.Func
	// Calls lists the statically resolved calls in the body, in source
	// order. Calls made inside function literals declared within the body
	// are attributed to this function (conservative: the literal may run
	// later or elsewhere, but it can only be reached through this scope).
	Calls []Call
	// TestFile reports whether the declaration lives in a _test.go file.
	TestFile bool
}

// Call is one resolved call site.
type Call struct {
	Callee *types.Func
	Pos    token.Pos
}

func run(pass *analysis.Pass) (interface{}, error) {
	sums := &Summaries{ByObj: make(map[*types.Func]*FuncInfo)}
	// Standard-library packages are summarized as empty on purpose: the
	// suite's soundness contract treats std bodies as inert — sources like
	// time.Now are matched by callee name at call sites in module code.
	// The standalone driver never analyzes std at all, but under the go
	// command's unitchecker protocol every dependency of a vetted package,
	// std included, gets a fact pass; without this gate the goroutine
	// launches inside the runtime taint fmt and reflect, and through them
	// every function that formats anything.
	if pass.Module == nil || pass.Module.Path == "" || pass.Module.Path == "std" || pass.Module.Path == "cmd" {
		return sums, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		obj, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
		if !ok {
			return
		}
		fi := &FuncInfo{
			Decl:     decl,
			Obj:      obj,
			TestFile: strings.HasSuffix(pass.Fset.Position(decl.Pos()).Filename, "_test.go"),
		}
		if decl.Body != nil {
			ast.Inspect(decl.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := StaticCallee(pass.TypesInfo, call); callee != nil {
					fi.Calls = append(fi.Calls, Call{Callee: callee, Pos: call.Pos()})
				}
				return true
			})
		}
		sums.Funcs = append(sums.Funcs, fi)
		sums.ByObj[obj] = fi
	})
	return sums, nil
}

// StaticCallee resolves a call expression to the *types.Func it statically
// invokes, or nil for builtins, type conversions, and function-value calls.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return fn
}

// Name renders a function for witness chains: "pkg.F" or "(pkg.T).M", with
// the module prefix trimmed so chains stay readable in terminal diagnostics.
func Name(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	pkg := shortPkg(fn.Pkg().Path())
	if recv := recvType(fn); recv != "" {
		return fmt.Sprintf("(%s.%s).%s", pkg, recv, fn.Name())
	}
	return pkg + "." + fn.Name()
}

// recvType returns the bare receiver type name of a method, or "".
func recvType(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// shortPkg trims an import path to its last segment.
func shortPkg(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// TrimChain elides the middle of an over-long witness chain, keeping the
// first hops and the final source entry.
func TrimChain(chain []string, max int) []string {
	if len(chain) <= max {
		return chain
	}
	out := append([]string{}, chain[:max-2]...)
	return append(out, "...", chain[len(chain)-1])
}

// ShortPos renders a position as "file.go:line" (basename only), for
// embedding source anchors into witness chains.
func ShortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}
