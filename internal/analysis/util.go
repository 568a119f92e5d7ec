package analysis

import (
	"go/ast"
	"go/types"
)

// namedFrom unwraps pointers and aliases to the underlying named
// type, or nil.
func namedFrom(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamedType reports whether t is (a pointer to) the named type
// pkgName.typeName. Matching is by package *name* rather than import
// path so analysistest packages exercising stand-ins resolve the same
// way the real repro packages do.
func isNamedType(t types.Type, pkgName, typeName string) bool {
	n := namedFrom(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Name() == pkgName && n.Obj().Name() == typeName
}

// isFloat reports whether t's core type is a floating-point scalar.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// calleeObj resolves the called function object of a call expression
// (plain call or method call), or nil.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			return sel.Obj()
		}
		return info.Uses[fn.Sel] // package-qualified call
	}
	return nil
}

// methodRecv returns the receiver expression of a method call, or
// nil for plain function calls.
func methodRecv(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// exprObj resolves an expression to the variable object it denotes,
// unwrapping parentheses; nil for anything but a plain identifier.
func exprObj(info *types.Info, e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil {
			return obj
		}
		return info.Defs[id]
	}
	return nil
}

// isConstString reports whether e is a compile-time string constant
// (literal or named constant) — the shape the zero-allocation
// tracing contract requires for span names.
func isConstString(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isStringExpr reports whether e has a string type.
func isStringExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// opensSpan reports whether call is a function or method call (not a
// conversion) whose result is a trace.Span — the trace.Rank openers
// themselves, or any repo-local forwarder wrapping one.
func opensSpan(p *Pass, call *ast.CallExpr) bool {
	if tv, ok := p.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return false // conversion, not a call
	}
	tv, ok := p.TypesInfo.Types[call]
	return ok && isNamedType(tv.Type, "trace", "Span")
}

// errorIface is the universe error interface.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t is error or implements it.
func isErrorType(t types.Type) bool {
	return types.Implements(t, errorIface) ||
		types.Implements(types.NewPointer(t), errorIface)
}

// funcHasDirective reports whether the function declaration carries
// the given comment directive (e.g. "//gpaw:hotpath") in its doc
// comment group.
func funcHasDirective(fd *ast.FuncDecl, directive string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == directive {
			return true
		}
	}
	return false
}

// enclosingFuncs visits every function body in the file: declared
// functions and methods. The visitor receives the declaration (for
// doc directives) and its body.
func enclosingFuncs(f *ast.File, visit func(fd *ast.FuncDecl)) {
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			visit(fd)
		}
	}
}
