package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// floatEq flags == and != between floating-point operands. Path lengths
// and cut costs are sums of float64 edge weights whose low bits depend
// on summation order, so exact comparison silently flips tie decisions
// between runs; comparisons must go through the epsilon helpers
// (Problem.tieEps, lp's tolerances) instead. Infinity-sentinel checks
// (x == math.Inf(1), x == inf()) are exempt — infinity is absorbing and
// exact by construction. _test.go files are exempt wholesale: the test
// suite's exact comparisons assert the repo's bit-reproducibility
// contract (kernels vs their test reference, resume, cache equivalence).
//
// Float-ness is inferred without go/types: from float literals,
// float32/float64 declarations in the enclosing function, float-typed
// struct fields and float-returning functions declared in the same
// package, float conversions, and math.* calls.
type floatEq struct{}

// NewFloatEq returns the floateq analyzer.
func NewFloatEq() Analyzer { return floatEq{} }

func (floatEq) Name() string { return "floateq" }
func (floatEq) Doc() string {
	return "no ==/!= on float operands outside the epsilon helpers"
}

// mathBoolFuncs are math.* predicates that return bool/int, not floats.
var mathBoolFuncs = map[string]bool{
	"Signbit": true, "IsNaN": true, "IsInf": true, "Ilogb": true,
	"Float64bits": true, "Float32bits": true,
}

func (floatEq) Check(pkg *Package) []Diagnostic {
	fields := floatFields(pkg)
	funcs := floatFuncs(pkg)
	var out []Diagnostic
	for _, f := range pkg.Files {
		// Tests assert bit-identical reproducibility on purpose — live vs
		// frozen kernels, checkpoint resume, cache equivalence — so exact
		// float comparison there is the contract, not a fragility.
		if strings.HasSuffix(f.Filename, "_test.go") {
			continue
		}
		mathName := importName(f.AST, "math")
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sc := &floatScope{
				vars:     floatVarsOf(fd),
				slices:   floatSlicesOf(fd),
				fields:   fields,
				funcs:    funcs,
				mathName: mathName,
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				if !sc.isFloat(be.X) && !sc.isFloat(be.Y) {
					return true
				}
				if sc.isInfSentinel(be.X) || sc.isInfSentinel(be.Y) {
					return true
				}
				out = append(out, pkg.diag(f, be.Pos(), "floateq", fmt.Sprintf(
					"%s on float operands is order-of-summation sensitive; compare within an epsilon (tieEps) or restructure the check", be.Op)))
				return true
			})
		}
	}
	return out
}

type floatScope struct {
	vars     map[string]bool // float-typed idents in the enclosing func
	slices   map[string]bool // []float-typed idents in the enclosing func
	fields   map[string]bool // float-typed struct field names, package-wide
	funcs    map[string]bool // float-returning func/method names, package-wide
	mathName string          // local name of the math import, "" if absent
}

// isFloat reports whether e is a floating-point expression per the
// scope's syntactic knowledge.
func (sc *floatScope) isFloat(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.BasicLit:
		return v.Kind == token.FLOAT
	case *ast.Ident:
		return sc.vars[v.Name]
	case *ast.SelectorExpr:
		return sc.fields[v.Sel.Name]
	case *ast.ParenExpr:
		return sc.isFloat(v.X)
	case *ast.UnaryExpr:
		return sc.isFloat(v.X)
	case *ast.BinaryExpr:
		switch v.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
			return sc.isFloat(v.X) || sc.isFloat(v.Y)
		}
		return false
	case *ast.IndexExpr:
		if id, ok := v.X.(*ast.Ident); ok {
			return sc.slices[id.Name]
		}
		return false
	case *ast.CallExpr:
		switch fn := v.Fun.(type) {
		case *ast.Ident:
			if fn.Name == "float64" || fn.Name == "float32" {
				return true
			}
			return sc.funcs[fn.Name]
		case *ast.SelectorExpr:
			if name, ok := isPkgSel(fn, sc.mathName); ok {
				return !mathBoolFuncs[name]
			}
			return sc.funcs[fn.Sel.Name]
		}
		return false
	}
	return false
}

// isInfSentinel recognizes exact-infinity comparisons: math.Inf(...) or
// a call to a function literally named inf.
func (sc *floatScope) isInfSentinel(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "inf"
	case *ast.SelectorExpr:
		name, ok := isPkgSel(fn, sc.mathName)
		return ok && name == "Inf"
	}
	return false
}

// isFloatType matches the spellable float types.
func isFloatType(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && (id.Name == "float64" || id.Name == "float32")
}

// isFloatSliceType matches []float64 / []float32.
func isFloatSliceType(e ast.Expr) bool {
	at, ok := e.(*ast.ArrayType)
	return ok && at.Len == nil && isFloatType(at.Elt)
}

// floatFields collects float-typed struct field names across the package.
func floatFields(pkg *Package) map[string]bool {
	set := make(map[string]bool)
	for _, f := range pkg.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !isFloatType(field.Type) {
					continue
				}
				for _, name := range field.Names {
					set[name.Name] = true
				}
			}
			return true
		})
	}
	return set
}

// floatFuncs collects package-level funcs/methods whose single result is
// a float type.
func floatFuncs(pkg *Package) map[string]bool {
	set := make(map[string]bool)
	for _, f := range pkg.Files {
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Type.Results == nil || len(fd.Type.Results.List) != 1 {
				continue
			}
			r := fd.Type.Results.List[0]
			if len(r.Names) <= 1 && isFloatType(r.Type) {
				set[fd.Name.Name] = true
			}
		}
	}
	return set
}

// floatVarsOf gathers float-typed identifiers declared in fd: params,
// named results, var decls, and := bindings whose RHS is a float literal
// or float conversion.
func floatVarsOf(fd *ast.FuncDecl) map[string]bool {
	vars := make(map[string]bool)
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if !isFloatType(field.Type) {
				continue
			}
			for _, name := range field.Names {
				vars[name.Name] = true
			}
		}
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)
	addFields(fd.Type.Results)
	if fd.Body == nil {
		return vars
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.DeclStmt:
			gd, ok := s.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || !isFloatType(vs.Type) {
					continue
				}
				for _, name := range vs.Names {
					vars[name.Name] = true
				}
			}
		case *ast.AssignStmt:
			if s.Tok != token.DEFINE || len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				switch r := s.Rhs[i].(type) {
				case *ast.BasicLit:
					if r.Kind == token.FLOAT {
						vars[id.Name] = true
					}
				case *ast.CallExpr:
					if fn, ok := r.Fun.(*ast.Ident); ok && (fn.Name == "float64" || fn.Name == "float32") {
						vars[id.Name] = true
					}
				}
			}
		}
		return true
	})
	return vars
}

// floatSlicesOf gathers []float-typed identifiers from fd's signature
// and var decls.
func floatSlicesOf(fd *ast.FuncDecl) map[string]bool {
	vars := make(map[string]bool)
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if !isFloatSliceType(field.Type) {
				continue
			}
			for _, name := range field.Names {
				vars[name.Name] = true
			}
		}
	}
	addFields(fd.Type.Params)
	addFields(fd.Type.Results)
	if fd.Body == nil {
		return vars
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		s, ok := n.(*ast.AssignStmt)
		if !ok || s.Tok != token.DEFINE || len(s.Lhs) != len(s.Rhs) {
			return true
		}
		for i, lhs := range s.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if call, ok := s.Rhs[i].(*ast.CallExpr); ok {
				if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "make" && len(call.Args) > 0 && isFloatSliceType(call.Args[0]) {
					vars[id.Name] = true
				}
			}
		}
		return true
	})
	return vars
}
