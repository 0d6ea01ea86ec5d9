// Package wiresync keeps the wire protocol's parallel enumerations in sync.
// The message vocabulary lives in four places that the compiler never
// cross-checks: the Kind constants, the encoder's type switch
// (AppendMessage), the decoder's kind switch (Decode), the Kind.String name
// table, and the flow-control size model (ApproxSize). A message type added
// to one but not the others fails only at runtime — typically as a silent
// decode error on a live link, the worst place to learn about it.
//
// For any package shaped like the wire package (a named integer type Kind
// plus a Message interface with a Kind() method), the analyzer checks:
//
//   - every concrete Message implementation has a case in the encoder's
//     type switch;
//   - every Kind constant has a case in the decoder's switch and an entry
//     in the Kind.String name table;
//   - every payload-bearing message (one that transitively carries a slice)
//     has an explicit case in ApproxSize — the default flat estimate is
//     wildly wrong for them, and both flow-control accounting and MemNet's
//     bandwidth model depend on the estimate;
//   - when test files are in the unit, every Message implementation appears
//     in a round-trip test (a composite literal in some _test.go file).
package wiresync

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"github.com/paris-kv/paris/internal/analysis"
)

// Analyzer is the wiresync analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "wiresync",
	Doc: "every wire message type/kind must have matching encode, decode, " +
		"String and size cases, and round-trip test coverage",
	Run: run,
}

func run(pass *analysis.Pass) error {
	scope := pass.Pkg.Scope()

	// Does this package have the wire shape?
	kindObj, _ := scope.Lookup("Kind").(*types.TypeName)
	msgObj, _ := scope.Lookup("Message").(*types.TypeName)
	if kindObj == nil || msgObj == nil {
		return nil
	}
	kindType, ok := kindObj.Type().(*types.Named)
	if !ok {
		return nil
	}
	msgIface, ok := msgObj.Type().Underlying().(*types.Interface)
	if !ok || msgIface.NumMethods() == 0 {
		return nil
	}

	// The enumerations' ground truth: Kind constants and Message impls.
	var kinds []*types.Const
	var impls []*types.TypeName
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Const:
			if obj.Type() == kindType && strings.HasPrefix(obj.Name(), "Kind") {
				kinds = append(kinds, obj)
			}
		case *types.TypeName:
			if obj == kindObj || obj == msgObj {
				continue
			}
			named, ok := obj.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
				continue
			}
			if types.Implements(named, msgIface) || types.Implements(types.NewPointer(named), msgIface) {
				impls = append(impls, obj)
			}
		}
	}
	if len(kinds) == 0 || len(impls) == 0 {
		return nil
	}

	checkEncoder(pass, impls)
	checkDecoder(pass, kindType, kinds)
	checkString(pass, kindType, kinds)
	checkSize(pass, impls)
	checkRoundTrip(pass, impls)
	return nil
}

func missingNames(all []string, have map[string]bool) []string {
	var missing []string
	for _, n := range all {
		if !have[n] {
			missing = append(missing, n)
		}
	}
	sort.Strings(missing)
	return missing
}

func implNames(impls []*types.TypeName) []string {
	names := make([]string, len(impls))
	for i, t := range impls {
		names[i] = t.Name()
	}
	return names
}

// findFunc locates a top-level function declaration by name.
func findFunc(pass *analysis.Pass, name string) *ast.FuncDecl {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name {
				return fd
			}
		}
	}
	return nil
}

// typeSwitchCases collects the named-type case names of every type switch
// in fd.
func typeSwitchCases(pass *analysis.Pass, fd *ast.FuncDecl) (map[string]bool, ast.Node) {
	cases := make(map[string]bool)
	var site ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSwitchStmt)
		if !ok {
			return true
		}
		if site == nil {
			site = ts
		}
		for _, c := range ts.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				if named := analysis.NamedOf(pass.TypeOf(e)); named != nil {
					cases[named.Obj().Name()] = true
				}
			}
		}
		return true
	})
	return cases, site
}

func checkEncoder(pass *analysis.Pass, impls []*types.TypeName) {
	fd := findFunc(pass, "AppendMessage")
	if fd == nil {
		return
	}
	cases, site := typeSwitchCases(pass, fd)
	if site == nil {
		return
	}
	if missing := missingNames(implNames(impls), cases); len(missing) > 0 {
		pass.Reportf(site.Pos(), "encoder type switch is missing message types: %s (every wire.Message must be encodable)", strings.Join(missing, ", "))
	}
}

func checkDecoder(pass *analysis.Pass, kindType *types.Named, kinds []*types.Const) {
	if fd := findFunc(pass, "Decode"); fd != nil {
		decoderSwitch(pass, fd, kindType, kinds)
	}
}

// decoderSwitch checks fd's Kind-tagged switch against the constant list.
func decoderSwitch(pass *analysis.Pass, fd *ast.FuncDecl, kindType *types.Named, kinds []*types.Const) {
	have := make(map[string]bool)
	var site ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return true
		}
		if analysis.NamedOf(pass.TypeOf(sw.Tag)) != analysis.NamedOf(kindType) {
			return true
		}
		if site == nil {
			site = sw
		}
		for _, c := range sw.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				if id, ok := ast.Unparen(e).(*ast.Ident); ok {
					if c, ok := pass.ObjectOf(id).(*types.Const); ok {
						have[c.Name()] = true
					}
				}
			}
		}
		return true
	})
	if site == nil {
		return
	}
	var all []string
	for _, k := range kinds {
		all = append(all, k.Name())
	}
	if missing := missingNames(all, have); len(missing) > 0 {
		pass.Reportf(site.Pos(), "decoder switch is missing kinds: %s (every Kind constant must be decodable)", strings.Join(missing, ", "))
	}
}

// checkString verifies the Kind.String name table covers every constant.
func checkString(pass *analysis.Pass, kindType *types.Named, kinds []*types.Const) {
	var fd *ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Recv == nil || d.Name.Name != "String" {
				continue
			}
			if analysis.NamedOf(pass.TypeOf(d.Recv.List[0].Type)) == analysis.NamedOf(kindType) {
				fd = d
			}
		}
	}
	if fd == nil {
		return
	}
	have := make(map[string]bool)
	var site ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		if _, isArr := cl.Type.(*ast.ArrayType); !isArr {
			return true
		}
		if site == nil {
			site = cl
		}
		for _, elt := range cl.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if id, ok := ast.Unparen(kv.Key).(*ast.Ident); ok {
				if c, ok := pass.ObjectOf(id).(*types.Const); ok {
					have[c.Name()] = true
				}
			}
		}
		return true
	})
	if site == nil {
		return
	}
	var all []string
	for _, k := range kinds {
		all = append(all, k.Name())
	}
	if missing := missingNames(all, have); len(missing) > 0 {
		pass.Reportf(site.Pos(), "Kind.String name table is missing kinds: %s", strings.Join(missing, ", "))
	}
}

// carriesSlice reports whether t (a struct) transitively contains a
// slice-typed field — the payload-bearing shape whose encoded size varies.
func carriesSlice(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		switch ft.Underlying().(type) {
		case *types.Slice:
			return true
		case *types.Struct:
			if carriesSlice(ft, seen) {
				return true
			}
		}
	}
	return false
}

func checkSize(pass *analysis.Pass, impls []*types.TypeName) {
	fd := findFunc(pass, "ApproxSize")
	if fd == nil {
		return
	}
	cases, site := typeSwitchCases(pass, fd)
	if site == nil {
		return
	}
	var payload []string
	for _, t := range impls {
		if carriesSlice(t.Type(), make(map[types.Type]bool)) {
			payload = append(payload, t.Name())
		}
	}
	if missing := missingNames(payload, cases); len(missing) > 0 {
		pass.Reportf(site.Pos(), "ApproxSize is missing explicit cases for payload-bearing messages: %s (the default flat estimate breaks flow-control accounting and MemNet's bandwidth model for them)", strings.Join(missing, ", "))
	}
}

// checkRoundTrip requires every message type to appear in a composite
// literal in some test file of the unit — the round-trip codec test table.
// It only fires when the unit actually contains test files (the `go vet`
// test variant; the plain variant has nothing to check against).
func checkRoundTrip(pass *analysis.Pass, impls []*types.TypeName) {
	covered := make(map[string]bool)
	sawTests := false
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if !strings.HasSuffix(name, "_test.go") {
			continue
		}
		sawTests = true
		ast.Inspect(f, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok || cl.Type == nil {
				return true
			}
			if named := analysis.NamedOf(pass.TypeOf(cl.Type)); named != nil {
				covered[named.Obj().Name()] = true
			}
			return true
		})
	}
	if !sawTests {
		return
	}
	for _, t := range impls {
		if !covered[t.Name()] {
			pass.Reportf(t.Pos(), "message type %s has no round-trip test coverage (no composite literal in any _test.go file of this package)", t.Name())
		}
	}
}
