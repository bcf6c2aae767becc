package perfcloud_test

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// unreachedAllow is the committed allowlist of the unreached-surface
// check: one declaration a line, then whitespace and the reason tests
// need it although no program code calls it.
const unreachedAllow = "testdata/unreached.allow"

// TestUnreachedSurface fails on every function, method, type, const and
// var declared in a non-test file of internal/ that no non-test file of
// the module or of a nested module (bench/) references, unless the
// allowlist names it; and on every allowlist entry that program code
// now references or that no longer exists.
func TestUnreachedSurface(t *testing.T) {
	s, err := scanSurface(".")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllow(unreachedAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.check(allow) {
		t.Error(p)
	}
}

// TestUnreachedClassifier runs the check over a synthetic module tree
// whose internal/a package holds one declaration of each kind the check
// must exempt, and one it must report.
func TestUnreachedClassifier(t *testing.T) {
	s, err := scanSurface("testdata/unreached")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.unreached(), []string{"a.Unused", "a.unusedConst", "a.unusedType"}; !reflect.DeepEqual(got, want) {
		t.Errorf("unreached = %q, want %q", got, want)
	}
	for _, name := range []string{"a.Impl.Satisfies", "a.Impl.ViaConstraint", "a.Impl.AsValue", "a.Counter.Merge", "a.NestedOnly"} {
		if _, ok := s.decls[name]; !ok {
			t.Errorf("%s is not among the declarations", name)
		}
	}
	// A stale allowlist names a declaration program code uses, or one
	// that is gone; a complete one is silent.
	problems := s.check(map[string]string{"a.Unused": "r", "a.unusedConst": "r", "a.unusedType": "r", "a.NestedOnly": "r", "a.Gone": "r"})
	want := []string{
		"testdata/unreached.allow: a.Gone is not declared in any non-test file of internal/; drop the entry",
		"testdata/unreached.allow: a.NestedOnly is referenced by program code now; drop the entry",
	}
	if !reflect.DeepEqual(problems, want) {
		t.Errorf("problems = %q, want %q", problems, want)
	}
	if p := s.check(map[string]string{"a.unusedConst": "r", "a.unusedType": "r"}); len(p) != 1 || !strings.Contains(p[0], "a.Unused ") {
		t.Errorf("problems without a.Unused listed = %q, want one naming it", p)
	}
}

// readAllow reads the allowlist: blank lines and lines starting with #
// are skipped; every other line is a declaration and its reason.
func readAllow(file string) (map[string]string, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := make(map[string]string)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := strings.Fields(line)[0]
		reason := strings.TrimSpace(line[len(name):])
		if reason == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", file, n, name)
		}
		if _, dup := allow[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", file, n, name)
		}
		allow[name] = reason
	}
	return allow, sc.Err()
}

// surface is the declared surface of a module tree's internal/
// packages: every declaration by name (the package path below
// internal/, then the receiver type for a method, then the name, joined
// by dots), and whether a non-test file references it.
type surface struct {
	decls   map[string]token.Position
	reached map[string]bool
}

func (s *surface) unreached() []string {
	var names []string
	for name := range s.decls {
		if !s.reached[name] {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	return names
}

// check compares the unreached declarations with an allowlist and
// returns one problem a line: an unreached declaration it does not name,
// and an entry that is reached or not declared.
func (s *surface) check(allow map[string]string) []string {
	var problems []string
	for _, name := range s.unreached() {
		if _, ok := allow[name]; !ok {
			problems = append(problems, fmt.Sprintf("%s (%s) is referenced by no non-test file; delete it, or list it with a reason in %s",
				name, s.decls[name], unreachedAllow))
		}
	}
	var stale []string
	for name := range allow {
		if _, ok := s.decls[name]; !ok {
			stale = append(stale, fmt.Sprintf("%s: %s is not declared in any non-test file of internal/; drop the entry", unreachedAllow, name))
		} else if s.reached[name] {
			stale = append(stale, fmt.Sprintf("%s: %s is referenced by program code now; drop the entry", unreachedAllow, name))
		}
	}
	slices.Sort(stale)
	return append(problems, stale...)
}

// pkg is one package of the tree: its non-test files as
// build.ImportDir selects them for this platform.
type pkg struct {
	path, rel string // import path; path below the root module's internal/, or ""
	dir       string
	bp        *build.Package
	files     []*ast.File
	types     *types.Package
	info      *types.Info
}

// scanSurface type-checks the module tree at root (loadTree) and
// classifies the declarations of root's internal/.
func scanSurface(root string) (*surface, error) {
	fset := token.NewFileSet()
	pkgs, err := loadTree(fset, root)
	if err != nil {
		return nil, err
	}

	s := &surface{decls: make(map[string]token.Position), reached: make(map[string]bool)}
	names := make(map[types.Object]string)
	var named []*types.Named
	for _, p := range pkgs {
		if p.rel == "" {
			continue
		}
		scope := p.types.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if n == "_" {
				continue
			}
			name := p.rel + "." + n
			names[obj], s.decls[name] = name, fset.Position(obj.Pos())
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				nt := tn.Type().(*types.Named)
				named = append(named, nt)
				for i := range nt.NumMethods() {
					m := nt.Method(i)
					names[m], s.decls[name+"."+m.Name()] = name+"."+m.Name(), fset.Position(m.Pos())
				}
			}
		}
	}

	ifaces := map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true}
	addIface := func(t types.Type) {
		if tp, ok := t.(*types.TypeParam); ok {
			t = tp.Constraint()
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	for _, p := range pkgs {
		// A reference counts unless it is in the declaration of the
		// object itself (recursion, a self-referential type) or names the
		// receiver type of a method.
		mark := func(n ast.Node, own map[types.Object]bool) {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := origin(p.info.Uses[id]); obj != nil && !own[obj] && names[obj] != "" {
						s.reached[names[obj]] = true
					}
				}
				return true
			})
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					own := map[types.Object]bool{p.info.Defs[d.Name]: true}
					mark(d.Type, own)
					if d.Body != nil {
						mark(d.Body, own)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						own := make(map[types.Object]bool)
						ast.Inspect(spec, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok && p.info.Defs[id] != nil {
								own[p.info.Defs[id]] = true
							}
							return true
						})
						mark(spec, own)
					}
				}
			}
		}
		// A generic function or type calls the methods its constraints
		// name on its type arguments, and a constraint such as
		// interface{ *T; Merge(T) } only its instantiation can check.
		for id, inst := range p.info.Instances {
			var tparams *types.TypeParamList
			switch o := p.info.Uses[id].(type) {
			case *types.Func:
				tparams = o.Type().(*types.Signature).TypeParams()
			case *types.TypeName:
				tparams = o.Type().(*types.Named).TypeParams()
			}
			for i := range tparams.Len() {
				it := tparams.At(i).Constraint().Underlying().(*types.Interface)
				for j := range it.NumMethods() {
					obj, _, _ := types.LookupFieldOrMethod(inst.TypeArgs.At(i), true, p.types, it.Method(j).Name())
					if name := names[origin(obj)]; name != "" {
						s.reached[name] = true
					}
				}
			}
		}
		for _, tv := range p.info.Types {
			addIface(tv.Type)
		}
		for _, obj := range p.info.Defs {
			if obj != nil {
				addIface(obj.Type())
			}
		}
		for _, imp := range p.types.Imports() {
			if _, ours := pkgs[imp.Path()]; ours {
				continue
			}
			for _, n := range imp.Scope().Names() {
				if obj := imp.Scope().Lookup(n); obj.Exported() {
					if _, ok := obj.(*types.TypeName); ok {
						addIface(obj.Type())
					}
				}
			}
		}
	}

	// A method that satisfies an interface of the program or of a
	// standard package it imports may be called through it, by an
	// interface value or a type-parameter constraint. Generic types are
	// not matched: none in internal/ has methods, and one that did would
	// be reported, not missed.
	for _, nt := range named {
		if _, ok := nt.Underlying().(*types.Interface); ok || nt.TypeParams().Len() > 0 {
			continue
		}
		ptr := types.NewPointer(nt)
		for it := range ifaces {
			if !satisfies(nt, it) && !satisfies(ptr, it) {
				continue
			}
			for i := range it.NumMethods() {
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, nt.Obj().Pkg(), it.Method(i).Name())
				if name := names[origin(obj)]; name != "" {
					s.reached[name] = true
				}
			}
		}
	}
	return s, nil
}

// loadTree type-checks the non-test files of the module at root and of
// every module nested in it, with the standard library imported from
// export data, and returns the packages by import path. Directories named
// testdata, or starting with . or _, are skipped, as the go command skips
// them.
func loadTree(fset *token.FileSet, root string) (map[string]*pkg, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	pkgs := make(map[string]*pkg)
	modules := map[string]string{root: module} // module directory -> module path
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if m, err := modulePath(filepath.Join(dir, "go.mod")); err == nil {
			modules[dir] = m
		} else if !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		modDir := dir
		for modules[modDir] == "" {
			modDir = filepath.Dir(modDir)
		}
		modPath := modules[modDir]
		rel, err := filepath.Rel(modDir, dir)
		if err != nil {
			return err
		}
		bp, err := build.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		p := &pkg{path: path.Join(modPath, filepath.ToSlash(rel)), dir: dir, bp: bp}
		if r, ok := strings.CutPrefix(p.path, module+"/internal/"); ok && modPath == module {
			p.rel = r
		}
		pkgs[p.path] = p
		return nil
	})
	if err != nil {
		return nil, err
	}

	std := importer.Default()
	var load func(path string) (*types.Package, error)
	load = func(path string) (*types.Package, error) {
		p, ok := pkgs[path]
		if !ok {
			return std.Import(path)
		}
		if p.types != nil {
			return p.types, nil
		}
		for _, name := range p.bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		p.info = &types.Info{
			Types:     make(map[ast.Expr]types.TypeAndValue),
			Defs:      make(map[*ast.Ident]types.Object),
			Uses:      make(map[*ast.Ident]types.Object),
			Instances: make(map[*ast.Ident]types.Instance),
		}
		conf := types.Config{Importer: importerFunc(load)}
		tp, err := conf.Check(path, fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.types = tp
		return tp, nil
	}
	for path := range pkgs {
		if _, err := load(path); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// satisfies reports whether t implements the method-set interface it or
// satisfies the constraint it.
func satisfies(t types.Type, it *types.Interface) bool {
	if it.IsMethodSet() {
		return types.Implements(t, it)
	}
	return types.Satisfies(t, it)
}

// origin maps a method or field of an instantiated generic type, or an
// instantiated function, to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// modulePath returns the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(m), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}
