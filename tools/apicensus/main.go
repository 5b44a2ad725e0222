// Command apicensus reports every exported name that no non-test file
// uses: each exported package-level object, and each exported method,
// declared in the root module and in bench/. It type-checks their
// packages from source, test files left out, and counts a name as used
// when some non-test file outside its own declaration refers to it. A method also counts as used when it
// implements a method of a named interface declared in a checked
// package or in anything they import (error, fmt.Stringer,
// heap.Interface, isolation.Backend, ...), since calls through the
// interface never name it.
//
// A reported name is deleted, moved into an export_test.go, or listed in
// the allow-list with the reason it stays. The census fails on any name
// it reports that the allow-list does not cover, and on an allow-list
// entry that covers nothing.
//
//	go run ./tools/apicensus
//
// It runs from the repository root and reads tools/apicensus/allow.txt.
// Each allow-list line is one name as the census prints it, then "#" and
// the reason; blank lines and lines starting with "#" are comments. A
// name with a "*" in it is refused, so no entry can hide more than the
// one object it names.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if err := run("tools/apicensus/allow.txt", []string{".", "bench"}); err != nil {
		fmt.Fprintln(os.Stderr, "apicensus:", err)
		os.Exit(1)
	}
	fmt.Println("apicensus: ok")
}

func run(allowFile string, dirs []string) error {
	hits, err := census(dirs)
	if err != nil {
		return err
	}
	return check(hits, allowFile)
}

// check fails on each hit the allow-list file does not cover, and on
// each entry of the file that covers no hit.
func check(hits []hit, allowFile string) error {
	allow, err := readAllow(allowFile)
	if err != nil {
		return err
	}
	used := make([]bool, len(allow))
	var bad []string
	for _, h := range hits {
		ok := false
		for i, a := range allow {
			if a == h.name {
				ok, used[i] = true, true
			}
		}
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: %s has no non-test use", h.pos, h.name))
		}
	}
	for i, a := range allow {
		if !used[i] {
			bad = append(bad, fmt.Sprintf("%s: allow-list entry %s covers no reported name", allowFile, a))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d problems:\n%s", len(bad), strings.Join(bad, "\n"))
	}
	return nil
}

// readAllow returns the names of an allow-list file.
func readAllow(file string) ([]string, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var allow []string
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		name, reason, _ := strings.Cut(line, "#")
		if name = strings.TrimSpace(name); strings.TrimSpace(reason) == "" || strings.ContainsAny(name, " \t") {
			return nil, fmt.Errorf("%s:%d: want \"name # reason\"", file, n)
		}
		if strings.Contains(name, "*") {
			return nil, fmt.Errorf("%s:%d: %s is a wildcard; list each name on its own line", file, n, name)
		}
		allow = append(allow, name)
	}
	return allow, sc.Err()
}

// A hit is an exported name without a non-test use.
type hit struct {
	name string // import path, then "." and the name, or "." type "." method
	pos  token.Position
}

// census type-checks every package of the modules rooted at dirs and
// returns their exported names that no non-test file uses, sorted.
func census(dirs []string) ([]hit, error) {
	l := &loader{fset: token.NewFileSet(), pkgs: map[string]*pkg{}}
	// The modules are pure Go; with cgo on, the source importer would
	// run the cgo tool over the standard library.
	build.Default.CgoEnabled = false
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	for _, d := range dirs {
		m, err := readModule(d)
		if err != nil {
			return nil, err
		}
		l.mods = append(l.mods, m)
	}
	for _, m := range l.mods {
		paths, err := m.packages()
		if err != nil {
			return nil, err
		}
		for _, p := range paths {
			if _, err := l.Import(p); err != nil {
				return nil, err
			}
		}
	}
	return l.unused(), nil
}

// A module is a module path and the directory of its go.mod.
type module struct{ path, dir string }

func readModule(dir string) (module, error) {
	b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return module{}, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return module{path: strings.Trim(f[1], `"`), dir: dir}, nil
		}
	}
	return module{}, fmt.Errorf("%s/go.mod: no module line", dir)
}

// packages returns the import paths of the module's packages: every
// directory with a buildable non-test Go file, leaving out testdata,
// hidden directories and nested modules.
func (m module) packages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(m.dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != m.dir {
			name := d.Name()
			if name == "testdata" || name[0] == '.' || name[0] == '_' {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		files, err := goFiles(p)
		if err != nil || len(files) == 0 {
			return err
		}
		rel, err := filepath.Rel(m.dir, p)
		if err != nil {
			return err
		}
		paths = append(paths, strings.TrimSuffix(m.path+"/"+filepath.ToSlash(rel), "/."))
		return nil
	})
	return paths, err
}

// goFiles returns the non-test Go files of dir that build on this
// platform.
func goFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if ok {
			files = append(files, filepath.Join(dir, name))
		}
	}
	return files, nil
}

// pkg is one type-checked package of a censused module.
type pkg struct {
	types *types.Package
	info  *types.Info
	files []*ast.File
}

// loader type-checks the censused modules' packages on demand, so a
// package and every package importing it share one set of objects, and
// leaves everything else to the standard library's source importer.
type loader struct {
	fset *token.FileSet
	std  types.ImporterFrom
	mods []module
	pkgs map[string]*pkg // by import path
}

// dir returns the directory of a censused package, or "" when path is
// in none of the modules.
func (l *loader) dir(path string) string {
	best, dir := -1, ""
	for _, m := range l.mods {
		if (path == m.path || strings.HasPrefix(path, m.path+"/")) && len(m.path) > best {
			best, dir = len(m.path), filepath.Join(m.dir, strings.TrimPrefix(path, m.path))
		}
	}
	return dir
}

func (l *loader) Import(path string) (*types.Package, error) {
	if p := l.pkgs[path]; p != nil {
		return p.types, nil
	}
	dir := l.dir(path)
	if dir == "" {
		return l.std.ImportFrom(path, ".", 0)
	}
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	p := &pkg{info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p.types, nil
}

// unused returns the exported names of the censused packages that no
// non-test file uses outside their own declaration.
func (l *loader) unused() []hit {
	decl := map[types.Object]ast.Node{} // each candidate -> its declaration
	var names []*types.Named
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if obj := p.info.Defs[d.Name]; d.Name.IsExported() {
						decl[obj] = d
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							obj := p.info.Defs[s.Name]
							if n, ok := obj.Type().(*types.Named); ok && !obj.(*types.TypeName).IsAlias() {
								names = append(names, n)
							}
							if s.Name.IsExported() {
								decl[obj] = s
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.IsExported() {
									decl[p.info.Defs[id]] = s
								}
							}
						}
					}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for _, p := range l.pkgs {
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			if d := decl[obj]; d == nil || id.Pos() < d.Pos() || id.Pos() >= d.End() {
				used[obj] = true
			}
		}
	}
	for _, m := range l.implementing(names) {
		used[m] = true
	}
	var hits []hit
	for obj, d := range decl {
		if used[obj] {
			continue
		}
		name := obj.Pkg().Path() + "." + obj.Name()
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
			recv := obj.Type().(*types.Signature).Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			name = obj.Pkg().Path() + "." + recv.(*types.Named).Obj().Name() + "." + obj.Name()
		}
		hits = append(hits, hit{name: name, pos: l.fset.Position(obj.Pos())})
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].name < hits[j].name })
	return hits
}

// implementing returns the methods through which the named types (and
// pointers to them) implement a named interface of a checked package or
// of anything those import: calls through the interface reach them
// without naming them.
func (l *loader) implementing(named []*types.Named) []types.Object {
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
				if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() == 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range l.pkgs {
		visit(p.types)
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	var ms []types.Object
	for _, n := range named {
		if n.TypeParams().Len() > 0 {
			continue
		}
		ptr := types.NewPointer(n)
		mset := types.NewMethodSet(ptr)
		for _, it := range ifaces {
			if m := it.Method(0); mset.Lookup(m.Pkg(), m.Name()) == nil || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
					ms = append(ms, origin(sel.Obj()))
				}
			}
		}
	}
	return ms
}

// origin maps an instantiated function or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
