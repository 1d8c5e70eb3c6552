// Package apicheck holds the repository's reachability rule as a test: every
// package-level func, method, type, var and const of a non-main package must
// be reached from a program (the main packages of this module and of bench/)
// or be used by the tests of another package. Anything else is API that no
// program calls, and it goes together with the tests that only exercise it.
//
// The check is stdlib-only: `go list -json` names the files, go/parser and
// go/types read them, and importer.Default supplies the standard library.
package apicheck

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// stdlibCalls are methods the standard library calls through an interface on
// values the repository hands it (fmt and errors; sort and container/heap;
// io and net.Conn). No repository code names those calls, so the name alone
// keeps such a method of a reached type.
var stdlibCalls = []string{
	"Error", "String", "Unwrap",
	"Len", "Less", "Swap", "Push", "Pop",
	"Read", "Write", "Close",
	"LocalAddr", "RemoteAddr", "SetDeadline", "SetReadDeadline", "SetWriteDeadline",
}

func TestEveryDeclarationIsReached(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*pkg
	for _, dir := range []string{root, filepath.Join(root, "bench")} {
		ps, err := goList(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, ps...)
	}
	unreached, err := check(pkgs, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(unreached) > 0 {
		t.Errorf("%d declarations are reached by no program and by no other package's tests;\n"+
			"give each a caller in a program or delete it with the tests that only exercise it:\n\t%s",
			len(unreached), strings.Join(unreached, "\n\t"))
	}
}

// pkg is one package as `go list` describes it.
type pkg struct {
	path   string
	main   bool
	files  []string          // non-test files
	tests  []string          // _test.go files of the package itself
	xtests []string          // _test.go files of its external test package
	src    map[string]string // file contents by name; nil reads the files
}

func goList(dir string) ([]*pkg, error) {
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v: %s", dir, err, stderr.String())
	}
	var pkgs []*pkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p struct {
			Dir, ImportPath, Name              string
			GoFiles, TestGoFiles, XTestGoFiles []string
		}
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		abs := func(names []string) []string {
			for i, n := range names {
				names[i] = filepath.Join(p.Dir, n)
			}
			return names
		}
		pkgs = append(pkgs, &pkg{
			path:   p.ImportPath,
			main:   p.Name == "main",
			files:  abs(p.GoFiles),
			tests:  abs(p.TestGoFiles),
			xtests: abs(p.XTestGoFiles),
		})
	}
	return pkgs, nil
}

// decl is one package-level declaration, or a method, of a non-test file.
type decl struct {
	pkg    string
	name   string // Name, or Type.Method
	pos    token.Position
	recv   string   // a method's receiver type, as a key
	uses   []string // keys of the repository objects its declaration names
	iface  []string // methods it calls through an interface
	method string   // a method's own name
}

type checker struct {
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*pkg
	parsed map[string]*ast.File
	plain  map[string]*types.Package // non-test variants
	tested map[string]*types.Package // variants with the package's own tests
	decls  map[string]*decl
	roots  []string
}

// check returns the unreached declarations of the non-main packages among
// pkgs as sorted "file:line name" lines, files relative to root.
func check(pkgs []*pkg, root string) ([]string, error) {
	c := &checker{
		fset:   token.NewFileSet(),
		std:    importer.Default(),
		pkgs:   map[string]*pkg{},
		parsed: map[string]*ast.File{},
		plain:  map[string]*types.Package{},
		tested: map[string]*types.Package{},
		decls:  map[string]*decl{},
	}
	for _, p := range pkgs {
		c.pkgs[p.path] = p
	}
	for _, p := range pkgs {
		if _, err := c.importPlain(p.path); err != nil {
			return nil, err
		}
	}
	for _, p := range pkgs {
		if err := c.checkTests(p); err != nil {
			return nil, err
		}
	}

	reached := c.reach()
	var dead []*decl
	for k, d := range c.decls {
		if !reached[k] && !c.pkgs[d.pkg].main && d.name != "_" && d.name != "init" {
			dead = append(dead, d)
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := dead[i].pos, dead[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
	})
	var out []string
	for _, d := range dead {
		file, err := filepath.Rel(root, d.pos.Filename)
		if err != nil {
			file = d.pos.Filename
		}
		out = append(out, fmt.Sprintf("%s:%d %s", filepath.ToSlash(file), d.pos.Line, d.name))
	}
	return out, nil
}

func (c *checker) parse(p *pkg, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, ok := c.parsed[name]
		if !ok {
			var src any
			if p.src != nil {
				src = p.src[name]
			}
			var err error
			f, err = parser.ParseFile(c.fset, name, src, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			c.parsed[name] = f
		}
		files = append(files, f)
	}
	return files, nil
}

// importer resolves repository paths through resolve and everything else
// through the standard library's export data.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (c *checker) importer(resolve func(string) (*types.Package, error)) types.Importer {
	return importerFunc(func(path string) (*types.Package, error) {
		if _, ok := c.pkgs[path]; ok {
			return resolve(path)
		}
		return c.std.Import(path)
	})
}

func newInfo() *types.Info {
	return &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
}

// importPlain type-checks a package's non-test files, after the packages they
// import, and records its declarations.
func (c *checker) importPlain(path string) (*types.Package, error) {
	if tp, ok := c.plain[path]; ok {
		if tp == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return tp, nil
	}
	c.plain[path] = nil
	p := c.pkgs[path]
	files, err := c.parse(p, p.files)
	if err != nil {
		return nil, err
	}
	info := newInfo()
	conf := types.Config{Importer: c.importer(c.importPlain)}
	tp, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, err
	}
	c.plain[path] = tp
	for _, f := range files {
		c.record(p, f, info)
	}
	return tp, nil
}

// checkTests type-checks a package's own tests with it, then its external
// tests, and roots every declaration of another package that they use. Type
// errors are tolerated here: an external test sees packages that import the
// package under test compiled against its plain variant, which `go test`
// would recompile, and identifiers are resolved all the same.
func (c *checker) checkTests(p *pkg) error {
	ignore := types.Config{Error: func(error) {}}
	if len(p.tests) > 0 {
		files, err := c.parse(p, append(append([]string{}, p.files...), p.tests...))
		if err != nil {
			return err
		}
		info := newInfo()
		conf := ignore
		conf.Importer = c.importer(c.importPlain)
		tp, _ := conf.Check(p.path, c.fset, files, info)
		c.tested[p.path] = tp
		c.rootTestUses(p, files[len(p.files):], info)
	}
	if len(p.xtests) > 0 {
		files, err := c.parse(p, p.xtests)
		if err != nil {
			return err
		}
		info := newInfo()
		conf := ignore
		conf.Importer = c.importer(func(path string) (*types.Package, error) {
			if tp := c.tested[path]; path == p.path && tp != nil {
				return tp, nil
			}
			return c.importPlain(path)
		})
		conf.Check(p.path+"_test", c.fset, files, info)
		c.rootTestUses(p, files, info)
	}
	return nil
}

func (c *checker) rootTestUses(p *pkg, files []*ast.File, info *types.Info) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if d, ok := c.decls[c.key(info.Uses[id])]; ok && d.pkg != p.path {
					c.roots = append(c.roots, c.key(info.Uses[id]))
				}
			}
			return true
		})
	}
}

// key names an object by its declaring position, which every type-checked
// variant of a file shares.
func (c *checker) key(obj types.Object) string {
	switch o := obj.(type) {
	case nil:
		return ""
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if !obj.Pos().IsValid() {
		return ""
	}
	return c.fset.Position(obj.Pos()).String()
}

// record adds the declarations of one non-test file with what each names.
func (c *checker) record(p *pkg, f *ast.File, info *types.Info) {
	add := func(id *ast.Ident, node ast.Node) *decl {
		obj := info.Defs[id]
		d := &decl{pkg: p.path, name: id.Name, pos: c.fset.Position(id.Pos())}
		d.uses, d.iface = c.uses(node, info)
		if n, ok := obj.Type().(*types.Named); ok && obj.Pos() != n.Obj().Pos() {
			d.uses = append(d.uses, c.key(n.Obj()))
		}
		c.decls[c.key(obj)] = d
		return d
	}
	for _, dl := range f.Decls {
		switch dl := dl.(type) {
		case *ast.FuncDecl:
			d := add(dl.Name, dl)
			if dl.Recv == nil {
				if d.name == "init" || p.main && d.name == "main" {
					c.roots = append(c.roots, c.key(info.Defs[dl.Name]))
				}
				continue
			}
			recv := info.Defs[dl.Name].Type().(*types.Signature).Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			named := recv.(*types.Named)
			d.recv, d.method = c.key(named.Obj()), d.name
			d.name = named.Obj().Name() + "." + d.name
		case *ast.GenDecl:
			for _, spec := range dl.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name, s)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, s)
						if dl.Tok == token.VAR && (p.main || id.Name == "_") {
							c.roots = append(c.roots, c.key(info.Defs[id]))
						}
					}
				}
			}
		}
	}
}

// uses lists the repository objects node names and the methods it calls
// through an interface.
func (c *checker) uses(node ast.Node, info *types.Info) (keys, iface []string) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				iface = append(iface, fn.Name())
				return true
			}
		}
		if k := c.key(obj); k != "" {
			keys = append(keys, k)
		}
		return true
	})
	return keys, iface
}

// reach walks from the roots: a declaration reaches what it names, a method
// is reached when it is selected, or when its type is reached and a reached
// declaration (or the standard library) calls its name through an interface.
func (c *checker) reach() map[string]bool {
	byRecv := map[string][]string{}
	for k, d := range c.decls {
		if d.recv != "" {
			byRecv[d.recv] = append(byRecv[d.recv], k)
		}
	}
	called := map[string]bool{}
	for _, name := range stdlibCalls {
		called[name] = true
	}
	reached := map[string]bool{}
	queue := append([]string{}, c.roots...)
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		d, ok := c.decls[k]
		if !ok || reached[k] {
			continue
		}
		reached[k] = true
		queue = append(queue, d.uses...)
		for _, name := range d.iface {
			if called[name] {
				continue
			}
			called[name] = true
			for mk, m := range c.decls {
				if m.method == name && reached[m.recv] {
					queue = append(queue, mk)
				}
			}
		}
		for _, mk := range byRecv[k] {
			if called[c.decls[mk].method] {
				queue = append(queue, mk)
			}
		}
	}
	return reached
}
