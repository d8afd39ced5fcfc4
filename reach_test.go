package repro_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledAllowed names the exported functions and methods under
// internal/ that may stay without a non-test caller, each with its reason.
// Keys are "importpath.Func" or "importpath.Type.Method".
var uncalledAllowed = map[string]string{
	"repro/internal/transport.ListenTCP":              "one endpoint of a multi-process TCP deployment, outside the in-process network",
	"repro/internal/transport.Memory.SetDropRate":     "fault hook: the lossy-network tests inject loss through it",
	"repro/internal/transport.Memory.SetDropExempt":   "fault hook: keeps the control plane lossless under SetDropRate",
	"repro/internal/transport.Memory.SetPartition":    "fault hook: the partition tests cut hosts apart through it",
	"repro/internal/transport.Memory.ClearPartitions": "fault hook: heals what SetPartition cut",
	"repro/internal/transport.Memory.SetOneWay":       "fault hook: the asymmetric-partition tests cut one direction",
	"repro/internal/transport.Memory.SetDelay":        "fault hook: the staleness tests delay delivery through it",
	"repro/internal/dist.Cluster.JoinFlow":            "Figure 3's flow arrival in the distributed runtime",
	"repro/internal/dist.Cluster.RemoveFlow":          "Figure 3's flow departure in the distributed runtime",
	"repro/internal/telemetry.ReadTrace":              "README documents it as the decoder of -trace-out files",
	"repro/internal/workload.Random":                  "the entangled random workload the property tests of several packages share",
	"repro/internal/overlay.RandomTopology":           "the random graph the overlay and core property tests share",
}

// TestEveryExportHasACaller type-checks every non-test package of the
// module and of bench/ and fails on each exported function or method under
// internal/ that nothing outside a test calls. Methods that satisfy an
// interface the program uses are exempt (they are called through it), and
// so is what uncalledAllowed lists.
func TestEveryExportHasACaller(t *testing.T) {
	if raceEnabled {
		t.Skip("static analysis: the race detector has nothing to watch")
	}
	l := &loader{fset: token.NewFileSet(), pkgs: map[string]*loadedPkg{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	var paths []string
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if bp, err := build.ImportDir(dir, 0); err == nil && len(bp.GoFiles) > 0 {
			paths = append(paths, importPath(dir))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			t.Fatal(err)
		}
	}

	called := map[*types.Func]bool{}
	ifaces := l.implicitInterfaces(t)
	for _, lp := range l.pkgs {
		for _, tv := range lp.info.Types {
			if iface, ok := tv.Type.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				ifaces[iface] = true
			}
		}
		for _, f := range lp.files {
			for _, decl := range f.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = lp.info.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if fn, ok := lp.info.Uses[id].(*types.Func); ok && fn != self {
						called[fn.Origin()] = true
					}
					return true
				})
			}
		}
	}

	var missing []string
	allowed := map[string]bool{}
	for _, p := range paths {
		if !strings.HasPrefix(p, "repro/internal/") {
			continue
		}
		for _, fn := range exportedFuncs(l.pkgs[p].types) {
			key := funcKey(fn)
			if called[fn] || satisfiesInterface(fn, ifaces) {
				continue
			}
			if uncalledAllowed[key] != "" {
				allowed[key] = true
				continue
			}
			missing = append(missing, key)
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		t.Errorf("%s has no non-test caller: delete it, move it to a test file, or allowlist it with a reason", key)
	}
	for key := range uncalledAllowed {
		if !allowed[key] {
			t.Errorf("allowlist entry %s names nothing uncalled under internal/: drop it", key)
		}
	}
}

// importPath maps a directory of this checkout to its import path; bench/
// is a module of its own whose path, repro/bench, keeps the same mapping.
func importPath(dir string) string {
	if dir == "." {
		return "repro"
	}
	return "repro/" + filepath.ToSlash(dir)
}

type loadedPkg struct {
	types *types.Package
	info  *types.Info
	files []*ast.File
}

// loader type-checks the packages of this checkout from source, keeping
// their syntax and type information, and hands standard-library imports to
// the source importer, so every package sees one copy of each type.
type loader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*loadedPkg
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		return l.std.Import(path)
	}
	if lp, ok := l.pkgs[path]; ok {
		return lp.types, nil
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(path, "repro"), "/")
	if dir == "" {
		dir = "."
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	lp := &loadedPkg{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		lp.files = append(lp.files, f)
	}
	conf := types.Config{Importer: l}
	lp.types, err = conf.Check(path, l.fset, lp.files, lp.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = lp
	return lp.types, nil
}

// implicitInterfaces are the standard-library interfaces that fmt and
// encoding/json call through without the program naming them.
func (l *loader) implicitInterfaces(t *testing.T) map[*types.Interface]bool {
	out := map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true}
	for _, ref := range [][2]string{
		{"fmt", "Stringer"}, {"fmt", "GoStringer"}, {"fmt", "Formatter"},
		{"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
		{"encoding", "TextMarshaler"}, {"encoding", "TextUnmarshaler"},
	} {
		pkg, err := l.std.Import(ref[0])
		if err != nil {
			t.Fatal(err)
		}
		out[pkg.Scope().Lookup(ref[1]).Type().Underlying().(*types.Interface)] = true
	}
	return out
}

// exportedFuncs lists pkg's exported functions and the exported methods of
// its named types.
func exportedFuncs(pkg *types.Package) []*types.Func {
	var out []*types.Func
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			if obj.Exported() {
				out = append(out, obj)
			}
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok || obj.IsAlias() {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					out = append(out, m)
				}
			}
		}
	}
	return out
}

func funcKey(fn *types.Func) string {
	if n := recvType(fn); n != nil {
		return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// recvType is the named type method fn is declared on, nil for a function.
func recvType(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	return rt.(*types.Named)
}

// satisfiesInterface reports whether method fn belongs to a method set
// that implements one of ifaces through a method of the same name.
func satisfiesInterface(fn *types.Func, ifaces map[*types.Interface]bool) bool {
	n := recvType(fn)
	if n == nil {
		return false
	}
	ptr := types.NewPointer(n)
	for iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() && (types.Implements(n, iface) || types.Implements(ptr, iface)) {
				return true
			}
		}
	}
	return false
}
