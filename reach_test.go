package repro_test

import (
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// uncalledAllowed names the exports under internal/ that may stay without
// a non-test reference, each with its reason. Keys are "importpath.Name"
// or "importpath.Type.Method".
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

// unsetAllowed names the options TestEveryOptionIsSet lets stand though
// no program sets them, each with its reason. Keys are
// "importpath.Type.Field", or "importpath.Type" for all of a type's fields.
var unsetAllowed = map[string]string{
	"repro/internal/dist.Config.Multirate":       "the agents' run of the multirate extension (Section 5), proved by multirate_40.bits and TestMultirateSyncMatchesEngine",
	"repro/internal/experiments.Options.SATemps": "the tests and root benchmarks cut the annealing sweep to two temperatures; a constant would triple their annealing time",
	"repro/internal/workload.RandomConfig":       "configures workload.Random, which uncalledAllowed keeps for the property tests",
}

// numericExempt names the numeric options TestEveryNumericOptionHasARow
// lets stand without a row in numericOptions, each with its reason. Keys
// are "importpath.Type.Field", or "importpath.Type" for all of a type's
// fields.
var numericExempt = map[string]string{
	"repro/internal/anneal.Config.Seed":      "every int64 is a seed; 0 means seed 1",
	"repro/internal/workload.Config":         "Scaled has no error return, and bench/ calls it",
	"repro/internal/workload.MetroConfig":    "MetroSized has no error return, and bench/ calls MetroSmall through it",
	"repro/internal/workload.RandomConfig":   "Random has no error return; only property tests call it",
	"repro/internal/experiments.Options":     "only lrgp-experiments and tests set it, and the command refuses its flags",
	"repro/internal/experiments.ChurnConfig": "only lrgp-experiments and tests set it, and the command refuses its flags",
}

// The checkout is type-checked once and shared by the tests below.
var (
	checkoutOnce  sync.Once
	checkout      *loader
	checkoutPaths []string
	checkoutErr   error
)

// loadCheckout type-checks every non-test package of the module, of bench/
// and of examples/, and returns the loader with the import paths it holds.
func loadCheckout(t *testing.T) (*loader, []string) {
	t.Helper()
	if raceEnabled {
		t.Skip("static analysis: the race detector has nothing to watch")
	}
	checkoutOnce.Do(func() {
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
		for _, p := range paths {
			if err != nil {
				break
			}
			_, err = l.Import(p)
		}
		checkout, checkoutPaths, checkoutErr = l, paths, err
	})
	if checkoutErr != nil {
		t.Fatal(checkoutErr)
	}
	return checkout, checkoutPaths
}

// TestEveryExportHasACaller fails on each exported function, method,
// package-level var, const or type under internal/ that nothing outside a
// test refers to. A declaration's references to itself do not count, nor
// do the receivers of a type's own methods. Methods that satisfy an
// interface the program uses are exempt (they are called through it), and
// so is what uncalledAllowed lists.
func TestEveryExportHasACaller(t *testing.T) {
	l, paths := loadCheckout(t)
	used := map[types.Object]bool{}
	ifaces := l.implicitInterfaces(t)
	for _, lp := range l.pkgs {
		for _, tv := range lp.info.Types {
			if iface, ok := tv.Type.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				ifaces[iface] = true
			}
		}
		// Each function and each spec of a declaration group is walked on
		// its own, so that only what it declares counts as itself.
		var units []ast.Node
		for _, f := range lp.files {
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok {
					for _, spec := range gd.Specs {
						units = append(units, spec)
					}
				} else {
					units = append(units, decl)
				}
			}
		}
		for _, unit := range units {
			self := map[types.Object]bool{}
			var recv *ast.FieldList
			switch u := unit.(type) {
			case *ast.FuncDecl:
				self[lp.info.Defs[u.Name]], recv = true, u.Recv
			case *ast.ValueSpec:
				for _, name := range u.Names {
					self[lp.info.Defs[name]] = true
				}
			case *ast.TypeSpec:
				self[lp.info.Defs[u.Name]] = true
			}
			ast.Inspect(unit, func(n ast.Node) bool {
				if recv != nil && n == ast.Node(recv) {
					return false
				}
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := lp.info.Uses[id]
				if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin()
				}
				if obj != nil && !self[obj] {
					used[obj] = true
				}
				return true
			})
		}
	}

	var missing []string
	allowed := map[string]bool{}
	for _, p := range paths {
		if !strings.HasPrefix(p, "repro/internal/") {
			continue
		}
		for _, obj := range exportedObjects(l.pkgs[p].types) {
			key := objectKey(obj)
			if used[obj] {
				continue
			}
			if fn, ok := obj.(*types.Func); ok && satisfiesInterface(fn, ifaces) {
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
		t.Errorf("%s has no non-test reference: delete it, move it to a test file, or allowlist it with a reason", key)
	}
	for key := range uncalledAllowed {
		if !allowed[key] {
			t.Errorf("allowlist entry %s names nothing unreferenced under internal/: drop it", key)
		}
	}
}

// TestEveryOptionIsSet fails on each exported field of an exported struct
// named Options, Config or *Config under internal/ that no non-test file
// writes: as a key of a composite literal, by assignment through a
// selector, or by taking its address (a flag bound to it). A type's own
// normalized and WithDefaults methods do not count; what unsetAllowed
// lists is exempt.
func TestEveryOptionIsSet(t *testing.T) {
	l, paths := loadCheckout(t)
	set := map[*types.Var]bool{}
	for _, lp := range l.pkgs {
		for _, f := range lp.files {
			for _, decl := range f.Decls {
				own := defaultedFields(lp.info, decl)
				mark := func(e ast.Expr) {
					if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
						if v, ok := lp.info.Uses[sel.Sel].(*types.Var); ok && v.IsField() && !own[v] {
							set[v.Origin()] = true
						}
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.KeyValueExpr:
						if id, ok := n.Key.(*ast.Ident); ok {
							if v, ok := lp.info.Uses[id].(*types.Var); ok && v.IsField() {
								set[v.Origin()] = true
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							mark(lhs)
						}
					case *ast.IncDecStmt:
						mark(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							mark(n.X)
						}
					}
					return true
				})
			}
		}
	}

	var unset []string
	allowed := map[string]bool{}
	for _, o := range configFields(l, paths) {
		if set[o.field] {
			continue
		}
		switch {
		case unsetAllowed[o.key] != "":
			allowed[o.key] = true
		case unsetAllowed[o.typeKey] != "":
			allowed[o.typeKey] = true
		default:
			unset = append(unset, o.key)
		}
	}
	sort.Strings(unset)
	for _, key := range unset {
		t.Errorf("option %s is set by no program: make it a constant or an unexported field a test sets, or allowlist it with a reason", key)
	}
	for key := range unsetAllowed {
		if !allowed[key] {
			t.Errorf("allowlist entry %s names no unset option under internal/: drop it", key)
		}
	}
}

// TestEveryNumericOptionHasARow fails on each numeric field (a float, an
// integer or a time.Duration) of a config under internal/ that has no row
// in numericOptions (options_test.go), the table that feeds the field's
// constructor bad values; what numericExempt lists is exempt.
func TestEveryNumericOptionHasARow(t *testing.T) {
	l, paths := loadCheckout(t)
	rows := map[string]bool{}
	for _, row := range numericOptions {
		rows[optionKey(row.cfg, row.field)] = true
	}
	allowed := map[string]bool{}
	for _, o := range configFields(l, paths) {
		basic, ok := o.field.Type().Underlying().(*types.Basic)
		if !ok || basic.Info()&types.IsNumeric == 0 || rows[o.key] {
			continue
		}
		switch {
		case numericExempt[o.key] != "":
			allowed[o.key] = true
		case numericExempt[o.typeKey] != "":
			allowed[o.typeKey] = true
		default:
			t.Errorf("numeric option %s has no row in numericOptions: add one, or exempt it with a reason", o.key)
		}
	}
	for key := range numericExempt {
		if !allowed[key] {
			t.Errorf("numericExempt entry %s exempts no numeric option without a row: drop it", key)
		}
	}
}

// numericFlagFuncs are the flag package's numeric flag constructors, with
// the index of the argument that names the flag.
var numericFlagFuncs = map[string]int{
	"Float64": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "Duration": 0,
	"Float64Var": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1, "DurationVar": 1,
}

// TestEveryNumericFlagHasARow fails on each numeric flag a command under
// cmd/ declares that no string literal of the command's
// TestRunRefusesBadFlags names. A -seed flag is exempt: every int64 is a
// seed.
func TestEveryNumericFlagHasARow(t *testing.T) {
	l, paths := loadCheckout(t)
	for _, p := range paths {
		if !strings.HasPrefix(p, "repro/cmd/") {
			continue
		}
		lp := l.pkgs[p]
		var flags []string
		for _, f := range lp.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := lp.info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
					return true
				}
				if i, ok := numericFlagFuncs[fn.Name()]; ok && i < len(call.Args) {
					if v := lp.info.Types[call.Args[i]].Value; v != nil && v.Kind() == constant.String {
						if name := constant.StringVal(v); name != "seed" {
							flags = append(flags, "-"+name)
						}
					}
				}
				return true
			})
		}
		if len(flags) == 0 {
			continue
		}
		dir := strings.TrimPrefix(p, "repro/")
		rows := refusalRows(t, dir)
		for _, flag := range flags {
			if !rows[flag] {
				t.Errorf("%s: numeric flag %s has no row in TestRunRefusesBadFlags", dir, flag)
			}
		}
	}
}

// refusalRows collects the flag names (a string literal "-name" or
// "-name=value") TestRunRefusesBadFlags mentions in dir's test files.
func refusalRows(t *testing.T, dir string) map[string]bool {
	t.Helper()
	tests, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, name := range tests {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "TestRunRefusesBadFlags" {
				continue
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(s, "-") {
						rows[strings.SplitN(s, "=", 2)[0]] = true
					}
				}
				return true
			})
		}
	}
	return rows
}

// configField is one exported field of an exported struct named Options,
// Config or *Config under internal/.
type configField struct {
	field        *types.Var
	typeKey, key string // "importpath.Type" and "importpath.Type.Field"
}

// configFields lists the exported fields of every exported struct named
// Options, Config or *Config under internal/.
func configFields(l *loader, paths []string) []configField {
	var out []configField
	for _, p := range paths {
		if !strings.HasPrefix(p, "repro/internal/") {
			continue
		}
		scope := l.pkgs[p].types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !(name == "Options" || strings.HasSuffix(name, "Config")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			typeKey := p + "." + name
			for i := 0; i < st.NumFields(); i++ {
				if field := st.Field(i); field.Exported() {
					out = append(out, configField{field, typeKey, typeKey + "." + field.Name()})
				}
			}
		}
	}
	return out
}

// defaultedFields is the set of fields decl may write without setting an
// option: those of its receiver's struct when decl is that type's
// normalized or WithDefaults method.
func defaultedFields(info *types.Info, decl ast.Decl) map[*types.Var]bool {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok || fd.Recv == nil || (fd.Name.Name != "normalized" && fd.Name.Name != "WithDefaults") {
		return nil
	}
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	st, ok := recvType(fn).Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	own := map[*types.Var]bool{}
	for i := 0; i < st.NumFields(); i++ {
		own[st.Field(i)] = true
	}
	return own
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

// exportedObjects lists pkg's exported package-level objects and the
// exported methods of its named types.
func exportedObjects(pkg *types.Package) []types.Object {
	var out []types.Object
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			out = append(out, obj)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				out = append(out, m)
			}
		}
	}
	return out
}

// objectKey is "importpath.Name", or "importpath.Type.Method" for a method.
func objectKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if n := recvType(fn); n != nil {
			return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
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
